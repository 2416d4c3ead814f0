import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorcheck.trace import (Arrow, CommutingChoicesError, Declaration,
                             DeclarationError, commute, is_normal_form,
                             linearisations, msc_of, next_arrow, next_msc,
                             parse_arrow)
from chorcheck.oracle import normal_form_oracle
from chorcheck.semantics import LocalAction, recv_action, send_action
from chorcheck.randomgen import random_declaration

A = Arrow("p", "q", "m1")
B = Arrow("r", "s", "m2")   # commutes with A
C = Arrow("p", "q", "m3")   # does not commute with A
DECL = Declaration(("p", "q", "r", "s"), ("m1", "m2", "m3"), (A, B, C))


def test_arrow_str_roundtrip():
    assert str(A) == "p->q:m1"
    assert parse_arrow("p->q:m1") == A
    assert parse_arrow("q'->r:m2'") == Arrow("q'", "r", "m2'")


def test_self_message_rejected():
    with pytest.raises(DeclarationError):
        Arrow("p", "p", "m")
    with pytest.raises(DeclarationError):
        parse_arrow("p->p:m")


def test_letters_compare_hash_and_print_by_their_fields():
    # arrows order by (sender, receiver, message), local actions by
    # (process, peer, message, is_send), each field compared as a string
    # (is_send as a bool)
    arrows = [Arrow("q", "a", "a"), Arrow("p", "r", "a"), Arrow("p", "q", "m2"),
              Arrow("p", "q", "m1")]
    assert sorted(arrows) == sorted(arrows, key=lambda a: (a.sender, a.receiver, a.message))
    assert sorted(arrows) == arrows[::-1]
    actions = [LocalAction("q", "p", "a", False), LocalAction("p", "q", "m", True),
               LocalAction("p", "q", "m", False), LocalAction("p", "q", "a", True)]
    assert sorted(actions) == [actions[3], actions[2], actions[1], actions[0]]
    # built apart, equal and hashed alike
    twin = parse_arrow("".join(["p", "->", "q", ":m1"]))
    assert twin == A and twin is not A and hash(twin) == hash(A)
    assert len({A, twin, Arrow(sender="p", receiver="q", message="m1")}) == 1
    assert LocalAction("p", "q", "m", True) == send_action("p", "q", "m")
    assert hash(recv_action("q", "p", "m")) == hash(LocalAction("q", "p", "m", False))
    # the self-message check holds however the arrow is built
    with pytest.raises(DeclarationError, match="self-message p->p:m not allowed"):
        Arrow(sender="p", receiver="p", message="m")
    with pytest.raises(DeclarationError, match="self-message p->p:m1 not allowed"):
        A._replace(receiver="p")
    assert A._replace(message="m3") == C
    # text as before
    assert str(A) == "p->q:m1"
    assert repr(A) == "Arrow(sender='p', receiver='q', message='m1')"
    assert str(send_action("p", "q", "m")) == "p!q:m"
    assert str(recv_action("q", "p", "m")) == "q?p:m"
    assert repr(send_action("p", "q", "m")) == \
        "LocalAction(process='p', peer='q', message='m', is_send=True)"
    # an arrow and an action never meet, not even on the same names
    for action in (send_action("p", "q", "m1"), recv_action("p", "q", "m1")):
        assert A != action and action != A
        assert len({A, action}) == 2


@pytest.mark.parametrize("text", ["pq:m", "p->q", "->q:m", "p->:m", "p->q:"])
def test_malformed_arrow(text):
    with pytest.raises(DeclarationError):
        parse_arrow(text)


def test_commute_is_disjoint_participants():
    assert commute(A, B)
    assert not commute(A, C)
    assert not commute(A, A)
    # sharing only one endpoint is enough to forbid the swap
    assert not commute(Arrow("p", "q", "x"), Arrow("q", "r", "y"))


def test_declaration_validates():
    with pytest.raises(DeclarationError):
        Declaration(("p", "p"), ("m",), ())
    with pytest.raises(DeclarationError):
        Declaration(("p", "q"), ("m",), (Arrow("p", "r", "m"),))
    with pytest.raises(DeclarationError):
        Declaration(("p", "q"), ("m",), (Arrow("p", "q", "n"),))


def test_declaration_sorts_arrows_by_position():
    d = Declaration(("p", "q", "r", "s"), ("m1", "m2", "m3"), (B, C, A))
    assert d.arrows == (A, C, B)  # p->q arrows first, message order inside


def test_msc_identifies_commuting_swaps():
    assert msc_of((A, B), DECL) == msc_of((B, A), DECL)
    assert msc_of((A, C), DECL) != msc_of((C, A), DECL)
    assert msc_of((), DECL).word == ()


def test_canonical_word_is_least_linearisation():
    m = msc_of((B, A), DECL)
    assert m.word == (A, B)
    assert is_normal_form((A, B), DECL)
    assert not is_normal_form((B, A), DECL)


def test_msc_rejects_undeclared_arrows():
    with pytest.raises(DeclarationError):
        msc_of((Arrow("p", "s", "m1"),), DECL)


def test_linearisations():
    m = msc_of((A, B), DECL)
    assert linearisations(m) == {(A, B), (B, A)}
    m2 = msc_of((A, C), DECL)
    assert linearisations(m2) == {(A, C)}


def test_linearisations_limit():
    from chorcheck.trace import SizeLimitError

    m = msc_of((A,) * 4, DECL)
    with pytest.raises(SizeLimitError):
        linearisations(m, limit=3)


def test_next_arrow_requires_noncommuting_choices():
    m = msc_of((A, B), DECL)
    with pytest.raises(CommutingChoicesError):
        next_arrow(m, (A, B))


def test_next_arrow_and_next_msc():
    m = msc_of((C, A), DECL)
    assert next_arrow(m, (A, C)) == C
    assert next_msc(m, (A, C)) == msc_of((A,), DECL)
    # A occurs but is blocked by the earlier non-commuting C
    assert next_arrow(m, (A,)) == A
    assert next_msc(m, (A,)) is None
    # no choice arrow occurs at all
    assert next_arrow(msc_of((B,), DECL), (A, C)) is None
    assert next_msc(msc_of((B,), DECL), (A, C)) is None


words = st.lists(st.sampled_from([A, B, C]), max_size=7).map(tuple)


@given(words)
def test_canonicalisation_is_idempotent(w):
    m = msc_of(w, DECL)
    assert msc_of(m.word, DECL) == m
    assert is_normal_form(m.word, DECL)


@given(words, st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_canonical_form_invariant_under_commuting_swaps(w, rnd):
    word = list(w)
    for _ in range(6):
        if len(word) < 2:
            break
        i = rnd.randrange(len(word) - 1)
        if commute(word[i], word[i + 1]):
            word[i], word[i + 1] = word[i + 1], word[i]
    assert msc_of(word, DECL) == msc_of(w, DECL)


@given(words)
@settings(max_examples=40)
def test_linearisations_share_one_trace(w):
    m = msc_of(w, DECL)
    if len(m) > 5:
        return
    lins = linearisations(m)
    assert tuple(w) in lins or msc_of(w, DECL).word in lins
    assert all(msc_of(v, DECL) == m for v in lins)


def _random_words(seed, count, max_len):
    """Seeded (word, declaration) pairs: 2-6 processes, at most 10 arrows."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        decl = random_declaration(rng, rng.randint(2, 6), rng.randint(1, 3),
                                  rng.randint(1, 10))
        for _ in range(20):
            n = rng.randint(0, max_len)
            out.append((tuple(rng.choice(decl.arrows) for _ in range(n)), decl))
    return out


def test_normal_form_is_least_linearisation_differential():
    cases = _random_words(seed=11, count=2400, max_len=7)
    for w, decl in cases:
        assert msc_of(w, decl).word == normal_form_oracle(w, decl), w


def test_next_msc_removes_a_first_arrow_differential():
    # next_msc(m, (a,)) is the trace of the rest of a linearisation of m
    # that starts with a, or None when no linearisation starts with a.
    for w, decl in _random_words(seed=12, count=400, max_len=6):
        m = msc_of(w, decl)
        lins = linearisations(m)
        for a in decl.arrows:
            tails = {msc_of(v[1:], decl) for v in lins if v[:1] == (a,)}
            assert len(tails) <= 1
            expected = tails.pop() if tails else None
            assert next_msc(m, (a,)) == expected, (m, a)
