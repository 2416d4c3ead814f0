import itertools

import pytest

from chorcheck import oracle
from chorcheck.automata import Nfa
from chorcheck.gtype import determinise_gt
from chorcheck.oracle import (bounded_existential, count_profile_check,
                              enumerate_canonical, swap_closure_oracle,
                              xor_check)
from chorcheck.trace import (Arrow, Declaration, SizeLimitError, msc_of)

M1 = Arrow("p", "q", "m1")
M2 = Arrow("r", "s", "m2")
M3 = Arrow("p", "q", "m3")


def decl(*arrows):
    procs = tuple(dict.fromkeys(x for a in arrows for x in (a.sender, a.receiver)))
    msgs = tuple(dict.fromkeys(a.message for a in arrows))
    return Declaration(procs, msgs, arrows)


def test_enumerate_one_arrow():
    assert len(enumerate_canonical(decl(M1), 2)) == 3  # eps, a, aa


def test_enumerate_two_commuting():
    # ab = ba counted once: eps, a, b, aa, ab, bb
    assert len(enumerate_canonical(decl(M1, M2), 2)) == 6


def test_enumerate_two_noncommuting():
    assert len(enumerate_canonical(decl(M1, M3), 2)) == 7


def test_enumerate_limits():
    d = decl(M1)
    with pytest.raises(SizeLimitError):
        enumerate_canonical(d, 9)
    with pytest.raises(SizeLimitError):
        enumerate_canonical(d, 3, memory_guard=2)


def test_enumerate_agrees_with_word_canonicalisation():
    # independent route: canonicalise every word, dedupe
    for arrows in itertools.combinations((M1, M2, M3), 2):
        d = decl(*arrows)
        brute = {msc_of(w, d)
                 for n in range(5)
                 for w in itertools.product(d.arrows, repeat=n)}
        assert enumerate_canonical(d, 4) == brute


def test_bounded_existential_g_sd(g_sd, gsd_arrows):
    a1, a2, _, a3, _ = gsd_arrows
    d = g_sd.declaration
    assert bounded_existential(g_sd, 6) == {msc_of((a1, a3), d),
                                            msc_of((a2,), d)}


def test_bounded_existential_empty_language(g0):
    dead = g0.with_automaton(Nfa(g0.declaration.arrows, 1, frozenset({0}),
                                 frozenset(), frozenset()))
    assert bounded_existential(dead, 4) == set()


def test_bounded_existential_g0_contains_mixed_word(g0):
    assert msc_of((M1, M2, M3), g0.declaration) in bounded_existential(g0, 3)


def test_bounded_existential_determinisation_invariant(fixture_suite):
    for g in fixture_suite.values():
        assert bounded_existential(g, 4) == bounded_existential(determinise_gt(g), 4)


def test_bounded_existential_swap_closed_for_cc_fixtures(fixture_suite):
    from chorcheck.gtype import is_commutation_closed
    from chorcheck.trace import commute

    for g in fixture_suite.values():
        if not is_commutation_closed(g)[0]:
            continue
        lang = bounded_existential(g, 4)
        # canonical traces are swap-stable by construction; the real content
        # is that every swapped linearisation canonicalises into the set
        for m in lang:
            for i in range(len(m.word) - 1):
                if commute(m.word[i], m.word[i + 1]):
                    w = m.word[:i] + (m.word[i + 1], m.word[i]) + m.word[i + 2:]
                    assert msc_of(w, g.declaration) in lang


def test_xor_check_self_fails(single):
    universe, violations = xor_check(single, single, 2)
    assert universe == 3
    assert len(violations) == 3  # every MSC is in both or neither


def test_count_profile_branch(branch):
    report = count_profile_check(branch.automaton, branch.declaration,
                                 lambda k1, k2, k3: k1 > k2, 8)
    assert report.passed
    assert report.profile_words > 0


def test_count_profile_word_budget(branch, monkeypatch):
    def check():
        return count_profile_check(branch.automaton, branch.declaration,
                                   lambda k1, k2, k3: k1 > k2, 8)

    full = check()
    monkeypatch.setattr(oracle, "DEFAULT_MEMORY_GUARD", full.checked_words)
    assert check() == full
    monkeypatch.setattr(oracle, "DEFAULT_MEMORY_GUARD", full.checked_words - 1)
    with pytest.raises(SizeLimitError, match="exceeds the guard"):
        check()


def test_count_profile_g0_trivial(g0):
    report = count_profile_check(g0.automaton, g0.declaration,
                                 lambda *k: True, 6)
    assert report.passed


def test_count_profile_violation_witness():
    d = decl(M1, M2, M3)
    # m1* m2* m3* as an automaton; the word m2 alone violates k1 > k2
    nfa = Nfa(d.arrows, 3, frozenset({0}),
              frozenset({(0, M1, 0), (0, M2, 1), (1, M2, 1), (0, M3, 2),
                         (1, M3, 2), (2, M3, 2)}),
              frozenset({0, 1, 2}))
    report = count_profile_check(nfa, d, lambda k1, k2, k3: k1 > k2, 4,
                                 arrows=(M1, M2, M3))
    assert not report.passed
    assert ((M2,), (0, 1, 0)) in report.violations


def test_count_profile_needs_three_arrows(real):
    with pytest.raises(ValueError):
        count_profile_check(real.automaton, real.declaration, lambda *k: True, 3)


def test_swap_closure_oracle(g0, branch):
    assert swap_closure_oracle(g0, 5) == (True, None)
    ok, (w, swapped) = swap_closure_oracle(branch, 5)
    assert not ok
    assert branch.accepts(w) and not branch.accepts(swapped)
