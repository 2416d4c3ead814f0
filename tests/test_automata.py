import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorcheck.automata import (AlphabetMismatchError, AutomatonError, Nfa,
                                access_word, all_accepting, complete,
                                determinise, distinguishing_word, dual,
                                includes, is_empty, minimise, prefix_closure,
                                product, reachable, trim, words)
from chorcheck.oracle import residual_dfa

AB = ("a", "b")


def nfa(transitions, accepting, n=None, initial=(0,), alphabet=AB):
    n = n if n is not None else 1 + max(
        max((s for s, _, _ in transitions), default=0),
        max((t for _, _, t in transitions), default=0),
        max(initial), max(accepting, default=0))
    return Nfa(alphabet, n, frozenset(initial), frozenset(transitions),
               frozenset(accepting))


def lang(a, max_len=5):
    return set(words(a, max_len))


def test_validation():
    with pytest.raises(AutomatonError):
        Nfa(AB, 1, frozenset({2}), frozenset(), frozenset())
    with pytest.raises(AutomatonError):
        Nfa(AB, 1, frozenset({0}), frozenset({(0, "c", 0)}), frozenset())


@pytest.mark.parametrize("args, names, message", [
    ((AB, 2, {2}, set(), set()), None, r"initial state 2 out of range"),
    ((AB, 2, {-1}, set(), set()), None, r"initial state -1 out of range"),
    ((AB, 2, {0}, set(), {2}), None, r"accepting state 2 out of range"),
    ((AB, 2, {0}, set(), {-1}), None, r"accepting state -1 out of range"),
    ((AB, 2, {0}, {(2, "a", 0)}, set()), None, r"transition \(2,a,0\) out of range"),
    ((AB, 2, {0}, {(-1, "a", 0)}, set()), None, r"transition \(-1,a,0\) out of range"),
    ((AB, 2, {0}, {(0, "a", 2)}, set()), None, r"transition \(0,a,2\) out of range"),
    ((AB, 2, {0}, {(0, "c", 1)}, set()), None, r"transition letter 'c' not in alphabet"),
    ((("a", "b", "a"), 2, {0}, set(), set()), None, r"duplicate letters in alphabet"),
    ((AB, 2, {0}, set(), set()), ("x",), r"names length does not match state count"),
    ((AB, 2, {0}, set(), set()), ("x", "y", "z"), r"names length does not match state count"),
], ids=["initial", "initial-negative", "accepting", "accepting-negative", "source",
        "source-negative", "target", "letter", "duplicate-letter", "names-short",
        "names-long"])
def test_validation_refuses_each_fault_with_its_message(args, names, message):
    alphabet, n, initial, transitions, accepting = args
    ok = [(0, "a", 1), (1, "b", 0)]  # valid transitions around the faulty one
    with pytest.raises(AutomatonError, match=f"^{message}$"):
        Nfa(alphabet, n, frozenset(initial), frozenset(transitions) | frozenset(ok),
            frozenset(accepting), names)


def test_none_is_not_a_letter():
    # no construction reads ε any more, so None is refused as a letter,
    # both on a transition and in the alphabet
    with pytest.raises(AutomatonError, match="not in alphabet"):
        Nfa(AB, 2, frozenset({0}), frozenset({(0, None, 1)}), frozenset({1}))
    with pytest.raises(AutomatonError, match="None is not a letter"):
        Nfa(AB + (None,), 2, frozenset({0}), frozenset({(0, None, 1)}), frozenset({1}))


def test_dfa_operations_refuse_a_nondeterministic_automaton():
    dfa_operations = (complete, dual, lambda d: access_word(d, 0),
                      lambda d: distinguishing_word(d, 0, 1))
    for a in (nfa({(0, "a", 0), (0, "a", 1)}, set()),     # two successors on a
              nfa(set(), set(), n=2, initial=(0, 1))):    # two initial states
        assert a.delta is None
        for operation in dfa_operations:
            with pytest.raises(AutomatonError, match="not deterministic"):
                operation(a)
        # minimise takes any automaton, and determinises it first
        assert minimise(a) == minimise(determinise(a))


def test_determinise_preserves_language():
    a = nfa({(0, "a", 0), (0, "a", 1), (1, "b", 2)}, {2})
    d = determinise(a)
    assert d.delta is not None and d.initial == {0}
    assert lang(d) == lang(a)
    assert d.accepts(("a", "a", "b"))


def test_complete_and_dual():
    d = Nfa(AB, 2, frozenset({0}), frozenset({(0, "a", 1)}), frozenset({1}))
    c = complete(d)
    assert len(c.delta) == c.n_states * len(AB)
    assert complete(c) is c
    assert lang(c) == lang(d)
    dd = dual(d)
    universe = lang(all_accepting(AB))
    assert lang(dd) == universe - lang(d)


def test_product_is_intersection():
    a = nfa({(0, "a", 0), (0, "b", 1), (1, "b", 1)}, {1})      # a* b+
    b = nfa({(0, "a", 1), (1, "b", 1)}, {1})                   # a b*
    assert lang(product(a, b)) == lang(a) & lang(b)
    with pytest.raises(AlphabetMismatchError):
        product(a, nfa({(0, "a", 0)}, {0}, alphabet=("a",)))


def test_product_with_empty_initial():
    dead = Nfa(AB, 1, frozenset(), frozenset(), frozenset())
    a = nfa({(0, "a", 0)}, {0})
    empty, witness = is_empty(product(a, dead))
    assert empty and witness is None


def test_is_empty_witness_is_shortest_then_lex():
    # accepts {ba, ab, b}; shortest is ("b",)
    a = nfa({(0, "b", 1), (1, "a", 2), (0, "a", 3), (3, "b", 2)}, {1, 2})
    assert is_empty(a) == (False, ("b",))
    # two witnesses of length 2: ab before ba in letter order
    b = nfa({(0, "b", 1), (1, "a", 3), (0, "a", 2), (2, "b", 3)}, {3})
    assert is_empty(b) == (False, ("a", "b"))


def test_includes():
    astar = nfa({(0, "a", 0)}, {0})
    aplus = nfa({(0, "a", 1), (1, "a", 1)}, {1})
    ok, _ = includes(astar, aplus)
    assert ok
    ok, witness = includes(aplus, astar)
    assert not ok and witness == ()


def test_trim_and_prefix_closure():
    a = nfa({(0, "a", 1), (0, "b", 2), (1, "a", 1)}, {1})  # state 2 is dead
    t = trim(a)
    assert t.n_states == 2
    p = prefix_closure(a)
    assert lang(p) == {(), ("a",), ("a", "a"), ("a", "a", "a"),
                       ("a", "a", "a", "a"), ("a", "a", "a", "a", "a")}
    empty = nfa({(0, "a", 1)}, set(), n=2)
    assert lang(prefix_closure(empty)) == set()


def test_minimise():
    # two equivalent accepting states collapse
    d = Nfa(AB, 3, frozenset({0}), frozenset({(0, "a", 1), (0, "b", 2),
                                              (1, "a", 1), (2, "a", 2)}),
            frozenset({1, 2}))
    m = minimise(d)
    assert lang(m) == lang(d)
    assert m.n_states < complete(d).n_states
    # canonical numbering: minimising twice yields the identical automaton
    assert minimise(m) == m


def test_determinise_of_a_dfa_keeps_its_reachable_states():
    # on a DFA the subset construction builds one singleton {s} for each
    # reachable state s of `a`, named after it, with a's transitions between them
    rng = random.Random(11)
    alphabet = ("a", "b", "c")
    for _ in range(200):
        n = rng.randint(1, 8)
        transitions = {(s, x, rng.randrange(n)) for s in range(n) for x in alphabet
                       if rng.random() < 0.6}
        names = tuple(f"q{rng.randrange(100)}_{s}" for s in range(n)) \
            if rng.random() < 0.5 else None
        a = Nfa(alphabet, n, frozenset({rng.randrange(n)}), frozenset(transitions),
                frozenset(s for s in range(n) if rng.random() < 0.4), names)
        d = determinise(a)
        by_name = {"{" + a.state_name(s) + "}": s for s in range(n)}
        state = [by_name[name] for name in d.names]  # d's state i is a's state[i]
        keep = reachable(a)
        assert sorted(state) == sorted(keep)
        assert {state[i] for i in d.initial} == a.initial
        assert {(state[i], x, state[j]) for i, x, j in d.transitions} == \
            {(s, x, t) for s, x, t in a.transitions if s in keep}
        assert {state[i] for i in d.accepting} == a.accepting & keep
        assert lang(d, 4) == lang(a, 4)


def _renumbered(a, rng):
    """`a` with its states numbered in a random order."""
    order = list(range(a.n_states))
    rng.shuffle(order)
    return Nfa(a.alphabet, a.n_states, frozenset(order[s] for s in a.initial),
               frozenset((order[s], x, order[t]) for s, x, t in a.transitions),
               frozenset(order[s] for s in a.accepting))


def _minimise_cases(rng):
    """Automata, each with a bound on the states of its minimal complete DFA."""
    abc = ("a", "b", "c")
    for _ in range(120):  # DFAs: complete or not, often with unreachable states
        n = rng.randint(1, 5)
        p = rng.choice((1.0, 0.7))
        transitions = {(s, x, rng.randrange(n)) for s in range(n) for x in abc
                       if rng.random() < p}
        accepting = {s for s in range(n) if rng.random() < 0.5}
        yield Nfa(abc, n, frozenset({rng.randrange(n)}), transitions, accepting), n + 1
    for _ in range(100):  # NFAs with one, two or no initial states
        n = rng.randint(1, 3)
        transitions = {(rng.randrange(n), rng.choice(AB), rng.randrange(n))
                       for _ in range(rng.randint(2, 8))}
        initial = rng.sample(range(n), min(n, rng.choice((0, 1, 1, 2, 2))))
        accepting = {s for s in range(n) if rng.random() < 0.4}
        yield Nfa(AB, n, frozenset(initial), transitions, accepting), 2 ** n
    yield nfa(set(), set()), 1                                  # empty language
    yield nfa({(0, "a", 1), (1, "b", 0)}, set()), 1             # empty, not trim
    yield all_accepting(AB), 1                                  # universal
    yield nfa({(0, x, 1) for x in AB} | {(1, x, 0) for x in AB}, {0, 1}), 1  # universal


def test_minimise_matches_the_residual_reference():
    rng = random.Random(7)
    for a, bound in _minimise_cases(rng):
        m = minimise(a)
        reference = residual_dfa(a, bound)
        assert m.n_states == reference.n_states
        assert lang(m, 4) == lang(a, 4)
        # both number the classes breadth first from the initial one
        assert m == reference
        # the numbering does not depend on how the input numbers its states
        assert minimise(_renumbered(a, rng)) == m


def test_reachable():
    a = nfa({(0, "a", 1), (1, "b", 2), (3, "b", 0)}, {2}, n=5)
    assert reachable(a) == {0, 1, 2}


def test_access_and_distinguishing_words():
    # L = words over {a, b} whose number of a's is divisible by 3
    d = Nfa(AB, 3, frozenset({0}), frozenset((s, x, (s + 1) % 3 if x == "a" else s)
                                             for s in range(3) for x in AB),
            frozenset({0}))
    assert access_word(d, 0) == ()
    assert access_word(d, 2) == ("a", "a")
    assert distinguishing_word(d, 1, 2) == ("a",)
    assert distinguishing_word(d, 0, 1) == ()
    assert distinguishing_word(d, 2, 2) is None


def test_words_enumeration():
    a = nfa({(0, "a", 1)}, {0, 1})
    assert lang(a, 3) == {(), ("a",)}
    assert lang(a, 0) == {()}
    # a negative bound is refused rather than recursing without end
    with pytest.raises(ValueError, match="non-negative"):
        next(words(a, -1))
    # depth first, letters in alphabet order
    assert list(words(all_accepting(AB), 2)) == [
        (), ("a",), ("a", "a"), ("a", "b"), ("b",), ("b", "a"), ("b", "b")]
    # the search depth is not limited by Python's recursion limit
    loop = all_accepting(("a",))
    assert [len(w) for w in words(loop, 1500)] == list(range(1501))


letters = st.sampled_from(AB)
random_nfas = st.builds(
    lambda trs, acc: nfa(set(trs) or {(0, "a", 0)}, set(acc) or {0}, n=4),
    st.lists(st.tuples(st.integers(0, 3), letters, st.integers(0, 3)), max_size=12),
    st.lists(st.integers(0, 3), max_size=4),
)


@given(random_nfas)
@settings(max_examples=60, deadline=None)
def test_determinise_dual_random(a):
    d = determinise(a)
    assert lang(d, 4) == lang(a, 4)
    universe = lang(all_accepting(AB), 4)
    assert lang(dual(d), 4) == universe - lang(a, 4)


@given(random_nfas, random_nfas)
@settings(max_examples=40, deadline=None)
def test_includes_agrees_with_enumeration(a, b):
    ok, witness = includes(a, b)
    brute = lang(b, 4) <= lang(a, 4)
    if ok:
        assert brute
    else:
        assert b.accepts(witness) and not a.accepts(witness)
