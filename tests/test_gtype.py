import itertools
import random

import pytest

from chorcheck import automata, gtype, trace
from chorcheck.automata import Nfa
from chorcheck.gtype import (ClassificationError, DeclarationMismatchError,
                             GlobalType, choices, classify, determinise_gt,
                             dual_gt, gt_product, is_commutation_closed,
                             is_commutation_deterministic, is_deterministic,
                             is_sender_driven, member_existential,
                             member_existential_via_next, member_universal,
                             participant_count, project, sync_product)
from chorcheck.oracle import (bounded_existential, enumerate_canonical,
                              in_projection, member_existential_oracle,
                              member_universal_oracle, swap_closure_oracle)
from chorcheck.randomgen import (random_commutation_deterministic,
                                 random_declaration, random_global_type)
from chorcheck.trace import Arrow, Declaration, DeclarationError, commute, msc_of


def test_alphabet_must_match_declaration():
    decl = Declaration(("p", "q"), ("m",), (Arrow("p", "q", "m"),))
    bad = Nfa(("x",), 1, frozenset({0}), frozenset(), frozenset())
    with pytest.raises(DeclarationError):
        GlobalType(decl, bad)


def test_classify_g_sd(g_sd):
    c = classify(g_sd)
    assert c.deterministic
    assert c.sender_driven
    assert c.commutation_deterministic
    assert not c.commutation_closed
    assert c.participant_count == 4


def test_classify_g0(g0):
    c = classify(g0)
    assert c.deterministic
    assert c.commutation_closed
    assert not c.sender_driven         # q0 offers both p and r sends
    assert not c.commutation_deterministic
    assert c.participant_count == 4


def test_choices(g_sd, gsd_arrows):
    a1, a2, _, a3, _ = gsd_arrows
    assert choices(g_sd, 0) == {a1, a2}
    assert choices(g_sd, 1) == {a3}
    assert choices(g_sd, 3) == frozenset()
    with pytest.raises(ValueError):
        choices(g_sd, 99)


def test_choice_predicates_agree_with_choices():
    rng = random.Random(11)
    for i in range(200):
        decl = random_declaration(rng, rng.randint(3, 4), 2, rng.randint(3, 5))
        g = random_global_type(rng, decl, rng.randint(1, 4),
                               deterministic=i % 4 != 0,
                               density=rng.choice((0.3, 0.6, 0.9)))
        per_state = [choices(g, s) for s in range(g.automaton.n_states)]
        assert is_sender_driven(g) == (is_deterministic(g) and all(
            len({a.sender for a in cs}) <= 1 for cs in per_state)), i
        assert is_commutation_deterministic(g) == (is_deterministic(g) and not any(
            commute(a, b) for cs in per_state
            for a, b in itertools.combinations(cs, 2))), i


def test_nondeterministic_not_sender_driven(cross):
    # cross is deterministic; a two-initial variant is not
    a = cross.automaton
    nd = cross.with_automaton(Nfa(a.alphabet, a.n_states, frozenset({0, 1}),
                                  a.transitions, a.accepting))
    assert not is_deterministic(nd)
    assert not is_sender_driven(nd)
    assert not is_commutation_deterministic(nd)


def test_participant_count_uses_arrow_alphabet():
    # a declared process that no arrow mentions does not count
    decl = Declaration(("p", "q", "r"), ("m",), (Arrow("p", "q", "m"),))
    g = GlobalType(decl, Nfa(decl.arrows, 1, frozenset({0}), frozenset(),
                             frozenset({0})))
    assert participant_count(g) == 2


def test_commutation_closure_witness(g0, branch):
    ok, witness = is_commutation_closed(g0)
    assert ok and witness is None
    ok, (orig, swapped) = is_commutation_closed(branch)
    assert not ok
    assert branch.accepts(orig)
    assert not branch.accepts(swapped)


def test_commutation_closure_agrees_with_oracle(fixture_suite):
    for g in fixture_suite.values():
        assert is_commutation_closed(g)[0] == swap_closure_oracle(g, 6)[0]


def _is_one_commuting_swap(orig, swapped):
    diff = [i for i, (a, b) in enumerate(zip(orig, swapped)) if a != b]
    if len(orig) != len(swapped) or len(diff) != 2 or diff[1] != diff[0] + 1:
        return False
    i = diff[0]
    return (orig[i], orig[i + 1]) == (swapped[i + 1], swapped[i]) \
        and commute(orig[i], orig[i + 1])


def test_commutation_closure_differential_random():
    rng = random.Random(2026)
    open_det = open_nondet = 0
    for i in range(240):
        decl = random_declaration(rng, rng.randint(4, 5), rng.randint(1, 2),
                                  rng.randint(3, 4))
        deterministic = i % 2 == 0
        g = random_global_type(rng, decl, rng.randint(2, 3),
                               deterministic=deterministic,
                               density=rng.choice((0.3, 0.6, 0.9)))
        closed, witness = is_commutation_closed(g)
        assert closed == swap_closure_oracle(g, 6)[0], i
        if closed:
            assert witness is None
            continue
        orig, swapped = witness
        assert g.accepts(orig) and not g.accepts(swapped), i
        assert _is_one_commuting_swap(orig, swapped), i
        if deterministic:
            open_det += 1
        else:
            open_nondet += 1
    # both kinds of input must reach the failure branch often
    assert open_det >= 20 and open_nondet >= 20


def test_closure_check_on_the_given_dfa_matches_the_determinised_copy(fixture_suite,
                                                                    monkeypatch):
    # `is_commutation_closed` minimises g's automaton as it is; determinising
    # a DFA first must change neither the minimal DFA nor the verdict and
    # witness
    rng = random.Random(23)
    types = list(fixture_suite.values())
    for _ in range(60):
        decl = random_declaration(rng, rng.randint(3, 5), rng.randint(1, 2),
                                  rng.randint(3, 5))
        g = random_global_type(rng, decl, rng.randint(2, 6),
                               density=rng.choice((0.3, 0.6, 0.9)))
        types += [g, sync_product(project(g))]
    assert sum(is_deterministic(g) for g in types) >= 120
    given = [(automata.minimise(g.automaton), is_commutation_closed(g)) for g in types]
    minimise = automata.minimise
    monkeypatch.setattr(automata, "minimise", lambda a: minimise(automata.determinise(a)))
    copied = [(automata.minimise(g.automaton), is_commutation_closed(g)) for g in types]
    assert given == copied
    verdicts = [closed for _, (closed, _) in given]
    assert 20 <= sum(verdicts) <= len(verdicts) - 20  # both branches, often


def test_commutation_closure_six_process_abstraction():
    rng = random.Random(1)
    decl = random_declaration(rng, 6, 2, 12)
    g = random_global_type(rng, decl, 10)
    abstraction = sync_product(project(g))
    assert abstraction.automaton.n_states == 2129
    assert is_commutation_closed(abstraction) == (True, None)


def test_projection_g_sd_configurations(g_sd):
    # init, after a1, after a2, after a3, after {a1,a3}
    assert sync_product(project(g_sd)).automaton.n_states == 5


def test_projection_real_chain(real):
    system = project(real)
    p = system.cfsm("p").automaton
    assert p.n_states == 2 and len(p.transitions) == 1


def test_projection_agrees_with_oracle(fixture_suite):
    # every local word up to length 3 of every process: the CFSM accepts it
    # exactly when some word of L(g) projects onto it
    types = list(fixture_suite.values())
    for seed in range(20):
        rng = random.Random(seed)
        decl = random_declaration(rng, rng.randint(3, 4), 2, rng.randint(3, 4))
        types.append(random_global_type(rng, decl, rng.randint(2, 4),
                                        deterministic=seed % 2 == 0))
    verdicts = []
    for g in types:
        for cfsm in project(g).cfsms:
            a = cfsm.automaton
            for n in range(4):
                for word in itertools.product(a.alphabet, repeat=n):
                    verdicts.append(a.accepts(word))
                    assert verdicts[-1] == in_projection(g, cfsm.process, word), (
                        g.name, cfsm.process, word)
    assert True in verdicts and False in verdicts


def test_sync_product_counts(real, deadlock):
    assert sync_product(project(real)).automaton.n_states == 3
    assert sync_product(project(deadlock)).automaton.accepting


def test_sync_product_language(real):
    prod = sync_product(project(real))
    assert bounded_existential(prod, 4) == bounded_existential(real, 4)


def test_gt_product_mismatch(g0, real):
    with pytest.raises(DeclarationMismatchError):
        gt_product(g0, real)


def test_dual_gt_requires_determinism(cross):
    a = cross.automaton
    nd = cross.with_automaton(Nfa(a.alphabet, a.n_states, frozenset({0, 1}),
                                  a.transitions, a.accepting))
    with pytest.raises(ClassificationError):
        dual_gt(nd)


def test_membership_g_sd(g_sd, gsd_arrows):
    a1, a2, a2p, a3, a4 = gsd_arrows
    d = g_sd.declaration
    M1 = msc_of((a1, a3), d)
    M2 = msc_of((a2,), d)
    assert member_existential(g_sd, M1)
    assert member_existential(g_sd, M2)
    assert not member_existential(g_sd, msc_of((a1,), d))
    # a3 a1 is a linearisation of M1 outside L(g_sd)
    assert not member_universal(g_sd, M1)
    assert member_universal(g_sd, M2)
    assert not member_universal(g_sd, msc_of((a4,), d))


def test_membership_agrees_with_oracle(fixture_suite):
    for g in fixture_suite.values():
        for m in sorted(enumerate_canonical(g.declaration, 3),
                        key=lambda m: (len(m), m.word)):
            assert member_existential(g, m) == member_existential_oracle(g, m)
            assert member_universal(g, m) == member_universal_oracle(g, m)


@pytest.mark.parametrize("deterministic", [True, False])
def test_both_membership_modes_agree_with_oracles(deterministic):
    # every MSC of up to 4 events over 20 seeded types; the universal and
    # existential answers both differ on these inputs, so a quantifier or
    # state-set slip shows
    rng = random.Random(21 if deterministic else 22)
    differ = 0
    for _ in range(20):
        decl = random_declaration(rng, 4, 2, rng.randint(3, 5))
        g = random_global_type(rng, decl, rng.randint(2, 4),
                               deterministic=deterministic, density=0.7)
        for m in enumerate_canonical(decl, 4):
            some, every = member_existential(g, m), member_universal(g, m)
            assert some == member_existential_oracle(g, m), (g.automaton, m)
            assert every == member_universal_oracle(g, m), (g.automaton, m)
            differ += some != every
    assert differ


def test_long_membership_agrees_with_next_arrow_recursion():
    # words of up to 30 arrows, too long for the linearisation oracle: walks
    # of commutation-deterministic types, 30% with one arrow replaced
    rng = random.Random(9)
    accepted = 0
    for _ in range(400):
        g = random_commutation_deterministic(rng)
        delta, arrows = g.automaton.delta, g.declaration.arrows
        state, word = 0, []
        for _ in range(rng.randint(0, 30)):
            out = [x for x in arrows if (state, x) in delta]
            if not out:
                break
            word.append(rng.choice(out))
            state = delta[(state, word[-1])]
        if word and rng.random() < 0.3:
            word[rng.randrange(len(word))] = rng.choice(arrows)
        m = msc_of(word, g.declaration)
        member = member_existential(g, m)
        assert member == member_existential_via_next(g, m), (g.automaton, m)
        accepted += member
    assert 0 < accepted < 400


def test_membership_builds_no_automaton_and_no_msc(g_sd, gsd_arrows, monkeypatch):
    a1, a2, a2p, a3, a4 = gsd_arrows
    m = msc_of((a3, a1), g_sd.declaration)

    def built(*args, **kwargs):
        raise AssertionError("membership built an automaton or an MSC")

    for module, name in ((gtype, "next_msc"), (trace, "msc_of"),
                         (automata, "determinise"), (gtype, "determinise"),
                         (automata, "dual")):
        monkeypatch.setattr(module, name, built)
    assert member_existential(g_sd, m)
    assert not member_universal(g_sd, m)


def test_membership_via_next_requires_cd(g0):
    m = msc_of((), g0.declaration)
    with pytest.raises(ClassificationError):
        member_existential_via_next(g0, m)


def test_membership_via_next_agrees(g_sd, real, single):
    for g in (g_sd, real, single):
        assert is_commutation_deterministic(g)
        for m in enumerate_canonical(g.declaration, 3):
            assert member_existential_via_next(g, m) == member_existential(g, m)


def test_membership_random_cd_types():
    rng = random.Random(5)
    for _ in range(10):
        g = random_commutation_deterministic(rng, max_states=4, max_arrows=3)
        for m in enumerate_canonical(g.declaration, 3):
            assert member_existential_via_next(g, m) == member_existential(g, m)


def test_determinise_gt_preserves_bounded_language():
    rng = random.Random(3)
    decl = random_declaration(rng, 3, 2, 3)
    g = random_global_type(rng, decl, 3, deterministic=False)
    assert bounded_existential(determinise_gt(g), 4) == bounded_existential(g, 4)


@pytest.mark.parametrize("deterministic", [True, False])
def test_membership_random_types_agree_with_oracle(deterministic):
    rng = random.Random(7 if deterministic else 8)
    answers = set()
    for _ in range(10):
        decl = random_declaration(rng, rng.randint(3, 5), 2, rng.randint(2, 4))
        g = random_global_type(rng, decl, rng.randint(2, 4),
                               deterministic=deterministic, density=0.6)
        for m in enumerate_canonical(decl, 5):
            expected = member_existential_oracle(g, m)
            assert member_existential(g, m) == expected, (g.automaton, m)
            answers.add(expected)
    assert answers == {True, False}
