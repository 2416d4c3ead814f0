"""Acceptance gate: one test per criterion, fixture- and property-based.

Each test name carries its criterion number; `pytest -v` prints one
pass/fail line per criterion.
"""

import random

from chorcheck.automata import image, words
from chorcheck.complement import (NoComplementMethodError, complement_auto,
                                  complement_cartesian, complement_dual,
                                  complement_renunciation,
                                  renunciation_unpruned_state_count,
                                  verify_complement)
from chorcheck.gtype import (choices, gt_product, is_commutation_closed,
                             is_commutation_deterministic, member_existential,
                             member_existential_via_next, project,
                             sync_product)
from chorcheck.oracle import (bounded_existential, check_causal_closure,
                              count_profile_check, cross_model_property_test,
                              enumerate_canonical, is_p2p_execution,
                              is_p2p_execution_by_sequence, is_rsc_schedulable,
                              member_existential_oracle, swap_closure_oracle)
from chorcheck.randomgen import (random_commutation_closed,
                                 random_commutation_deterministic,
                                 random_declaration, random_global_type,
                                 random_three_process_deterministic)
from chorcheck.realisability import (Status, check_p2p_realisable,
                                     check_sync_realisable)
from chorcheck.semantics import Event, Execution
from chorcheck.trace import (Arrow, msc_of, next_arrow, next_msc, parse_arrow)

from conftest import GSD_ARROWS, all_fixtures, load_fixture, lower_inclusion


def word_of(text):
    return tuple(parse_arrow(part) for part in text.split())


def test_criterion_01_renunciation_facts():
    """Renunciation membership facts on the sender-driven fixture."""
    r = complement_renunciation(load_fixture("g_sd"))
    assert not r.accepts(word_of("p->q':m2"))
    assert not r.accepts(word_of("p->q:m1 r->q':m3"))
    assert not r.accepts(word_of("r->q':m3 p->q:m1"))
    assert r.accepts(word_of("p->q:m1 p->q':m2' r->q':m3"))
    assert not r.accepts(word_of("r->q':m3 p->q:m1 p->q':m2'"))


def test_criterion_02_bounded_complement_law():
    """verify_complement passes at 6 events for the three fixture pairs and
    25 random commutation-deterministic types with renunciation."""
    g_sd = load_fixture("g_sd")
    assert verify_complement(g_sd, complement_renunciation(g_sd), 6).passed
    g0 = load_fixture("g0")
    assert verify_complement(g0, complement_dual(g0), 6).passed
    real = load_fixture("real")
    assert verify_complement(real, complement_cartesian(real).gtype, 6).passed
    rng = random.Random(42)
    for _ in range(25):
        g = random_commutation_deterministic(rng, max_states=5, max_arrows=4)
        report = verify_complement(g, complement_renunciation(g), 6)
        assert report.passed, report.violations[:3]


def test_criterion_03_count_profile_and_erasure():
    """Count-profile characterisation of the non-complementable example."""
    branch = load_fixture("branch")
    report = count_profile_check(branch.automaton, branch.declaration,
                                 lambda k1, k2, k3: k1 > k2, 8)
    assert report.passed and report.profile_words > 0

    m1, m2, m3 = (Arrow("p", "q", "m1"), Arrow("r", "s", "m2"),
                  Arrow("p", "q", "m3"))
    alphabet = branch.declaration.arrows
    erased = image(branch.automaton, alphabet, lambda x: None if x == m2 else x)
    got = set(words(erased, 6))
    want = {(m1,) * i + (m3,) * j
            for i in range(1, 6) for j in range(1, 6) if i + j <= 6}
    assert got == want

    g0 = load_fixture("g0")
    lang = bounded_existential(g0, 6)
    blocks = set()
    for m in enumerate_canonical(g0.declaration, 6):
        counts = (m.word.count(m1), m.word.count(m2), m.word.count(m3))
        block = (m1,) * counts[0] + (m2,) * counts[1] + (m3,) * counts[2]
        if m == msc_of(block, g0.declaration):
            blocks.add(m)
    assert lang == blocks
    from chorcheck.trace import commute
    for m in lang:                              # swap closure of the language
        for i in range(len(m.word) - 1):
            if commute(m.word[i], m.word[i + 1]):
                w = m.word[:i] + (m.word[i + 1], m.word[i]) + m.word[i + 2:]
                assert msc_of(w, g0.declaration) in lang


def test_criterion_04_commutation_closure_vs_oracle():
    """Decision procedure agrees with the brute-force swap oracle."""
    for g in all_fixtures().values():
        assert is_commutation_closed(g)[0] == swap_closure_oracle(g, 6)[0], g.name
    renun = complement_renunciation(load_fixture("g_sd"))
    ok, witness = is_commutation_closed(renun)
    assert not ok and witness is not None
    assert not swap_closure_oracle(renun, 6)[0]
    # the quoted witness facts: a1 a2' a3 in, a3 a1 a2' out
    assert renun.accepts(word_of("p->q:m1 p->q':m2' r->q':m3"))
    assert not renun.accepts(word_of("r->q':m3 p->q:m1 p->q':m2'"))
    rng = random.Random(4)
    for _ in range(50):
        decl = random_declaration(rng, rng.randint(3, 5), 2, rng.randint(2, 4))
        g = random_global_type(rng, decl, 4, deterministic=rng.random() < 0.7)
        assert is_commutation_closed(g)[0] == swap_closure_oracle(g, 6)[0]


def test_criterion_05_three_participants_always_closed():
    """|P| <= 3 forces commutation closure; dual complement is exact."""
    rng = random.Random(5)
    for _ in range(50):
        g = random_three_process_deterministic(rng)
        assert is_commutation_closed(g)[0]
        assert verify_complement(g, complement_dual(g), 5).passed


def test_criterion_06_cartesian_abstraction_is_closed():
    """sync_product(project(G)) is always commutation-closed."""
    for g in all_fixtures().values():
        assert is_commutation_closed(sync_product(project(g)))[0], g.name
    rng = random.Random(6)
    for _ in range(25):
        decl = random_declaration(rng, rng.randint(3, 4), 2, rng.randint(2, 4))
        g = random_global_type(rng, decl, rng.randint(2, 4))
        assert is_commutation_closed(sync_product(project(g)))[0]


def test_criterion_07_product_language_is_intersection():
    """Bounded existential language of a product against a closed type."""
    rng = random.Random(7)
    for _ in range(20):
        decl = random_declaration(rng, rng.randint(3, 4), 2, rng.randint(2, 4))
        g = random_global_type(rng, decl, rng.randint(2, 4))
        g0 = random_commutation_closed(rng, decl)
        got = bounded_existential(gt_product(g, g0), 5)
        want = bounded_existential(g, 5) & bounded_existential(g0, 5)
        assert got == want


def test_criterion_08_next_arrow_recursion():
    """The next-arrow/next-MSC recursion decides existential membership."""
    g_sd = load_fixture("g_sd")
    a1, a2, a2p, a3, a4 = GSD_ARROWS
    d = g_sd.declaration
    cs = choices(g_sd, 0)
    M4 = msc_of((a1, a2, a3), d)
    assert next_arrow(M4, cs) == a1
    assert next_msc(M4, cs) == msc_of((a2, a3), d)
    M5 = msc_of((a4, a1, a2), d)
    assert next_msc(M5, cs) is None
    cd_fixtures = [g for g in all_fixtures().values()
                   if is_commutation_deterministic(g)]
    assert len(cd_fixtures) >= 4
    for g in cd_fixtures:
        for m in enumerate_canonical(g.declaration, 5, memory_guard=10**5):
            assert (member_existential_via_next(g, m)
                    == member_existential(g, m)), (g.name, str(m))


def test_criterion_09_synchronous_checker():
    """Synchronous realisability verdicts on the three verdict fixtures."""
    real = load_fixture("real")
    v = check_sync_realisable(real, complement_auto(real).gtype)
    assert v.realisable and lower_inclusion(real)

    nonreal = load_fixture("nonreal")
    v = check_sync_realisable(nonreal, complement_auto(nonreal).gtype)
    assert not v.cc_holds and lower_inclusion(nonreal)
    m = msc_of(v.cc_witness, nonreal.declaration)
    assert not member_existential_oracle(nonreal, m)

    dl = load_fixture("deadlock")
    v = check_sync_realisable(dl, complement_auto(dl).gtype)
    assert v.cc_holds and v.deadlock_free is False
    assert lower_inclusion(dl)

    for g in all_fixtures().values():
        assert lower_inclusion(g), g.name


def test_criterion_10_p2p_pipeline():
    """Four-condition p2p check and the p2p => synch implication."""
    real = load_fixture("real")
    v = check_p2p_realisable(real, complement_auto(real).gtype, bound=2)
    assert v.overall is Status.HOLDS

    cross = load_fixture("cross")
    v = check_p2p_realisable(cross, complement_auto(cross).gtype, bound=2)
    assert v.cond1_rsc.status is Status.FAILS
    assert not is_rsc_schedulable(v.cond1_rsc.witness)[0]

    pairs = []
    for g in all_fixtures().values():
        try:
            pairs.append((g, complement_auto(g).gtype))
        except NoComplementMethodError:
            pairs.append((g, complement_cartesian(g).gtype))
    rng = random.Random(10)
    for _ in range(25):
        g = random_commutation_deterministic(rng, max_states=4, max_arrows=3)
        pairs.append((g, complement_renunciation(g)))
    report = cross_model_property_test(pairs, bound=2, max_events=6)
    assert report.passed and report.checked == len(pairs)


def test_criterion_11_appendix_lemmas():
    """Causal closure of explored p2p MSCs; agreement of the two FIFO
    validity definitions."""
    for g in all_fixtures().values():
        report = check_causal_closure(project(g), 2, 8)
        assert report.passed, g.name

    rng = random.Random(11)
    procs = ["p", "q", "x"]
    agree = valid = 0
    for _ in range(200):
        events, sends = [], []
        for _ in range(rng.randint(1, 7)):
            if sends and rng.random() < 0.5:
                j = rng.choice(sends)
                ev = events[j]
                events.append(Event(False, ev.sender, ev.receiver, ev.message,
                                    match=j))
                sends.remove(j)
            else:
                a, b = rng.sample(procs, 2)
                events.append(Event(True, a, b, rng.choice("mn")))
                sends.append(len(events) - 1)
        e = Execution(tuple(events))
        assert is_p2p_execution(e) == is_p2p_execution_by_sequence(e)
        agree += 1
        valid += is_p2p_execution(e)
    assert agree == 200 and 0 < valid < 200


def test_criterion_12_renunciation_size_bound():
    """Unpruned renunciation size is at most 2|S|(1+|Arrows|)+1."""
    instances = [load_fixture("g_sd")]
    rng = random.Random(12)
    for _ in range(25):
        instances.append(random_commutation_deterministic(rng))
    for g in instances:
        n = g.automaton.n_states
        bound = 2 * n * (1 + len(g.declaration.arrows)) + 1
        assert renunciation_unpruned_state_count(g) <= bound
        assert complement_renunciation(g).automaton.n_states <= bound
