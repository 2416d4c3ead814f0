import random

import pytest

from chorcheck import automata, realisability, semantics
from chorcheck.cli import main
from chorcheck.complement import (NoComplementMethodError, complement_auto,
                                  complement_cartesian)
from chorcheck.gtype import (DeclarationMismatchError, member_existential,
                             project, sync_product)
from chorcheck.oracle import (bounded_existential, cross_model_property_test,
                              linearisations_p2p, member_existential_oracle)
from chorcheck.randomgen import (random_commutation_deterministic,
                                 random_declaration, random_global_type)
from chorcheck.realisability import (Status, check_p2p_realisable,
                                     check_sync_realisable)
from chorcheck.semantics import Execution, msc_of_execution, p2p_explore, p2p_mscs
from chorcheck.trace import msc_of

from conftest import FIXTURE_DIR, lower_inclusion


def gbar(g):
    return complement_auto(g).gtype


def test_real_is_synch_realisable(real):
    v = check_sync_realisable(real, gbar(real))
    assert v.realisable
    assert v.cc_holds and v.deadlock_free
    assert lower_inclusion(real)


def test_nonreal_fails_cc_with_witness(nonreal):
    v = check_sync_realisable(nonreal, gbar(nonreal))
    assert not v.cc_holds
    assert v.deadlock_free is None
    assert lower_inclusion(nonreal)
    # witness word is produced by the projected system but outside L_ex(G)
    m = msc_of(v.cc_witness, nonreal.declaration)
    assert not member_existential(nonreal, m)
    assert not member_existential_oracle(nonreal, m)
    assert sync_product(project(nonreal)).accepts(v.cc_witness)


def test_deadlock_fails_only_deadlock_clause(deadlock):
    v = check_sync_realisable(deadlock, gbar(deadlock))
    assert v.cc_holds
    assert v.deadlock_free is False
    # the product has two stuck states, (1,1,2,2) and (2,2,1,1): the witness
    # names the first in state order
    assert v.deadlock_witness == "(1,1,2,2)"
    assert lower_inclusion(deadlock)
    assert not v.realisable


def test_sanity_inclusion_all_fixtures(fixture_suite):
    # on the fixtures and on seeded deterministic, nondeterministic and
    # commutation-deterministic types
    types = list(fixture_suite.values())
    for seed in range(40):
        rng = random.Random(seed)
        decl = random_declaration(rng, rng.randint(2, 4), 2, rng.randint(2, 4))
        types.append(random_global_type(rng, decl, rng.randint(2, 4),
                                        deterministic=seed % 2 == 0))
        types.append(random_commutation_deterministic(rng, max_states=4))
    for g in types:
        assert lower_inclusion(g), g.name


@pytest.fixture
def projected(monkeypatch):
    """The types that `realisability` projects from now on."""
    types = []

    def counting_project(g):
        types.append(g)
        return project(g)

    monkeypatch.setattr(realisability, "project", counting_project)
    return types


def test_declaration_mismatch(real, g0, projected):
    for check in (check_sync_realisable, check_p2p_realisable):
        with pytest.raises(DeclarationMismatchError):
            check(real, g0)
    assert projected == []  # raised ahead of any projection


def test_p2p_verdict_projects_once(real, projected):
    v = check_p2p_realisable(real, gbar(real), bound=2)
    assert v.overall is Status.HOLDS
    assert projected == [real]


def test_accept_completion_is_prefix_closure(real):
    # the accept-completion of g is g's automaton closed under prefixes
    comp = real.with_automaton(automata.prefix_closure(real.automaton))
    lang = bounded_existential(comp, 4)
    full = bounded_existential(real, 4)
    for m in full:
        for k in range(len(m.word) + 1):
            assert msc_of(m.word[:k], real.declaration) in lang


def msc_prefixes(m):
    """Brute force: the MSCs of every prefix of every linearisation of m."""
    return {msc_of_execution(Execution(lin.events[:k]))
            for lin in linearisations_p2p(m) for k in range(len(m) + 1)}


def test_membership_in_explored_mscs_matches_prefix_search():
    # the explored MSC set is prefix closed, so membership in it agrees with
    # the all-pairs prefix search.  h ranges over unrelated types on g's
    # declaration, so both answers occur.
    outcomes = set()
    for seed in range(40):
        rng = random.Random(seed)
        decl = random_declaration(rng, 3, 2, 4)
        det, bound = seed % 2 == 0, 1 + seed % 4 // 2
        g = random_global_type(rng, decl, 3, deterministic=det)
        h = random_global_type(rng, decl, 3, deterministic=det)
        mscs_g, _, _ = p2p_mscs(p2p_explore(project(g), bound), 5)
        mscs_h, _, _ = p2p_mscs(p2p_explore(project(h), bound), 5)
        prefixes_g = set().union(*map(msc_prefixes, mscs_g))
        explored_g = set(mscs_g)
        for m in mscs_h:
            inside = m in explored_g
            assert inside == (m in prefixes_g), (seed, str(m))
            outcomes.add(inside)
    assert outcomes == {True, False}


def test_completion_mscs_are_explored_mscs_of_g():
    # condition 3 is read off g's exploration alone: every bounded MSC of the
    # accept-completion is one of g's, and cutting the completion's
    # exploration short means g's was cut short too
    trimmed = 0
    for seed in range(36):
        rng = random.Random(seed)
        kind = seed % 3
        if kind == 0:
            g = random_commutation_deterministic(rng, max_states=4, max_arrows=3)
        else:
            decl = random_declaration(rng, 3, 2, 4)
            g = random_global_type(rng, decl, 4, deterministic=kind == 1)
        completion = g.with_automaton(automata.prefix_closure(g.automaton))
        trimmed += completion.automaton.n_states < g.automaton.n_states
        bound, budget = 1 + seed % 3, 5 + seed % 2
        mscs_g, hit_g, _ = p2p_mscs(p2p_explore(project(g), bound), budget)
        mscs_c, hit_c, _ = p2p_mscs(p2p_explore(project(completion), bound), budget)
        assert set(mscs_c) <= set(mscs_g), seed
        assert hit_g or not hit_c, seed
    assert trimmed


def test_p2p_verdicts_build_no_execution(fixture_suite, capsys, monkeypatch):
    # the p2p verdict and `simulate` read MSCs only: with executions and
    # events made unbuildable, both give the same answers as before
    def refuse(*args, **kwargs):
        raise AssertionError("the verdict path built an execution")

    def answers():
        out = []
        for name, g in fixture_suite.items():
            if name in complements:
                out.append(check_p2p_realisable(g, complements[name], bound=2))
            code = main(["simulate", str(FIXTURE_DIR / f"{name}.gt"), "--json"])
            out.append((code, capsys.readouterr().out))
        return out

    # no procedure complements branch
    complements = {name: gbar(g) for name, g in fixture_suite.items() if name != "branch"}
    expected = answers()
    monkeypatch.setattr(semantics, "Execution", refuse)
    monkeypatch.setattr(semantics, "Event", refuse)
    assert answers() == expected


def test_p2p_real_holds(real):
    v = check_p2p_realisable(real, gbar(real), bound=2)
    assert v.overall is Status.HOLDS
    assert v.cond1_rsc.status is Status.HOLDS
    assert v.cond2_orphan_free.status is Status.HOLDS
    assert v.cond3_accept_completion.status is Status.HOLDS
    assert v.cond4_synch.status is Status.HOLDS


def test_p2p_cross_fails_rsc(cross):
    v = check_p2p_realisable(cross, gbar(cross), bound=2)
    assert v.cond1_rsc.status is Status.FAILS
    assert v.cond1_rsc.witness is not None
    assert v.overall is Status.FAILS


def test_p2p_deadlock_fails_synch_condition(deadlock):
    v = check_p2p_realisable(deadlock, gbar(deadlock), bound=2)
    assert v.cond4_synch.status is Status.FAILS
    assert v.overall is Status.FAILS


def test_p2p_unknown_when_bound_hit(single):
    # one-shot send explored with a tiny event budget: nothing fails but the
    # exploration is truncated, so the verdict must degrade to unknown
    v = check_p2p_realisable(single, gbar(single), bound=1, max_events=1)
    assert v.cond1_rsc.status is Status.UNKNOWN
    assert v.overall is Status.UNKNOWN


def test_p2p_rejects_bad_bound(real):
    with pytest.raises(ValueError):
        check_p2p_realisable(real, gbar(real), bound=0)


def test_cross_model_property(fixture_suite):
    pairs = []
    for g in fixture_suite.values():
        try:
            pairs.append((g, complement_auto(g).gtype))
        except NoComplementMethodError:
            pairs.append((g, complement_cartesian(g).gtype))
    rng = random.Random(31)
    for _ in range(5):
        g = random_commutation_deterministic(rng, max_states=3, max_arrows=3)
        pairs.append((g, complement_auto(g).gtype))
    report = cross_model_property_test(pairs, bound=2, max_events=6)
    assert report.passed
    assert report.checked == len(pairs)
