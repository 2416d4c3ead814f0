import contextlib
import random

import pytest

from chorcheck.automata import Nfa
from chorcheck.complement import (NoComplementMethodError, complement_auto,
                                  complement_cartesian, complement_dual,
                                  complement_renunciation,
                                  renunciation_automaton,
                                  renunciation_unpruned_state_count,
                                  verify_complement)
from chorcheck.gtype import (ClassificationError, DeclarationMismatchError,
                             GlobalType, is_commutation_closed, member_existential)
from chorcheck.oracle import bounded_existential, enumerate_canonical, xor_check
from chorcheck.randomgen import (random_commutation_deterministic, random_declaration,
                                 random_global_type, random_three_process_deterministic)
from chorcheck.trace import Declaration, msc_of


def test_renunciation_g_sd_membership(g_sd, gsd_arrows):
    a1, a2, a2p, a3, a4 = gsd_arrows
    r = complement_renunciation(g_sd)
    assert not r.accepts((a2,))
    assert not r.accepts((a1, a3))
    assert not r.accepts((a3, a1))
    assert r.accepts((a1, a2p, a3))
    assert not r.accepts((a3, a1, a2p))


def test_renunciation_requires_cd(g0):
    with pytest.raises(ClassificationError):
        renunciation_automaton(g0)


def test_renunciation_state_name_s_acc(g_sd):
    r = complement_renunciation(g_sd)
    names = {r.automaton.state_name(s) for s in range(r.automaton.n_states)}
    assert "s_acc" in names


def test_renunciation_size_bound(g_sd):
    n = g_sd.automaton.n_states
    arrows = len(g_sd.declaration.arrows)
    assert renunciation_unpruned_state_count(g_sd) <= 2 * n * (1 + arrows) + 1
    pruned = complement_renunciation(g_sd)
    assert pruned.automaton.n_states <= renunciation_unpruned_state_count(g_sd)


def test_renunciation_is_not_commutation_closed(g_sd):
    assert not is_commutation_closed(complement_renunciation(g_sd))[0]


def test_renunciation_xor_g_sd(g_sd):
    r = complement_renunciation(g_sd)
    report = verify_complement(g_sd, r, 5)
    assert report.passed
    # the two protocol MSCs are exactly what the complement misses
    universe = enumerate_canonical(g_sd.declaration, 3)
    in_g = bounded_existential(g_sd, 3)
    for m in universe:
        assert member_existential(r, m) == (m not in in_g)


def test_dual_complement_g0(g0):
    comp = complement_dual(g0)
    assert verify_complement(g0, comp, 6).passed


def test_dual_complement_gating(g_sd, branch):
    # 4 participants and not commutation-closed
    for g in (g_sd, branch):
        with pytest.raises(ClassificationError):
            complement_dual(g)


def test_cartesian_complement_real(real):
    result = complement_cartesian(real)
    assert result.method == "cartesian"
    assert not result.guaranteed
    assert verify_complement(real, result.gtype, 6).passed


def test_cartesian_underapproximates(cross):
    # exact here because cross is synch-realisable
    result = complement_cartesian(cross)
    assert verify_complement(cross, result.gtype, 5).passed


def test_auto_selects_dual_for_closed(g0):
    result = complement_auto(g0)
    assert result.method == "dual" and result.guaranteed


def test_auto_selects_renunciation_for_cd(g_sd):
    result = complement_auto(g_sd)
    assert result.method == "renunciation" and result.guaranteed


def test_auto_gives_up_on_branch(branch):
    # the accepting-branch fixture has no applicable procedure and the
    # Cartesian candidate fails its self-check
    with pytest.raises(NoComplementMethodError):
        complement_auto(branch)


def test_verify_complement_declaration_mismatch(g0, real):
    with pytest.raises(DeclarationMismatchError):
        verify_complement(g0, real, 3)


def test_verify_complement_reports_violations(g0):
    report = verify_complement(g0, g0, 3)
    assert not report.passed
    kinds = {kind for _, kind in report.violations}
    assert kinds == {"both", "neither"}
    empty = msc_of((), g0.declaration)
    assert (empty, "both") in report.violations


def test_random_renunciation_complements():
    rng = random.Random(17)
    for _ in range(8):
        g = random_commutation_deterministic(rng, max_states=4, max_arrows=3)
        r = complement_renunciation(g)
        assert verify_complement(g, r, 5).passed
        n = g.automaton.n_states
        assert (renunciation_unpruned_state_count(g)
                <= 2 * n * (1 + len(g.declaration.arrows)) + 1)


def _reversed_declaration(g):
    """g with its processes and messages declared in reverse order, so that
    the declaration order of its arrows differs from Arrow's own order."""
    d = g.declaration
    decl = Declaration(d.processes[::-1], d.messages[::-1], d.arrows)
    a = g.automaton
    return GlobalType(decl, Nfa(decl.arrows, a.n_states, a.initial, a.transitions,
                                a.accepting), g.name)


def test_verify_complement_matches_xor_check():
    # complement-law types (commutation-deterministic and 3-process
    # deterministic) and a nondeterministic type, each in both declaration
    # orders, against its complement, its Cartesian candidate and itself
    rng = random.Random(23)
    types = [random_commutation_deterministic(rng, max_states=4, max_arrows=4),
             random_three_process_deterministic(rng)]
    decl = random_declaration(rng, 4, 2, 3)
    types.append(random_global_type(rng, decl, 3, deterministic=False))
    kinds = set()
    for g in types + [_reversed_declaration(g) for g in types]:
        candidates = [g, complement_cartesian(g).gtype]
        with contextlib.suppress(NoComplementMethodError):
            candidates.append(complement_auto(g).gtype)
        for gbar in candidates:
            for n in range(7):
                report = verify_complement(g, gbar, n)
                universe_size, violations = xor_check(g, gbar, n)
                assert report.universe_size == universe_size
                assert ([(m.word, kind) for m, kind in report.violations]
                        == [(m.word, kind) for m, kind in violations]), (g, gbar, n)
                kinds.update(kind for _, kind in violations)
    assert kinds == {"both", "neither"}
