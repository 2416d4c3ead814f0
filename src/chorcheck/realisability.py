"""Deadlock-free realisability: exact in the synchronous model, bounded
semi-decision in the p2p model via the four-condition reduction."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import automata
from .gtype import (DeclarationMismatchError, GlobalType, project, sync_product)
from .semantics import is_rsc_schedulable, p2p_explore, p2p_mscs


@dataclass(frozen=True)
class SynchVerdict:
    cc_holds: bool
    cc_witness: tuple | None
    deadlock_free: bool | None        # None when CC already fails
    deadlock_witness: str | None
    sanity_lower_inclusion: bool

    @property
    def realisable(self) -> bool:
        return self.cc_holds and bool(self.deadlock_free)


def check_sync_realisable(g: GlobalType, gbar: GlobalType) -> SynchVerdict:
    """Exact synchronous realisability, given a complement of g.

    Condition (CC) reduces to emptiness of L(product(projection) ⊗ gbar);
    deadlock freedom to co-reachability of accepting states in the product.
    """
    if g.declaration != gbar.declaration:
        raise DeclarationMismatchError("realisability check requires one declaration")
    prod = sync_product(project(g))
    empty, witness = automata.is_empty(
        automata.product(prod.automaton, gbar.automaton))
    sanity, _ = automata.includes(prod.automaton, g.automaton)
    if not empty:
        return SynchVerdict(False, witness, None, None, sanity)
    deadlock_free, dl_witness = _all_coaccessible(prod.automaton)
    return SynchVerdict(True, None, deadlock_free, dl_witness, sanity)


def _all_coaccessible(nfa) -> tuple[bool, str | None]:
    nfa = automata.eps_eliminate(nfa)
    reach = automata.reachable(nfa)
    coacc = set(automata._distances_to_accepting(nfa))
    stuck = sorted(reach - coacc)
    if stuck:
        return False, nfa.state_name(stuck[0])
    return True, None


def accept_completion(g: GlobalType) -> GlobalType:
    """Prefix-accepting variant: trim, then mark every state accepting."""
    return g.with_automaton(automata.prefix_closure(g.automaton),
                            f"accept-completion({g.name})" if g.name else "")


class Status(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Condition:
    status: Status
    witness: object = None


@dataclass(frozen=True)
class P2pVerdict:
    cond1_rsc: Condition
    cond2_orphan_free: Condition
    cond3_accept_completion: Condition
    cond4_synch: Condition
    synch: SynchVerdict

    @property
    def overall(self) -> Status:
        conds = (self.cond1_rsc, self.cond2_orphan_free,
                 self.cond3_accept_completion, self.cond4_synch)
        if any(c.status is Status.FAILS for c in conds):
            return Status.FAILS
        if any(c.status is Status.UNKNOWN for c in conds):
            return Status.UNKNOWN
        return Status.HOLDS


def check_p2p_realisable(g: GlobalType, gbar: GlobalType, bound: int = 2,
                         max_events: int = 8) -> P2pVerdict:
    """The four-condition reduction to synchronous realisability.

    Conditions 1-3 are checked by bounded-channel exploration and may come
    back `unknown` when the bound was hit; condition 4 is exact.

    Condition 3 asks that each completion MSC be a prefix of an MSC of g,
    which within one bound and budget is membership in g's explored set: it
    holds every bounded execution's MSC, prefixes included, and a completion
    execution whose MSC is such a prefix follows, per process, a run of g's
    deterministic CFSMs with the same channel contents, so it is one of g's.
    """
    # first, so that a declaration mismatch is raised before any exploration
    synch = check_sync_realisable(g, gbar)
    system = project(g)
    mscs, bound_hit = p2p_mscs(system, bound, max_events)

    cond1 = Condition(Status.UNKNOWN if bound_hit else Status.HOLDS)
    for m in mscs:
        ok, _ = is_rsc_schedulable(m)
        if not ok:
            cond1 = Condition(Status.FAILS, m)
            break

    report = p2p_explore(system, bound)
    if report.orphans:
        cond2 = Condition(Status.FAILS, report.orphans[0])
    else:
        cond2 = Condition(Status.UNKNOWN if report.bound_hit else Status.HOLDS)

    completed = project(accept_completion(g))
    comp_mscs, comp_bound_hit = p2p_mscs(completed, bound, max_events)
    cond3 = Condition(Status.UNKNOWN if (bound_hit or comp_bound_hit) else Status.HOLDS)
    for m in comp_mscs:
        if m not in mscs:
            cond3 = Condition(Status.FAILS, m)
            break

    if synch.realisable:
        cond4 = Condition(Status.HOLDS)
    elif not synch.cc_holds:
        cond4 = Condition(Status.FAILS, synch.cc_witness)
    else:
        cond4 = Condition(Status.FAILS, synch.deadlock_witness)

    return P2pVerdict(cond1, cond2, cond3, cond4, synch)


@dataclass
class CrossModelReport:
    checked: int
    p2p_realisable: int
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations


def cross_model_property_test(pairs, bound: int = 2,
                              max_events: int = 6) -> CrossModelReport:
    """p2p-realisable (all four conditions hold) must imply synch-realisable.

    `pairs` is an iterable of (global type, verified complement).
    """
    checked = confirmed = 0
    violations = []
    for g, gbar in pairs:
        checked += 1
        verdict = check_p2p_realisable(g, gbar, bound, max_events)
        if verdict.overall is Status.HOLDS:
            confirmed += 1
            if not verdict.synch.realisable:
                violations.append((g, verdict))
    return CrossModelReport(checked, confirmed, violations)
