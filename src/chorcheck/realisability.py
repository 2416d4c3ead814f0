"""Deadlock-free realisability: exact in the synchronous model, bounded
semi-decision in the p2p model via the four-condition reduction.

The p2p check builds the projected system's configuration graph once,
within a channel bound, and walks it for the MSCs within an event budget.
The brute-force counterparts it is tested against are in `oracle.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import automata
from .gtype import (DeclarationMismatchError, GlobalType, project, sync_product)
from .semantics import System, p2p_explore, p2p_mscs


@dataclass(frozen=True)
class SynchVerdict:
    cc_holds: bool
    cc_witness: tuple | None
    deadlock_free: bool | None        # None when CC already fails
    deadlock_witness: str | None

    @property
    def realisable(self) -> bool:
        return self.cc_holds and bool(self.deadlock_free)


def check_sync_realisable(g: GlobalType, gbar: GlobalType) -> SynchVerdict:
    """Exact synchronous realisability, given a complement of g.

    Condition (CC) reduces to emptiness of L(product(projection) ⊗ gbar);
    deadlock freedom to co-reachability of accepting states in the product.
    The other inclusion, L(g) ⊆ L(product), holds by construction of the
    projection and is left to the tests.
    """
    _same_declaration(g, gbar)
    return _sync_verdict(project(g), gbar)


def _same_declaration(g: GlobalType, gbar: GlobalType):
    if g.declaration != gbar.declaration:
        raise DeclarationMismatchError("realisability check requires one declaration")


def _sync_verdict(system: System, gbar: GlobalType) -> SynchVerdict:
    """The synchronous verdict of g, given its projection."""
    prod = sync_product(system)
    empty, witness = automata.is_empty(
        automata.product(prod.automaton, gbar.automaton))
    if not empty:
        return SynchVerdict(False, witness, None, None)
    deadlock_free, dl_witness = _all_coaccessible(prod.automaton)
    return SynchVerdict(True, None, deadlock_free, dl_witness)


def _all_coaccessible(nfa) -> tuple[bool, str | None]:
    # all states of a rendezvous product are reachable: the stuck states
    # are those that reach no accepting state
    coacc = automata._distances_to_accepting(nfa)
    stuck = [s for s in range(nfa.n_states) if s not in coacc]
    return (False, nfa.state_name(stuck[0])) if stuck else (True, None)


class Status(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Condition:
    status: Status
    # condition 1: a non-RSC MSC; 2: the path of local actions to an orphan;
    # 4: a CC arrow word or the name of a stuck product state
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

    Conditions 1-3 come from one bounded-channel configuration graph and
    read `unknown` when it was cut short; condition 4 is exact.  Condition 2
    reads the graph's orphans.  Condition 1 fails on the first non-RSC MSC
    that `p2p_mscs` found while it walked the graph within the event budget,
    deciding RSC-ness as it goes.

    Condition 3 asks that each MSC of g's accept-completion (g trimmed, with
    every state accepting) be a prefix of an MSC of g.  Within a bound and
    budget it cannot fail: completion executions are g's, with the same
    channel contents, so a send blocked or a step cut in the completion is
    blocked or cut in g too.
    """
    _same_declaration(g, gbar)
    system = project(g)
    synch = _sync_verdict(system, gbar)
    report = p2p_explore(system, bound)
    _, bound_hit, non_rsc = p2p_mscs(report, max_events)

    cond1 = cond3 = Condition(Status.UNKNOWN if bound_hit else Status.HOLDS)
    if non_rsc:
        cond1 = Condition(Status.FAILS, non_rsc[0])

    if report.orphans:
        cond2 = Condition(Status.FAILS, report.orphans[0][1])
    else:
        cond2 = Condition(Status.UNKNOWN if report.bound_hit else Status.HOLDS)

    if synch.realisable:
        cond4 = Condition(Status.HOLDS)
    elif not synch.cc_holds:
        cond4 = Condition(Status.FAILS, synch.cc_witness)
    else:
        cond4 = Condition(Status.FAILS, synch.deadlock_witness)

    return P2pVerdict(cond1, cond2, cond3, cond4, synch)
