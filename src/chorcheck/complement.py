"""The three complementation procedures and bounded complement verification.

A complement of G is a global type whose existential MSC language is the
exact set-complement of G's within the universe of canonical traces over
the declared arrows.  Duality works for deterministic commutation-closed
types (and any type whose alphabet spans at most three participants),
renunciation for commutation-deterministic ones, and the Cartesian
abstraction yields an under-approximation that is exact for types that
are deadlock-free realisable in the synchronous model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automata import Nfa, _restrict, reachable
from .gtype import (ClassificationError, GlobalType, choices, determinise_gt,
                    dual_gt, is_commutation_closed, is_commutation_deterministic,
                    is_deterministic, participant_count, project, sync_product)
from .trace import commute


class NoComplementMethodError(Exception):
    """No complementation procedure applies; the type may be non-complementable."""


def complement_dual(g: GlobalType) -> GlobalType:
    """Dual-DFA complement; requires determinism plus commutation closure
    (or at most three participants, which forces closure)."""
    if not is_deterministic(g):
        raise ClassificationError("dual complement requires a deterministic type")
    if participant_count(g) > 3 and not is_commutation_closed(g)[0]:
        raise ClassificationError(
            "dual complement requires commutation closure (or <= 3 participants)")
    return dual_gt(g)


@dataclass(frozen=True)
class ComplementResult:
    gtype: GlobalType
    method: str
    guaranteed: bool
    note: str = ""


def complement_cartesian(g: GlobalType) -> ComplementResult:
    """Dual of the determinised Cartesian abstraction.

    A true complement when g is deadlock-free realisable in the synchronous
    model; an under-approximation of the complement otherwise, flagged via
    `guaranteed=False`.
    """
    abstraction = determinise_gt(sync_product(project(g)))
    comp = dual_gt(abstraction)
    return ComplementResult(
        comp.with_automaton(comp.automaton, f"cartesian-complement({g.name})" if g.name else ""),
        method="cartesian",
        guaranteed=False,
        note="under-approximation; exact when the type is deadlock-free "
             "realisable in the synchronous model",
    )


def _renunciation_states(g: GlobalType):
    n = g.automaton.n_states
    arrows = g.declaration.arrows
    states = [("g", s) for s in range(n)]
    states += [("bar", s) for s in range(n)]
    for s in range(n):
        for a in arrows:
            states.append(("prov", s, a))
            states.append(("provbar", s, a))
    states.append(("acc",))
    return states


def renunciation_automaton(g: GlobalType) -> Nfa:
    """The renunciation complement, with all states materialised (unpruned)."""
    if not is_commutation_deterministic(g):
        raise ClassificationError("renunciation requires commutation-determinism")
    a = g.automaton
    arrows = g.declaration.arrows
    final = a.accepting
    states = _renunciation_states(g)
    index = {st: i for i, st in enumerate(states)}
    transitions = set()

    def add(src, letter, dst):
        transitions.add((index[src], letter, index[dst]))

    for s in range(a.n_states):
        cs = choices(g, s)
        for src, x, t in a.transitions:
            if src == s:
                add(("g", s), x, ("g", t))                       # keep G's run
        for x in arrows:
            if x not in cs:
                add(("g", s), x, ("bar", s))                     # definitive renunciation
                add(("bar", s), x, ("bar", s))
        for x in cs:
            for b in arrows:
                if b in cs:
                    continue
                if commute(x, b):
                    add(("g", s), b, ("prov", s, x))             # provisory, x still free
                    add(("prov", s, x), b, ("prov", s, x))
                else:
                    add(("g", s), b, ("provbar", s, x))          # x now blocked
                    add(("prov", s, x), b, ("provbar", s, x))
                add(("provbar", s, x), b, ("provbar", s, x))
            add(("provbar", s, x), x, ("acc",))
    for x in arrows:
        add(("acc",), x, ("acc",))

    accepting = {index[("acc",)]}
    for s in range(a.n_states):
        if s not in final:
            accepting.add(index[("g", s)])
        accepting.add(index[("bar", s)])
    initial = frozenset({index[("g", next(iter(a.initial)))]})

    def name(st):
        if st == ("acc",):
            return "s_acc"
        kind, s, *rest = st
        base = a.state_name(s)
        if kind == "g":
            return base
        if kind == "bar":
            return base + "~"
        mark = "~" if kind == "provbar" else ""
        return f"({base}{mark},{rest[0]})"

    return Nfa(arrows, len(states), initial, frozenset(transitions),
               frozenset(accepting), tuple(name(st) for st in states))


def renunciation_unpruned_state_count(g: GlobalType) -> int:
    return len(_renunciation_states(g))


def complement_renunciation(g: GlobalType) -> GlobalType:
    """Renunciation complement of a commutation-deterministic global type."""
    a = renunciation_automaton(g)
    pruned = _restrict(a, reachable(a))
    return GlobalType(g.declaration, pruned,
                      f"renunciation({g.name})" if g.name else "")


def complement_auto(g: GlobalType, self_check_bound: int = 5) -> ComplementResult:
    """Pick a complementation procedure: dual, then renunciation, then a
    self-checked Cartesian abstraction."""
    if is_deterministic(g) and (participant_count(g) <= 3
                                or is_commutation_closed(g)[0]):
        # complement_dual's preconditions hold; calling it would decide closure again
        return ComplementResult(dual_gt(g), "dual", True)
    candidate = g if is_deterministic(g) else determinise_gt(g)
    if is_commutation_deterministic(candidate):
        return ComplementResult(complement_renunciation(candidate), "renunciation", True)
    cart = complement_cartesian(g)
    report = verify_complement(g, cart.gtype, self_check_bound)
    if report.passed:
        return ComplementResult(
            cart.gtype, "cartesian", False,
            note=f"Cartesian complement self-checked up to {self_check_bound} events; "
                 "exactness beyond the bound is not guaranteed")
    raise NoComplementMethodError(
        "no applicable complementation procedure; the type may be non-complementable")


@dataclass
class ComplementReport:
    max_events: int
    universe_size: int
    violations: list = field(default_factory=list)  # (Msc, "both" | "neither")
    note: str = ("bounded check: a pass is necessary but not sufficient "
                 "for true complementarity")

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_complement(g: GlobalType, gbar: GlobalType, max_events: int) -> ComplementReport:
    """Check the complement law on every canonical MSC with <= max_events events."""
    from .gtype import DeclarationMismatchError
    from .oracle import xor_check

    if g.declaration != gbar.declaration:
        raise DeclarationMismatchError("complement verification requires one declaration")
    universe_size, violations = xor_check(g, gbar, max_events)
    return ComplementReport(max_events, universe_size, violations)
