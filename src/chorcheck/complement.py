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
from .gtype import (ClassificationError, DeclarationMismatchError, GlobalType,
                    _choices_per_state, determinise_gt, dual_gt, is_commutation_closed,
                    is_commutation_deterministic, is_deterministic,
                    participant_count, project, sync_product)
from .trace import (DEFAULT_MAX_ARROWS, DEFAULT_MAX_EVENTS, DEFAULT_MEMORY_GUARD,
                    Declaration, Msc, SizeLimitError, _insert, _insertion_point,
                    commute)

# the event bound up to which `complement_auto` self-checks a Cartesian complement
SELF_CHECK_BOUND = 5


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

    for src, x, t in a.transitions:
        add(("g", src), x, ("g", t))                             # keep G's run
    for s, cs in enumerate(_choices_per_state(g)):
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


def complement_auto(g: GlobalType) -> ComplementResult:
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
    report = verify_complement(g, cart.gtype, SELF_CHECK_BOUND)
    if report.passed:
        return ComplementResult(
            cart.gtype, "cartesian", False,
            note=f"Cartesian complement self-checked up to {SELF_CHECK_BOUND} events; "
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


def _canonical_universe(declaration: Declaration, max_events: int) -> list[tuple[int, ...]]:
    """Every normal form with at most `max_events` arrows, by arrow index.

    A normal form extended by arrow a is a normal form exactly when every
    arrow in its trailing run of arrows commuting with a has a smaller
    index than a, so each candidate costs one insertion-point walk.
    """
    n_arrows = len(declaration.arrows)
    if n_arrows > DEFAULT_MAX_ARROWS:
        raise SizeLimitError(f"{n_arrows} arrows exceeds the limit {DEFAULT_MAX_ARROWS}")
    if max_events > DEFAULT_MAX_EVENTS:
        raise SizeLimitError(f"bound {max_events} exceeds the limit {DEFAULT_MAX_EVENTS}")
    commutes = declaration.commutes
    universe = [()]
    frontier = [()]
    for _ in range(max_events):
        nxt = []
        for trace in frontier:
            end = len(trace)
            nxt += [trace + (a,) for a in range(n_arrows)
                    if _insertion_point(trace, a, commutes) == end]
            if len(universe) + len(nxt) > DEFAULT_MEMORY_GUARD:
                raise SizeLimitError(
                    f"canonical-MSC count exceeds the guard {DEFAULT_MEMORY_GUARD}")
        universe += nxt
        frontier = nxt
    return universe


def _existential_traces(g: GlobalType, max_events: int) -> set[tuple[int, ...]]:
    """Normal forms, by arrow index, of the words of L(g) with at most
    `max_events` arrows.

    The search runs level by level over (state set, normal form) pairs:
    the words that reach one pair have the same continuations, so each
    pair is extended once, however many words reach it.
    """
    if max_events < 0:
        raise ValueError(f"word length bound must be non-negative, got {max_events}")
    a = g.automaton
    arrows = g.declaration.arrows
    commutes = g.declaration.commutes
    moves: dict[frozenset, list] = {}  # state set -> [(arrow index, state set)]
    level = {(a.initial, ())}
    found = set()
    for depth in range(max_events + 1):
        nxt = set()
        for states, trace in level:
            if states & a.accepting:
                found.add(trace)
            if depth == max_events:
                continue
            out = moves.get(states)
            if out is None:
                out = moves[states] = [(i, t) for i, x in enumerate(arrows)
                                       if (t := a.step(states, x))]
            for i, t in out:
                nxt.add((t, _insert(trace, i, commutes)))
        level = nxt
    return found


def verify_complement(g: GlobalType, gbar: GlobalType, max_events: int) -> ComplementReport:
    """Check the complement law on every canonical MSC with <= max_events events.

    `oracle.xor_check` is the brute-force reference: it gives the same
    universe size and the same violations in the same order.
    """
    decl = g.declaration
    if decl != gbar.declaration:
        raise DeclarationMismatchError("complement verification requires one declaration")
    universe = _canonical_universe(decl, max_events)
    in_g = _existential_traces(g, max_events)
    in_gbar = _existential_traces(gbar, max_events)
    found = [(t, "both") for t in in_g & in_gbar]
    found += [(t, "neither") for t in universe if t not in in_g and t not in in_gbar]
    # order of the brute force: by length, then by the words under Arrow's order
    arrows = decl.arrows
    ranked = sorted(arrows)
    rank = [ranked.index(a) for a in arrows]
    found.sort(key=lambda v: (len(v[0]), [rank[i] for i in v[0]]))
    violations = [(Msc(tuple(arrows[i] for i in t), decl), kind) for t, kind in found]
    return ComplementReport(max_events, len(universe), violations)
