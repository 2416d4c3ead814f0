"""Global types as arrow-automata: classification, projection, membership."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import automata
from .automata import Nfa, determinise
from .semantics import Cfsm, System, local_alphabet, recv_action, send_action
from .trace import (Arrow, Declaration, DeclarationError, Msc, commute,
                    next_arrow, next_msc)


class DeclarationMismatchError(ValueError):
    """Binary operation over global types with different declarations."""


class ClassificationError(ValueError):
    """A procedure's classification precondition does not hold."""


@dataclass(frozen=True)
class GlobalType:
    declaration: Declaration
    automaton: Nfa
    name: str = ""

    def __post_init__(self):
        if tuple(self.automaton.alphabet) != tuple(self.declaration.arrows):
            raise DeclarationError(
                "automaton alphabet must equal the declared arrow alphabet")

    def with_automaton(self, nfa: Nfa, name: str | None = None) -> "GlobalType":
        return GlobalType(self.declaration, nfa, self.name if name is None else name)

    def accepts(self, word) -> bool:
        return self.automaton.accepts(word)


@dataclass(frozen=True)
class Classification:
    deterministic: bool
    commutation_closed: bool
    sender_driven: bool
    commutation_deterministic: bool
    participant_count: int


def choices(g: GlobalType, s: int) -> frozenset[Arrow]:
    """Arrows labelling outgoing transitions of state `s`."""
    if not 0 <= s < g.automaton.n_states:
        raise ValueError(f"unknown state {s}")
    return frozenset(x for src, x, _ in g.automaton.transitions if src == s)


def is_deterministic(g: GlobalType) -> bool:
    return g.automaton.delta is not None


def _choices_per_state(g: GlobalType) -> list[set[Arrow]]:
    """`choices(g, s)` for every state s, from one pass over the transitions."""
    out = [set() for _ in range(g.automaton.n_states)]
    for src, x, _ in g.automaton.transitions:
        out[src].add(x)
    return out


def _sender_driven(per_state) -> bool:
    return all(len({a.sender for a in arrows}) <= 1 for arrows in per_state)


def _commutation_deterministic(per_state) -> bool:
    return not any(commute(a, b) for arrows in per_state
                   for a, b in itertools.combinations(arrows, 2))


def is_sender_driven(g: GlobalType) -> bool:
    return is_deterministic(g) and _sender_driven(_choices_per_state(g))


def is_commutation_deterministic(g: GlobalType) -> bool:
    return is_deterministic(g) and _commutation_deterministic(_choices_per_state(g))


def participant_count(g: GlobalType) -> int:
    """Processes occurring in the declared arrow alphabet."""
    return len({p for a in g.declaration.arrows for p in (a.sender, a.receiver)})


def is_commutation_closed(g: GlobalType) -> tuple[bool, tuple | None]:
    """Is L(g) closed under adjacent swaps of commuting arrows?

    Returns (True, None) or (False, (word_in_language, swapped_word_not_in)).
    Decided by the diamond property on the minimal complete DFA: L is closed
    exactly when δ(s,xy) = δ(s,yx) for every reachable state s and every
    commuting pair (x, y).  On the first state that breaks it, the witness
    is u·x·y·v and u·y·x·v, with u a shortest access word to s and v a
    shortest suffix telling δ(s,xy) and δ(s,yx) apart.
    """
    d = automata.minimise(g.automaton)
    delta = d.delta
    pairs = [(x, y) for x, y in itertools.combinations(g.declaration.arrows, 2)
             if commute(x, y)]
    for s in range(d.n_states):
        for x, y in pairs:
            p, q = delta[(delta[(s, x)], y)], delta[(delta[(s, y)], x)]
            if p != q:
                u = automata.access_word(d, s)
                v = automata.distinguishing_word(d, p, q)
                xy, yx = u + (x, y) + v, u + (y, x) + v
                return False, (xy, yx) if d.accepts(xy) else (yx, xy)
    return True, None


def classify(g: GlobalType) -> Classification:
    deterministic = is_deterministic(g)
    per_state = _choices_per_state(g) if deterministic else ()
    return Classification(
        deterministic=deterministic,
        commutation_closed=is_commutation_closed(g)[0],
        sender_driven=deterministic and _sender_driven(per_state),
        commutation_deterministic=deterministic and _commutation_deterministic(per_state),
        participant_count=participant_count(g),
    )


# ---------------------------------------------------------------------------
# projection and products


def project(g: GlobalType) -> System:
    """One CFSM per process: the determinised image of g's automaton that
    maps each arrow to the process's action and erases the arrows it is not
    in.  Local states are named by g's state indices (`{s0,s2}`)."""
    decl = g.declaration
    a = g.automaton
    unnamed = Nfa(a.alphabet, a.n_states, a.initial, a.transitions, a.accepting)
    cfsms = []
    for p in decl.processes:
        action = {x: send_action(p, x.receiver, x.message) if x.sender == p
                  else recv_action(p, x.sender, x.message)
                  for x in decl.arrows if p in (x.sender, x.receiver)}
        cfsms.append(Cfsm(p, automata.image(unnamed, local_alphabet(decl, p), action.get)))
    return System(decl, tuple(cfsms))


def sync_product(system: System, name: str = "") -> GlobalType:
    """Cartesian abstraction: rendezvous product of the CFSMs, over arrows.

    The states are the reachable tuples of local states, numbered in
    sorted order and named by their tuple; an arrow moves its sender and
    its receiver together.
    """
    decl = system.declaration
    pidx = {p: i for i, p in enumerate(decl.processes)}
    deltas = [c.automaton.delta for c in system.cfsms]
    moves = [(x, pidx[x.sender], pidx[x.receiver], send_action(x.sender, x.receiver, x.message),
              recv_action(x.receiver, x.sender, x.message)) for x in decl.arrows]

    def successors(cfg):
        for x, si, ri, send, recv in moves:
            s2 = deltas[si].get((cfg[si], send))
            r2 = deltas[ri].get((cfg[ri], recv))
            if s2 is not None and r2 is not None:
                nxt = list(cfg)
                nxt[si], nxt[ri] = s2, r2
                yield x, tuple(nxt)

    init = tuple(next(iter(c.automaton.initial)) for c in system.cfsms)
    configs, _, edges = automata._explore([init], successors)
    ordered = sorted(configs)
    index = {cfg: i for i, cfg in enumerate(ordered)}
    accepting = frozenset(
        i for i, cfg in enumerate(ordered)
        if all(s in c.automaton.accepting for s, c in zip(cfg, system.cfsms)))
    names = tuple("(" + ",".join(str(s) for s in cfg) + ")" for cfg in ordered)
    nfa = Nfa(decl.arrows, len(ordered), frozenset({index[init]}),
              frozenset((index[configs[i]], x, index[configs[j]]) for i, x, j in edges),
              accepting, names)
    return GlobalType(decl, nfa, name)


def gt_product(g: GlobalType, h: GlobalType, name: str = "") -> GlobalType:
    if g.declaration != h.declaration:
        raise DeclarationMismatchError("product requires identical declarations")
    return GlobalType(g.declaration, automata.product(g.automaton, h.automaton), name)


def determinise_gt(g: GlobalType) -> GlobalType:
    return g.with_automaton(determinise(g.automaton))


def dual_gt(g: GlobalType) -> GlobalType:
    """Dual DFA of a deterministic global type (completes first)."""
    if not is_deterministic(g):
        raise ClassificationError("dual requires a deterministic global type")
    return g.with_automaton(automata.dual(g.automaton),
                            f"dual({g.name})" if g.name else "")


# ---------------------------------------------------------------------------
# MSC-language membership


def _reached(g: GlobalType, m: Msc) -> set[frozenset]:
    """The state sets that the linearisations of `m` reach in g's automaton.

    A prefix of `m` is fixed by how many events each process has done, and
    an arrow extends it when it is the next event of both its participants.
    The walk goes over these position vectors one arrow at a time, keeping
    for each the state sets that the linearisations of its prefix reach.
    Empty sets are kept: each stands for linearisations that g rejects.
    """
    a = g.automaton
    index = {p: i for i, p in enumerate(m.declaration.processes)}
    done = [0] * len(index)
    sends = {}  # (sender, position) -> (arrow, receiver, receiver's position)
    for x in m.word:
        p, q = index[x.sender], index[x.receiver]
        sends[(p, done[p])] = (x, q, done[q])
        done[p] += 1
        done[q] += 1
    layer = {(0,) * len(done): {a.initial}}
    for _ in m.word:
        nxt: dict[tuple, set] = {}
        for vec, sets in layer.items():
            for p, k in enumerate(vec):
                if (send := sends.get((p, k))) and vec[send[1]] == send[2]:
                    x, q, _ = send
                    v = list(vec)
                    v[p] += 1
                    v[q] += 1
                    nxt.setdefault(tuple(v), set()).update(a.step(s, x) for s in sets)
        layer = nxt
    (sets,) = layer.values()
    return sets


def member_existential(g: GlobalType, m: Msc) -> bool:
    """Does some linearisation of `m` belong to L(g)?"""
    return any(s & g.automaton.accepting for s in _reached(g, m))


def member_universal(g: GlobalType, m: Msc) -> bool:
    """Is every linearisation of `m` in L(g)?"""
    return all(s & g.automaton.accepting for s in _reached(g, m))


def member_existential_via_next(g: GlobalType, m: Msc) -> bool:
    """Membership by the next-arrow/next-MSC recursion.

    Valid for commutation-deterministic global types: peel off the first
    choice arrow when it is unblocked, otherwise reject.
    """
    if not is_commutation_deterministic(g):
        raise ClassificationError("recursion requires commutation-determinism")
    a = g.automaton
    state, trace = next(iter(a.initial)), m
    while len(trace):
        cs = choices(g, state)
        arrow = next_arrow(trace, cs)
        if arrow is None:
            return False
        trace = next_msc(trace, cs)
        if trace is None:
            return False
        state = a.delta[(state, arrow)]
    return state in a.accepting
