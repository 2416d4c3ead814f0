"""CFSM systems and their bounded p2p executions.

The p2p model has one FIFO channel per ordered pair of processes.  The
exploration is bounded: a send is enabled only while its channel holds
fewer than `bound` messages, and the report flags when that bound was the
only thing blocking a continuation (making every verdict derived from the
exploration a semi-decision).  `p2p_explore` is the one search over
configurations: it builds the configuration graph once, and `p2p_mscs`
walks that graph for the MSCs within an event budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .automata import Nfa
from .trace import Declaration


class ExecutionError(ValueError):
    """Structurally invalid execution (bad matching or event shape)."""


class LocalAction(NamedTuple):
    """A send `p!q:m` (process=p) or receive `p?q:m` (process=p, from q).

    A tuple, like `Arrow`, ordered by its fields in turn.
    """

    process: str
    peer: str
    message: str
    is_send: bool

    def __str__(self) -> str:
        mark = "!" if self.is_send else "?"
        return f"{self.process}{mark}{self.peer}:{self.message}"


def send_action(sender: str, receiver: str, message: str) -> LocalAction:
    return LocalAction(sender, receiver, message, True)


def recv_action(receiver: str, sender: str, message: str) -> LocalAction:
    return LocalAction(receiver, sender, message, False)


def local_alphabet(declaration: Declaration, process: str) -> tuple[LocalAction, ...]:
    """All actions of `process` derived from the declared arrow alphabet."""
    actions = []
    for a in declaration.arrows:
        if a.sender == process:
            actions.append(send_action(a.sender, a.receiver, a.message))
        if a.receiver == process:
            actions.append(recv_action(a.receiver, a.sender, a.message))
    return tuple(actions)


@dataclass(frozen=True)
class Cfsm:
    """Per-process local automaton over that process's send/receive actions;
    the automaton must be deterministic."""

    process: str
    automaton: Nfa

    def __post_init__(self):
        if self.automaton.delta is None:
            raise ValueError(f"the automaton of process {self.process} is not deterministic")
        for act in self.automaton.alphabet:
            if act.process != self.process:
                raise ValueError(f"action {act} does not belong to process {self.process}")


@dataclass(frozen=True)
class System:
    """One CFSM per declared process, in declaration order."""

    declaration: Declaration
    cfsms: tuple[Cfsm, ...]

    def __post_init__(self):
        object.__setattr__(self, "cfsms", tuple(self.cfsms))
        procs = tuple(c.process for c in self.cfsms)
        if procs != tuple(self.declaration.processes):
            raise ValueError("CFSMs must cover the declared processes, in order")

    def cfsm(self, process: str) -> Cfsm:
        return self.cfsms[self.declaration.processes.index(process)]


# ---------------------------------------------------------------------------
# executions and p2p MSCs


@dataclass(frozen=True)
class Event:
    is_send: bool
    sender: str
    receiver: str
    message: str
    match: int | None = None  # for receives: index of the matching send

    @property
    def process(self) -> str:
        return self.sender if self.is_send else self.receiver

    def __str__(self) -> str:
        if self.is_send:
            return f"{self.sender}!{self.receiver}:{self.message}"
        return f"{self.receiver}?{self.sender}:{self.message}"


@dataclass(frozen=True)
class Execution:
    events: tuple[Event, ...]

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        matched = set()
        for i, e in enumerate(self.events):
            if e.is_send:
                if e.match is not None:
                    raise ExecutionError("send events carry no match index")
                continue
            j = e.match
            if j is None or not 0 <= j < i:
                raise ExecutionError(f"receive {i} must match an earlier send")
            s = self.events[j]
            if not s.is_send or (s.sender, s.receiver, s.message) != (e.sender, e.receiver, e.message):
                raise ExecutionError(f"receive {i} matches incompatible event {j}")
            if j in matched:
                raise ExecutionError(f"send {j} matched twice")
            matched.add(j)

    @property
    def unmatched_sends(self) -> frozenset[int]:
        matched = {e.match for e in self.events if not e.is_send}
        return frozenset(i for i, e in enumerate(self.events)
                         if e.is_send and i not in matched)

    def __str__(self) -> str:
        return ";".join(str(e) for e in self.events)


# per-process event labels inside a P2pMsc: (is_send, peer, message)
def _label(e: Event) -> tuple[bool, str, str]:
    return (e.is_send, e.receiver if e.is_send else e.sender, e.message)


@dataclass(frozen=True)
class P2pMsc:
    """Interleaving-invariant view of an execution.

    Events are grouped per process (total order within each process) and a
    matching relation pairs sends with their receives.  The partial order
    is the transitive closure of process order plus matching edges.
    """

    events: tuple[tuple[str, tuple[tuple[bool, str, str], ...]], ...]
    matching: frozenset  # pairs ((p, i), (q, j))

    @cached_property
    def predecessors(self) -> dict:
        """Immediate predecessors of each node (p, i): the previous event of
        p and, for a receive, its matching send.  Nodes run per process in
        `events` order, then by index."""
        send_of = {r: s for s, r in self.matching}
        preds = {}
        for p, evs in self.events:
            for i in range(len(evs)):
                preds[(p, i)] = (((p, i - 1),) if i else ()) + (
                    (send_of[(p, i)],) if (p, i) in send_of else ())
        return preds

    @cached_property
    def _labels(self) -> dict:
        return dict(self.events)

    def label(self, node) -> tuple[bool, str, str]:
        p, i = node
        return self._labels[p][i]

    def __len__(self) -> int:
        return sum(len(evs) for _, evs in self.events)

    def __str__(self) -> str:
        parts = []
        for p, evs in self.events:
            labels = [f"{p}{'!' if is_send else '?'}{peer}:{msg}"
                      for is_send, peer, msg in evs]
            parts.append(f"{p}: " + " ".join(labels))
        return " | ".join(parts)


def msc_of_execution(e: Execution) -> P2pMsc:
    per_process: dict[str, list] = {}
    position: dict[int, tuple[str, int]] = {}
    for i, ev in enumerate(e.events):
        p = ev.process
        per_process.setdefault(p, [])
        position[i] = (p, len(per_process[p]))
        per_process[p].append(_label(ev))
    matching = frozenset(
        (position[ev.match], position[i])
        for i, ev in enumerate(e.events) if not ev.is_send
    )
    events = tuple(sorted((p, tuple(evs)) for p, evs in per_process.items()))
    return P2pMsc(events, matching)


# ---------------------------------------------------------------------------
# p2p exploration


@dataclass
class P2pReport:
    """The configuration graph of the p2p semantics within a channel bound.

    A configuration is a flat tuple: the local state of each process, in
    declaration order, then the contents of each channel, in `channel_keys`
    order.  Configurations are numbered in breadth-first discovery order from
    the initial one, number 0.  `steps[n]` lists the steps of configuration n
    as (action, channel index, next configuration number), per process in
    declaration order and per action in its CFSM's alphabet order, and
    `blocked[n]` says whether the bound blocked a send there.
    """

    configurations: list
    steps: list
    blocked: list
    deadlocks: list          # (configuration, event path)
    orphans: list            # deadlocked, all locals accepting, channels non-empty
    bound_hit: bool
    channel_keys: tuple
    processes: tuple         # in declaration order


def p2p_explore(system: System, bound: int) -> P2pReport:
    """The p2p configuration graph with per-channel capacity `bound`, in one
    breadth-first search.

    A configuration with no step that is not final (every local accepting,
    every channel empty) is a deadlock; its path is the breadth-first one,
    through the step that first reached each configuration on it.  An
    orphan is a deadlock whose locals all accept.
    """
    if bound < 1:
        raise ValueError("channel bound must be >= 1")
    procs = system.declaration.processes
    n_procs = len(procs)
    keys = tuple((p, q) for p in procs for q in procs if p != q)
    kidx = {k: i for i, k in enumerate(keys)}
    moves = []  # per process, per local state: its (action, channel index, target) moves
    for d in (c.automaton for c in system.cfsms):
        moves.append([[(act, kidx[(act.process, act.peer) if act.is_send
                                  else (act.peer, act.process)], d.delta[(src, act)])
                       for act in d.alphabet if (src, act) in d.delta]
                      for src in range(d.n_states)])
    accepting = [c.automaton.accepting for c in system.cfsms]
    init = tuple(next(iter(c.automaton.initial)) for c in system.cfsms) + ((),) * len(keys)
    configs, index = [init], {init: 0}
    parent = [None]  # per configuration: (number, action) of the step that first reached it
    steps, blocked, deadlocks, orphans = [], [], [], []
    for n, cfg in enumerate(configs):  # `configs` grows behind the scan: a FIFO queue
        enabled, stopped = [], False
        for i, s in enumerate(cfg[:n_procs]):
            for act, ch, dst in moves[i][s]:
                content = cfg[n_procs + ch]
                if act.is_send:
                    if len(content) >= bound:
                        stopped = True
                        continue
                    content += (act.message,)
                elif content and content[0] == act.message:
                    content = content[1:]
                else:
                    continue
                succ = list(cfg)
                succ[i], succ[n_procs + ch] = dst, content
                nxt = tuple(succ)
                j = index.setdefault(nxt, len(configs))
                if j == len(configs):
                    configs.append(nxt)
                    parent.append((n, act))
                enabled.append((act, ch, j))
        steps.append(enabled)
        blocked.append(stopped)
        if enabled:
            continue
        all_accepting = all(s in acc for s, acc in zip(cfg, accepting))
        if all_accepting and not any(cfg[n_procs:]):
            continue  # final
        path, k = [], n
        while parent[k] is not None:
            k, act = parent[k]
            path.append(act)
        deadlocks.append((cfg, tuple(reversed(path))))
        if all_accepting:
            orphans.append(deadlocks[-1])
    return P2pReport(configs, steps, blocked, deadlocks, orphans, any(blocked), keys, procs)


def p2p_mscs(report: P2pReport, max_events: int = 8):
    """MSCs of all p2p executions in `report`'s graph with at most
    `max_events` events.

    Returns (the explored P2pMscs in discovery order, bound_hit, the non-RSC
    ones among them in the same order).  The search is depth-first over an
    explicit stack (its depth grows with `max_events`) and walks the graph
    by configuration number; it computes no step itself.  It is memoised on
    the per-process label sequences: two interleavings of the same
    behaviour are explored once.  The labels fix the MSC, since FIFO
    channels match the k-th receive on a channel with its k-th send, and
    they fix the configuration, since every CFSM is deterministic.  A
    `P2pMsc` is built only for a new MSC, and no execution is built: a
    caller that wants one takes a linearisation of the MSC.

    An MSC is RSC (each receive can be scheduled right after its send)
    exactly when the order between its blocks (a send with its receive, or
    an unmatched send) is acyclic (Charron-Bost, Mattern and Tel 1996).  A
    new send closes no cycle; a new receive on q closes one exactly when
    its send's block reaches an earlier event of q.  Each pending send
    keeps, per process, the first position whose block it reaches (the
    reached positions are upward closed).  Every extension of a non-RSC
    MSC is non-RSC and needs no bookkeeping.
    """
    if max_events < 0:
        raise ValueError("event budget must be >= 0")
    procs = sorted(report.processes)  # P2pMsc lists processes by name
    pidx = {p: i for i, p in enumerate(procs)}
    unreached = (max_events,) * len(procs)  # past every position of every process
    seen, mscs, non_rsc = set(), [], []
    bound_hit = False

    # Each node extends its parent's MSC by one event: `labels` holds the
    # per-process label tuples (in `procs` order), `matching` the matched
    # (send node, receive node) pairs, and `pending`, per channel, the
    # (node, reach) of each send in transit.  `depth` counts the events and
    # `rsc` says whether the MSC is RSC.
    stack = [(0, ((),) * len(report.channel_keys), ((),) * len(procs), frozenset(), 0, True)]
    while stack:
        cfg, pending, labels, matching, depth, rsc = stack.pop()
        # the continuation depends only on the MSC, not on which
        # interleaving produced it
        if labels in seen:
            continue
        seen.add(labels)
        m = P2pMsc(tuple((p, evs) for p, evs in zip(procs, labels) if evs), matching)
        mscs.append(m)
        if not rsc:
            non_rsc.append(m)
        enabled = report.steps[cfg]
        if depth >= max_events:
            if enabled:
                bound_hit = True  # truncated by the event budget, not exhausted
            continue
        bound_hit = bound_hit or report.blocked[cfg]
        children = []
        for act, ch, nxt in enabled:
            k = pidx[act.process]
            pos = len(labels[k])
            node = (act.process, pos)
            new_labels = list(labels)
            new_labels[k] += ((act.is_send, act.peer, act.message),)
            new_pending = list(pending)
            new_matching = matching
            new_rsc = rsc
            if act.is_send:
                reach = unreached[:k] + (pos,) + unreached[k + 1:]
                new_pending[ch] += ((node, reach),)
            else:
                (send, reach), new_pending[ch] = new_pending[ch][0], new_pending[ch][1:]
                new_matching = matching | {(send, node)}
                if rsc and reach[k] < pos:
                    new_rsc = False  # the send's block reaches the receiver
                elif rsc:
                    # the block of `send` now also holds this receive and is
                    # reached from the receiver's previous event: every
                    # pending send that reaches either reaches both
                    sp = pidx[send[0]]
                    block = reach[:k] + (pos,) + reach[k + 1:]
                    new_pending = [
                        sends and tuple((n, tuple(map(min, r, block)))
                                        if r[sp] <= send[1] or r[k] < pos else (n, r)
                                        for n, r in sends)
                        for sends in new_pending]
            children.append((nxt, tuple(new_pending), tuple(new_labels), new_matching,
                             depth + 1, new_rsc))
        stack.extend(reversed(children))  # the first step is explored first
    return mscs, bound_hit, non_rsc
