"""Brute-force bounded-universe ground truth.

Everything here enumerates: canonical traces over a small arrow alphabet,
bounded existential MSC languages, the xor complement law, the
count-profile characterisation used by the non-complementability fixture,
the minimal DFA by residuals, projection membership, the p2p step relation,
the bounded p2p executions with their MSCs, and the linearisations and FIFO
and RSC checks of p2p MSCs.  These are the oracles the cleverer
constructions are tested against; no verdict uses them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .automata import Nfa, words
from .realisability import Status, check_p2p_realisable
from .semantics import (Event, Execution, P2pMsc, System, msc_of_execution,
                        p2p_explore, p2p_mscs, recv_action, send_action)
from .trace import (DEFAULT_MAX_ARROWS, DEFAULT_MAX_EVENTS, DEFAULT_MEMORY_GUARD,
                    Declaration, Msc, SizeLimitError, is_normal_form, msc_of)


def enumerate_canonical(declaration: Declaration, max_events: int,
                        memory_guard: int = DEFAULT_MEMORY_GUARD) -> set[Msc]:
    """All canonical traces with at most `max_events` events.

    Canonical words are grown letter by letter: every prefix of a normal
    form is a normal form, so extensions that break canonicity are pruned
    immediately.
    """
    arrows = declaration.arrows
    if len(arrows) > DEFAULT_MAX_ARROWS:
        raise SizeLimitError(f"{len(arrows)} arrows exceeds the limit {DEFAULT_MAX_ARROWS}")
    if max_events > DEFAULT_MAX_EVENTS:
        raise SizeLimitError(f"bound {max_events} exceeds the limit {DEFAULT_MAX_EVENTS}")
    result = {msc_of((), declaration)}
    frontier = [()]
    for _ in range(max_events):
        nxt = []
        for word in frontier:
            for a in arrows:
                candidate = word + (a,)
                if is_normal_form(candidate, declaration):
                    nxt.append(candidate)
                    result.add(Msc(candidate, declaration))
                    if len(result) > memory_guard:
                        raise SizeLimitError(
                            f"canonical-MSC count exceeds the guard {memory_guard}")
        frontier = nxt
    return result


def bounded_existential(g, max_events: int) -> set[Msc]:
    """{ msc(w) : w in L(g), |w| <= max_events }."""
    decl = g.declaration
    return {msc_of(w, decl) for w in words(g.automaton, max_events)}


def xor_check(g, gbar, max_events: int):
    """Violations of the bounded complement law.

    Returns (universe size, list of (Msc, "both" | "neither")).
    """
    universe = enumerate_canonical(g.declaration, max_events)
    in_g = bounded_existential(g, max_events)
    in_gbar = bounded_existential(gbar, max_events)
    violations = []
    for m in sorted(universe, key=lambda m: (len(m), m.word)):
        if m in in_g and m in in_gbar:
            violations.append((m, "both"))
        elif m not in in_g and m not in in_gbar:
            violations.append((m, "neither"))
    return len(universe), violations


@dataclass
class ProfileReport:
    checked_words: int
    profile_words: int
    violations: list = field(default_factory=list)  # (word, (k1, k2, k3))

    @property
    def passed(self) -> bool:
        return not self.violations


def count_profile_check(language: Nfa, declaration: Declaration, predicate,
                        max_len: int, arrows=None) -> ProfileReport:
    """Check `predicate(k1, k2, k3)` on every accepted block-shaped word.

    A word is block-shaped when its trace equals the trace of
    a1^k1 a2^k2 a3^k3.  The role triple (a1, a2, a3) defaults to the three
    declared arrows ordered by message declaration position.  Checking more
    than DEFAULT_MEMORY_GUARD accepted words raises SizeLimitError; the
    guard bounds the word count, not the time, which grows with word length.
    """
    if arrows is None:
        midx = {m: i for i, m in enumerate(declaration.messages)}
        arrows = tuple(sorted(declaration.arrows, key=lambda a: midx[a.message]))
    if len(arrows) != 3 or set(arrows) != set(declaration.arrows):
        raise ValueError("count-profile checks need exactly three declared arrows")
    a1, a2, a3 = arrows
    checked = profiled = 0
    violations = []
    for w in words(language, max_len):
        checked += 1
        if checked > DEFAULT_MEMORY_GUARD:
            raise SizeLimitError(
                f"accepted-word count exceeds the guard {DEFAULT_MEMORY_GUARD}")
        counts = (w.count(a1), w.count(a2), w.count(a3))
        block = (a1,) * counts[0] + (a2,) * counts[1] + (a3,) * counts[2]
        if msc_of(w, declaration) != msc_of(block, declaration):
            continue
        profiled += 1
        if not predicate(*counts):
            violations.append((w, counts))
    return ProfileReport(checked, profiled, violations)


def residual_dfa(a: Nfa, max_states: int) -> Nfa:
    """The minimal complete DFA of L(a), from its Myhill-Nerode residuals,
    when it has at most `max_states` states.

    Such a DFA tells its states apart by suffixes of length at most
    `max_states` - 2, so a word's class is read off the answers of
    `a.accepts` on the word followed by each of those suffixes.  Classes
    are numbered in the order a breadth-first walk from the empty word
    finds them, letters in alphabet order.
    """
    suffixes = [()]
    for v in suffixes:  # `suffixes` grows behind the scan, shortest first
        if len(v) < max_states - 2:
            suffixes += [v + (x,) for x in a.alphabet]

    def signature(word):
        return tuple(a.accepts(word + v) for v in suffixes)

    found, index, transitions = [()], {signature(()): 0}, []  # one word per class
    for i, word in enumerate(found):
        for x in a.alphabet:
            j = index.setdefault(signature(word + (x,)), len(found))
            if j == len(found):
                found.append(word + (x,))
            transitions.append((i, x, j))
    if len(found) > max_states:
        raise ValueError(f"L(a) has more than {max_states} residuals")
    accepting = frozenset(i for i, word in enumerate(found) if a.accepts(word))
    return Nfa(a.alphabet, len(found), frozenset({0}), transitions, accepting)


def swap_closure_oracle(g, max_len: int):
    """Brute-force commutation-closure check on words up to `max_len`.

    Returns (True, None) or (False, (word_in_language, swapped_word_not_in)).
    """
    from .trace import commute

    for w in words(g.automaton, max_len):
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if commute(a, b):
                swapped = w[:i] + (b, a) + w[i + 2:]
                if not g.automaton.accepts(swapped):
                    return False, (w, swapped)
    return True, None


def normal_form_oracle(word, declaration: Declaration) -> tuple:
    """Lex-least linearisation of the trace of `word`, by listing them all."""
    from .trace import linearisations

    index = declaration.arrow_index
    return min(linearisations(Msc(tuple(word), declaration)),
               key=lambda w: [index[a] for a in w])


def member_existential_oracle(g, m: Msc, limit: int = 10) -> bool:
    """Membership by enumerating every linearisation."""
    from .trace import linearisations

    return any(g.automaton.accepts(w) for w in linearisations(m, limit))


def member_universal_oracle(g, m: Msc, limit: int = 10) -> bool:
    """Universal membership by enumerating every linearisation."""
    from .trace import linearisations

    return all(g.automaton.accepts(w) for w in linearisations(m, limit))


def in_projection(g, p: str, word) -> bool:
    """Is the local word `word` of process `p` the projection of a word of L(g)?

    A search over (state of g, position in `word`) pairs: an arrow without
    p moves the state only, an arrow with p must read the next action.
    """
    a = g.automaton
    todo = [(s, 0) for s in a.initial]
    seen = set(todo)
    while todo:
        s, i = todo.pop()
        if i == len(word) and s in a.accepting:
            return True
        for src, x, t in a.transitions:
            if src != s:
                continue
            if p not in (x.sender, x.receiver):
                nxt = (t, i)
            elif i < len(word) and word[i] == (
                    send_action(p, x.receiver, x.message) if x.sender == p
                    else recv_action(p, x.sender, x.message)):
                nxt = (t, i + 1)
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return False


# ---------------------------------------------------------------------------
# p2p MSCs and the p2p => synchronous implication


def _topological_orders(preds: dict, done: tuple = ()):
    """Every order of the nodes of `preds` that puts each after its predecessors."""
    if len(done) == len(preds):
        yield done
    for node, before in preds.items():
        if node not in done and all(b in done for b in before):
            yield from _topological_orders(preds, done + (node,))


def linearisations_p2p(m: P2pMsc, limit: int = 10) -> list[Execution]:
    """All linear extensions of the MSC partial order, as executions."""
    if len(m) > limit:
        raise SizeLimitError(f"MSC has {len(m)} events, limit is {limit}")
    send_of = {r: s for s, r in m.matching}
    results = []
    for topo in _topological_orders(m.predecessors):
        index = {node: k for k, node in enumerate(topo)}
        events = []
        for node in topo:
            is_send, peer, message = m.label(node)
            p = node[0]
            if is_send:
                events.append(Event(True, p, peer, message))
            else:
                events.append(Event(False, peer, p, message, match=index[send_of[node]]))
        results.append(Execution(tuple(events)))
    return results


def is_rsc_schedulable(m: P2pMsc) -> tuple[bool, Execution | None]:
    """Can every receive be scheduled immediately after its send?

    The reference for the RSC check that `semantics.p2p_mscs` carries
    through its search.  Matched pairs are scheduled as atomic blocks,
    unmatched sends as unit blocks.  The MSC is RSC exactly when the order
    between blocks is acyclic (Charron-Bost, Mattern and Tel 1996), so any
    ready block can go next: the first one is taken until every block is
    scheduled or none is ready.  True exactly when the MSC is a prefix of a
    synchronous MSC; the schedule is returned as an execution.
    """
    match_of = dict(m.matching)  # send -> recv
    preds = m.predecessors
    remaining = [(node, match_of.get(node)) for node in preds if m.label(node)[0]]
    done = set()
    schedule: list[Event] = []
    while remaining:
        for k, (send, recv) in enumerate(remaining):
            members = (send,) if recv is None else (send, recv)
            if all(pred in done or pred in members
                   for node in members for pred in preds[node]):
                break
        else:
            return False, None
        del remaining[k]
        p, _ = send
        _, peer, message = m.label(send)
        schedule.append(Event(True, p, peer, message))
        if recv is not None:
            schedule.append(Event(False, p, recv[0], message, match=len(schedule) - 1))
        done.update(members)
    return True, Execution(tuple(schedule))


def is_p2p_execution(e: Execution) -> bool:
    """FIFO validity, phrased on the MSC partial order.

    For any two same-channel sends s1 ≺ s2: s2 is unmatched, or both are
    matched and the receives are ordered r1 ≺ r2.
    """
    m = msc_of_execution(e)
    match_of = dict(m.matching)
    per_channel: dict[tuple[str, str], list] = {}
    for p, evs in m.events:
        for i, (is_send, peer, _) in enumerate(evs):
            if is_send:
                per_channel.setdefault((p, peer), []).append((p, i))
    for sends in per_channel.values():
        # same-channel sends share their process, and same-channel receives
        # theirs: on one process the MSC order is the per-process index order
        sends.sort(key=lambda node: node[1])
        for s1, s2 in itertools.combinations(sends, 2):
            if s2 not in match_of:
                continue
            if s1 not in match_of:
                return False
            if match_of[s1][1] > match_of[s2][1]:
                return False
    return True


def is_p2p_execution_by_sequence(e: Execution) -> bool:
    """FIFO validity checked directly on the event sequence order."""
    recv_of = {ev.match: i for i, ev in enumerate(e.events) if not ev.is_send}
    per_channel: dict[tuple[str, str], list[int]] = {}
    for i, ev in enumerate(e.events):
        if ev.is_send:
            per_channel.setdefault((ev.sender, ev.receiver), []).append(i)
    for sends in per_channel.values():
        for s1, s2 in itertools.combinations(sends, 2):
            if s2 not in recv_of:
                continue
            if s1 not in recv_of or recv_of[s1] > recv_of[s2]:
                return False
    return True


def p2p_steps(system: System, bound: int):
    """The p2p step relation with per-channel capacity `bound`, written apart
    from `semantics.p2p_explore`.

    A configuration is (local states, channel contents), with one channel
    per ordered pair of distinct processes in declaration order.  Returns
    the initial configuration and `steps`, which maps a configuration to its
    enabled (action, next configuration) pairs, per process in declaration
    order and per action in its CFSM's alphabet order, and to whether the
    bound blocked a send.
    """
    procs = system.declaration.processes
    channels = {pair: k for k, pair in enumerate(
        (p, q) for p in procs for q in procs if p != q)}
    # per process: local state -> its (action, target) pairs in alphabet order
    moves = [{s: [(x, a.delta[(s, x)]) for x in a.alphabet if (s, x) in a.delta]
              for s in range(a.n_states)} for a in (c.automaton for c in system.cfsms)]
    init = (tuple(next(iter(c.automaton.initial)) for c in system.cfsms),
            tuple(() for _ in channels))

    def steps(cfg):
        states, contents = cfg
        enabled, blocked = [], False
        for i, state in enumerate(states):
            for act, dst in moves[i][state]:
                if act.is_send:
                    k = channels[(act.process, act.peer)]
                    if len(contents[k]) == bound:
                        blocked = True
                        continue
                    content = contents[k] + (act.message,)
                else:
                    k = channels[(act.peer, act.process)]
                    if contents[k][:1] != (act.message,):
                        continue
                    content = contents[k][1:]
                enabled.append((act, (states[:i] + (dst,) + states[i + 1:],
                                      contents[:k] + (content,) + contents[k + 1:])))
        return enabled, blocked

    return init, steps


def p2p_mscs_by_enumeration(system: System, bound: int, max_events: int = 8):
    """`semantics.p2p_mscs` without its memo or its configuration graph:
    every bounded execution is enumerated through `p2p_steps`, each receive
    is matched to its channel's oldest unreceived send by scanning the
    events, and each MSC is built from scratch.

    Returns the same (MSCs in order of first discovery, bound_hit,
    non_rsc) triple, in the same depth-first order, with each MSC's
    RSC-ness decided by `is_rsc_schedulable`.
    """
    init, steps = p2p_steps(system, bound)
    mscs = {}  # an ordered set
    bound_hit = False

    def rec(cfg, events):
        nonlocal bound_hit
        mscs.setdefault(msc_of_execution(Execution(events)))
        enabled, blocked_by_bound = steps(cfg)
        if len(events) >= max_events:
            bound_hit = bound_hit or bool(enabled)
            return
        bound_hit = bound_hit or blocked_by_bound
        for act, nxt in enabled:
            if act.is_send:
                ev = Event(True, act.process, act.peer, act.message)
            else:
                channel = (act.peer, act.process)
                sends = [i for i, e in enumerate(events)
                         if e.is_send and (e.sender, e.receiver) == channel]
                received = sum(not e.is_send and (e.sender, e.receiver) == channel
                               for e in events)
                ev = Event(False, act.peer, act.process, act.message,
                           match=sends[received])
            rec(nxt, events + (ev,))

    rec(init, ())
    return list(mscs), bound_hit, [m for m in mscs if not is_rsc_schedulable(m)[0]]


@dataclass
class CausalClosureReport:
    checked_mscs: int
    checked_linearisations: int
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations


def check_causal_closure(system: System, bound: int,
                         max_events: int = 8) -> CausalClosureReport:
    """Every explored p2p MSC must be FIFO, and so must every linearisation.

    The MSC-level predicate is the same for all linearisations of one MSC,
    so it runs once per MSC, on its first linearisation; each linearisation
    is checked on its event sequence.
    """
    mscs, _, _ = p2p_mscs(p2p_explore(system, bound), max_events)
    violations = []
    n_lins = 0
    for m in mscs:
        lins = linearisations_p2p(m, limit=max_events)
        n_lins += len(lins)
        if not is_p2p_execution(lins[0]):
            violations.append((m, lins[0]))
        violations += [(m, lin) for lin in lins if not is_p2p_execution_by_sequence(lin)]
    return CausalClosureReport(len(mscs), n_lins, violations)


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
