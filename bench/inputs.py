"""Member-query MSCs and their known answers, without calling chorcheck.

`make_recorded.py` draws the query MSCs from automata read here out of
`.gt` text.  `member_oracle` gives the known answer of each query: it walks
the downward-closed event sets of one MSC (one per-process progress vector
each) and shares no code with chorcheck's trace or membership code.
Arrows are plain `(sender, receiver, message)` triples.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass


def arrow_text(a) -> str:
    return f"{a[0]}->{a[1]}:{a[2]}"


def commute(a, b) -> bool:
    return not ({a[0], a[1]} & {b[0], b[1]})


@dataclass(frozen=True)
class Automaton:
    """An NFA over arrow triples, read from a parsed `.gt` file."""

    initial: frozenset
    accepting: frozenset
    step_map: dict  # (state, arrow) -> frozenset of states

    def step(self, states, a) -> frozenset:
        out = set()
        for s in states:
            out |= self.step_map.get((s, a), frozenset())
        return frozenset(out)


def random_accepted_word(rng: random.Random, aut: Automaton, arrows, length: int):
    """A uniformly chosen next arrow at each step, among those from which an
    accepting state is still reachable in exactly the remaining steps."""
    can = [set(aut.accepting)]
    for _ in range(length):
        can.append({s for (s, _a), ts in aut.step_map.items() if ts & can[-1]})
    states = [s for s in sorted(aut.initial) if s in can[length]]
    if not states:
        return None
    s = rng.choice(states)
    word = []
    for k in range(length, 0, -1):
        options = sorted((a, t) for a in arrows
                         for t in aut.step_map.get((s, a), ()) if t in can[k - 1])
        a, s = rng.choice(options)
        word.append(a)
    return tuple(word)


def parse_word(text: str):
    """Arrow triples of a `p->q:m;...` word."""
    word = []
    for part in text.split(";"):
        head, _, message = part.partition(":")
        sender, _, receiver = head.partition("->")
        word.append((sender, receiver, message))
    return tuple(word)


def shuffle_commuting(rng: random.Random, word, swaps: int):
    """Another linearisation of the same MSC, by random adjacent swaps."""
    w = list(word)
    for _ in range(swaps):
        i = rng.randrange(len(w) - 1)
        if commute(w[i], w[i + 1]):
            w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


def _downsets(word, processes):
    """Per-process event sequences and the enabled-event function."""
    pidx = {p: k for k, p in enumerate(processes)}
    seq = [[i for i, a in enumerate(word) if p in (a[0], a[1])] for p in processes]
    events = [(i, pidx[a[0]], pidx[a[1]]) for i, a in enumerate(word)]

    def enabled(vec):
        return [(i, ps, pr) for i, ps, pr in events
                if vec[ps] < len(seq[ps]) and seq[ps][vec[ps]] == i
                and vec[pr] < len(seq[pr]) and seq[pr][vec[pr]] == i]

    return enabled, tuple(len(s) for s in seq)


def member_oracle(aut: Automaton, word, processes, universal: bool) -> bool:
    """Does some (every, when `universal`) linearisation of word's MSC
    belong to L(aut)?

    Explores the lattice of downward-closed event sets layer by layer,
    tracking the reachable state sets (existential) or the subsets reached
    by each linearisation prefix (universal).
    """
    enabled, full = _downsets(word, processes)
    start = tuple(0 for _ in processes)
    if universal:
        layer = {start: {frozenset(aut.initial)}}
    else:
        layer = {start: set(aut.initial)}
    for _ in range(len(word)):
        nxt: dict = {}
        for vec, payload in layer.items():
            for i, ps, pr in enabled(vec):
                v2 = list(vec)
                v2[ps] += 1
                v2[pr] += 1
                v2 = tuple(v2)
                if universal:
                    nxt.setdefault(v2, set()).update(aut.step(sub, word[i]) for sub in payload)
                else:
                    nxt.setdefault(v2, set()).update(aut.step(payload, word[i]))
        layer = nxt
    reached = layer.get(full, set())
    if universal:
        return all(sub & aut.accepting for sub in reached)
    return bool(set(reached) & aut.accepting)


_STATE_RE = re.compile(r"^\s*states:\s*(.*);\s*$")
_EDGE_RE = re.compile(r"^\s*(\S+)\s+--\s+(\S+)->(\S+):(\S+)\s+-->\s+(\S+);\s*$")
_PROC_RE = re.compile(r"^\s*processes:\s*(.*);\s*$")


def read_automaton(text: str):
    """(Automaton, processes) of a `.gt` text with a `states:` line."""
    names, initial, accepting, processes = {}, set(), set(), ()
    step_map: dict = {}
    for line in text.splitlines():
        if m := _PROC_RE.match(line):
            processes = tuple(p.strip() for p in m.group(1).split(","))
        elif m := _STATE_RE.match(line):
            for k, entry in enumerate(e.strip() for e in m.group(1).split(",")):
                name = entry.rstrip("*+")
                names[name] = k
                if "*" in entry[len(name):]:
                    initial.add(k)
                if "+" in entry[len(name):]:
                    accepting.add(k)
        elif m := _EDGE_RE.match(line):
            src, s, r, msg, dst = m.groups()
            key = (names[src], (s, r, msg))
            step_map[key] = step_map.get(key, frozenset()) | {names[dst]}
    return Automaton(frozenset(initial or {0}), frozenset(accepting), step_map), processes
