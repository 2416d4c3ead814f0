"""A small finite-automaton toolkit over arbitrary hashable letters.

States are integer indices; letters are whatever hashable values the
caller uses (arrows, local actions, plain strings in tests).  The letter
order is the position in the alphabet tuple and determines witness-word
tie-breaking (shortest, then lexicographically least).

There is one automaton type, `Nfa`, and it has no ε transitions: every
transition reads a letter of the alphabet.  A DFA is an `Nfa` whose `delta`
is not None: one initial state, at most one successor per (state, letter).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property


class AlphabetMismatchError(ValueError):
    """Binary operation applied to automata over different alphabets."""


class AutomatonError(ValueError):
    """Structurally invalid automaton."""


def _validate(alphabet, n_states, transitions, accepting, initials):
    letters = set(alphabet)
    if len(letters) != len(alphabet):
        raise AutomatonError("duplicate letters in alphabet")
    if None in letters:
        raise AutomatonError("None is not a letter")
    for s in initials:
        if not 0 <= s < n_states:
            raise AutomatonError(f"initial state {s} out of range")
    for s in accepting:
        if not 0 <= s < n_states:
            raise AutomatonError(f"accepting state {s} out of range")
    for s, x, t in transitions:
        if not (0 <= s < n_states and 0 <= t < n_states):
            raise AutomatonError(f"transition ({s},{x},{t}) out of range")
        if x not in letters:
            raise AutomatonError(f"transition letter {x!r} not in alphabet")


@dataclass(frozen=True)
class Nfa:
    alphabet: tuple
    n_states: int
    initial: frozenset
    transitions: frozenset  # triples (src, letter, dst)
    accepting: frozenset
    names: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        _validate(self.alphabet, self.n_states, self.transitions, self.accepting, self.initial)
        if self.names is not None and len(self.names) != self.n_states:
            raise AutomatonError("names length does not match state count")

    @cached_property
    def _step_map(self) -> dict:
        m: dict = {}
        for s, x, t in self.transitions:
            m.setdefault((s, x), set()).add(t)
        return m

    @cached_property
    def delta(self) -> dict | None:
        """(state, letter) -> successor if deterministic (one initial state,
        at most one successor per pair), else None."""
        if len(self.initial) != 1:
            return None
        delta = {}
        for s, x, t in self.transitions:
            if (s, x) in delta:
                return None
            delta[(s, x)] = t
        return delta

    def step(self, states, letter) -> frozenset:
        nxt = set()
        for s in states:
            nxt |= self._step_map.get((s, letter), set())
        return frozenset(nxt)

    def accepts(self, word) -> bool:
        states = self.initial
        for x in word:
            states = self.step(states, x)
            if not states:
                return False
        return bool(states & self.accepting)

    def state_name(self, s: int) -> str:
        return self.names[s] if self.names else f"s{s}"


def _explore(starts, successors) -> tuple[list, dict, list]:
    """Number the nodes reachable from `starts` in breadth-first discovery
    order; `successors(node)` yields (letter, node) pairs.

    Returns the nodes in order, the node -> index map and the transitions
    as (index, letter, index) triples, in the order they were followed.
    """
    index: dict = {}
    order: list = []
    for node in starts:
        if node not in index:
            index[node] = len(order)
            order.append(node)
    transitions = []
    for i, node in enumerate(order):  # `order` grows behind the scan: a FIFO queue
        for x, nxt in successors(node):
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(order)
                order.append(nxt)
            transitions.append((i, x, j))
    return order, index, transitions


def determinise(a: Nfa) -> Nfa:
    """Reachable-subset construction; never materialises the full powerset."""
    return image(a, a.alphabet, lambda x: x)


def image(a: Nfa, alphabet, rename) -> Nfa:
    """DFA for the image of L(a) under `rename`, by reachable subsets.

    `rename` maps each letter of `a` to a letter of `alphabet`, or to None
    to erase it.  A subset's closure is the set of states it reaches along
    erased letters; the subset accepts when its closure meets a's accepting
    states, and a kept letter moves it to where the letter leads from its
    closure.  Subsets are named by their states' names.
    """
    out = [[] for _ in range(a.n_states)]  # state -> [(renamed letter, successor)]
    for s, x, t in a.transitions:
        out[s].append((rename(x), t))
    accepting = set()

    def successors(subset):
        closure, stack, moves = set(subset), list(subset), {}
        while stack:  # each state of the closure is popped once
            s = stack.pop()
            for y, t in out[s]:
                if y is not None:
                    moves.setdefault(y, set()).add(t)
                elif t not in closure:
                    closure.add(t)
                    stack.append(t)
        if not a.accepting.isdisjoint(closure):
            accepting.add(subset)
        return ((y, frozenset(moves[y])) for y in alphabet if y in moves)

    order, _, transitions = _explore([a.initial], successors)
    names = tuple("{" + ",".join(sorted(a.state_name(s) for s in subset)) + "}"
                  for subset in order)
    return Nfa(alphabet, len(order), frozenset({0}), transitions,
               frozenset(i for i, subset in enumerate(order) if subset in accepting), names)


def _dfa_delta(d: Nfa) -> dict:
    """The transition map of a deterministic `d`."""
    if d.delta is None:
        raise AutomatonError("automaton is not deterministic")
    return d.delta


def complete(d: Nfa) -> Nfa:
    """Add a sink state to a DFA if some (state, letter) transition is missing."""
    delta = _dfa_delta(d)
    if len(delta) == d.n_states * len(d.alphabet):
        return d
    sink = d.n_states  # no (sink, x) is in delta, so the sink loops on every letter
    transitions = d.transitions | {(s, x, sink) for s in range(sink + 1)
                                   for x in d.alphabet if (s, x) not in delta}
    names = tuple(d.names) + ("sink",) if d.names else None
    return Nfa(d.alphabet, sink + 1, d.initial, transitions, d.accepting, names)


def dual(d: Nfa) -> Nfa:
    """Complete a DFA, then swap accepting and non-accepting states."""
    d = complete(d)
    accepting = frozenset(range(d.n_states)) - d.accepting
    return Nfa(d.alphabet, d.n_states, d.initial, d.transitions, accepting, d.names)


def product(a: Nfa, b: Nfa) -> Nfa:
    """Synchronized product; L(product) = L(a) ∩ L(b)."""
    if tuple(a.alphabet) != tuple(b.alphabet):
        raise AlphabetMismatchError("product requires identical alphabets")

    def successors(pair):
        s, t = pair
        for x in a.alphabet:
            for s2 in a._step_map.get((s, x), ()):
                for t2 in b._step_map.get((t, x), ()):
                    yield x, (s2, t2)

    start = [(s, t) for s in a.initial for t in b.initial]
    order, index, transitions = _explore(start, successors)
    if not order:  # one of the initial sets was empty
        return Nfa(a.alphabet, 1, frozenset(), frozenset(), frozenset())
    accepting = frozenset(i for i, (s, t) in enumerate(order)
                          if s in a.accepting and t in b.accepting)
    names = tuple(f"({a.state_name(s)},{b.state_name(t)})" for s, t in order)
    initial = frozenset(index[p] for p in start)
    return Nfa(a.alphabet, len(order), initial, transitions, accepting, names)


def _distances_to_accepting(a: Nfa) -> dict[int, int]:
    rev: dict[int, set[int]] = {}
    for s, x, t in a.transitions:
        rev.setdefault(t, set()).add(s)
    dist = {s: 0 for s in a.accepting}
    queue = deque(a.accepting)
    while queue:
        t = queue.popleft()
        for s in rev.get(t, ()):
            if s not in dist:
                dist[s] = dist[t] + 1
                queue.append(s)
    return dist


def is_empty(a: Nfa) -> tuple[bool, tuple | None]:
    """Emptiness with a shortest-then-lex-least witness word when non-empty."""
    dist = _distances_to_accepting(a)
    reachable_dists = [dist[s] for s in a.initial if s in dist]
    if not reachable_dists:
        return True, None
    length = min(reachable_dists)
    word = []
    states = a.initial
    remaining = length
    while remaining > 0:
        for x in a.alphabet:
            nxt = a.step(states, x)
            if any(dist.get(s, remaining) <= remaining - 1 for s in nxt):
                word.append(x)
                states = frozenset(s for s in nxt if dist.get(s, remaining) <= remaining - 1)
                break
        remaining -= 1
    return False, tuple(word)


def includes(a: Nfa, b: Nfa) -> tuple[bool, tuple | None]:
    """L(a) ⊇ L(b)?  Counterexample is a word of L(b) \\ L(a)."""
    comp = dual(determinise(a))
    empty, witness = is_empty(product(comp, b))
    return empty, witness


def reachable(a: Nfa) -> set[int]:
    """States reachable from the initial set along any transitions."""
    order, _, _ = _explore(a.initial, lambda s: (
        (x, t) for x in a.alphabet for t in a._step_map.get((s, x), ())))
    return set(order)


def _restrict(a: Nfa, keep) -> Nfa:
    """`a` on the states of `keep`, renumbered in increasing order."""
    keep = sorted(keep)
    renum = {s: i for i, s in enumerate(keep)}
    transitions = frozenset((renum[s], x, renum[t]) for s, x, t in a.transitions
                            if s in renum and t in renum)
    names = tuple(a.state_name(s) for s in keep)
    return Nfa(a.alphabet, len(keep), frozenset(renum[s] for s in a.initial if s in renum),
               transitions, frozenset(renum[s] for s in a.accepting if s in renum), names)


def trim(a: Nfa) -> Nfa:
    """Restrict to accessible and co-accessible states."""
    keep = reachable(a) & set(_distances_to_accepting(a))
    if not keep:
        return Nfa(a.alphabet, 1, frozenset({0}), frozenset(), frozenset(),
                   ("dead",))
    return _restrict(a, keep)


def prefix_closure(a: Nfa) -> Nfa:
    """Automaton for the set of prefixes of L(a): trim, then accept everywhere."""
    t = trim(a)
    if not t.accepting:  # the empty language: trim() left one dead state
        return t
    return Nfa(t.alphabet, t.n_states, t.initial, t.transitions,
               frozenset(range(t.n_states)), t.names)


def minimise(a: Nfa) -> Nfa:
    """Minimal complete DFA for L(a) (Moore partition refinement), numbered
    canonically; the subset construction runs only when `a` is not a DFA."""
    d = a if a.delta is not None else determinise(a)
    letters = {x: i for i, x in enumerate(d.alphabet)}
    sink = d.n_states  # the extra row every missing transition leads to
    rows = [[sink] * len(letters) for _ in range(sink + 1)]  # rows[s][i] = δ(s, letter i)
    for s, x, t in d.transitions:
        rows[s][letters[x]] = t
    block, n_blocks = [s in d.accepting for s in range(sink + 1)], 0
    while True:  # a round splits each block by its states' successor blocks
        classes: dict = {}
        block = [classes.setdefault((b, *[block[t] for t in row]), len(classes))
                 for b, row in zip(block, rows)]
        if len(classes) == n_blocks:
            break
        n_blocks = len(classes)
    # canonical numbering: BFS from the initial block, letters in order
    member = {b: s for s, b in enumerate(block)}  # one state of each block
    blocks, _, transitions = _explore([block[s] for s in d.initial], lambda b: zip(
        d.alphabet, [block[t] for t in rows[member[b]]]))
    accepting = frozenset(i for i, b in enumerate(blocks) if member[b] in d.accepting)
    return Nfa(d.alphabet, len(blocks), frozenset({0}), transitions, accepting)


def _bfs_word(alphabet, start, step, goal) -> tuple | None:
    """Shortest, then lexicographically least, word from `start` to a node
    satisfying `goal`; `step(node, letter)` returns a node or None."""
    parent = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if goal(node):
            word = []
            while parent[node] is not None:
                node, x = parent[node]
                word.append(x)
            return tuple(reversed(word))
        for x in alphabet:
            nxt = step(node, x)
            if nxt is not None and nxt not in parent:
                parent[nxt] = (node, x)
                queue.append(nxt)
    return None


def access_word(d: Nfa, s: int) -> tuple | None:
    """Shortest, then lexicographically least, word leading to state `s` of
    a DFA."""
    delta = _dfa_delta(d)
    (initial,) = d.initial
    return _bfs_word(d.alphabet, initial, lambda t, x: delta.get((t, x)),
                     lambda t: t == s)


def distinguishing_word(d: Nfa, p: int, q: int) -> tuple | None:
    """Shortest, then lexicographically least, v such that exactly one of
    δ(p,v) and δ(q,v) is accepting; None when p and q are equivalent.
    `d` must be a complete DFA."""
    delta = _dfa_delta(d)
    return _bfs_word(d.alphabet, (p, q),
                     lambda pq, x: (delta[(pq[0], x)], delta[(pq[1], x)]),
                     lambda pq: (pq[0] in d.accepting) != (pq[1] in d.accepting))


def words(a: Nfa, max_len: int):
    """Yield every accepted word of length <= max_len (depth-first, letters
    in alphabet order)."""
    if max_len < 0:
        raise ValueError(f"word length bound must be non-negative, got {max_len}")
    stack = [(a.initial, ())]
    while stack:
        states, prefix = stack.pop()
        if states & a.accepting:
            yield prefix
        if len(prefix) < max_len:
            stack.extend(reversed([(nxt, prefix + (x,)) for x in a.alphabet
                                   if (nxt := a.step(states, x))]))


def all_accepting(alphabet) -> Nfa:
    """One-state automaton accepting every word over `alphabet`."""
    transitions = frozenset((0, x, 0) for x in alphabet)
    return Nfa(tuple(alphabet), 1, frozenset({0}), transitions, frozenset({0}))
