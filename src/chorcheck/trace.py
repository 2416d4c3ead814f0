"""Arrows, commutation, and canonical traces (synchronous MSCs).

An MSC in the synchronous model is an equivalence class of arrow words
modulo swapping adjacent arrows whose participant sets are disjoint.
Classes are represented by their lexicographically least linearisation
under the declaration order, so MSC equality and hashing reduce to plain
tuple operations.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property


class SizeLimitError(Exception):
    """An enumeration would exceed a caller-supplied size limit."""


# Limits of the bounded enumerations of canonical traces
DEFAULT_MAX_ARROWS = 8
DEFAULT_MAX_EVENTS = 8
DEFAULT_MEMORY_GUARD = 10**6


class CommutingChoicesError(ValueError):
    """A choice set handed to next_arrow/next_msc contains a commuting pair."""


class DeclarationError(ValueError):
    """A process, message, or arrow is inconsistent with its declaration."""


class Arrow(namedtuple("Arrow", "sender receiver message")):
    """An atomic communication `sender->receiver:message`.

    A tuple, so hashing, equality and the (sender, receiver, message) order
    run in C.
    """

    __slots__ = ()

    def __new__(cls, sender: str, receiver: str, message: str):
        if sender == receiver:
            raise DeclarationError(f"self-message {sender}->{receiver}:{message} not allowed")
        return super().__new__(cls, sender, receiver, message)

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through it, so it checks too
        return cls(*iterable)

    def __str__(self) -> str:
        return f"{self.sender}->{self.receiver}:{self.message}"


def commute(a: Arrow, b: Arrow) -> bool:
    """Two arrows commute iff their participant sets are disjoint."""
    ends = (b.sender, b.receiver)
    return a.sender not in ends and a.receiver not in ends


def parse_arrow(text: str) -> Arrow:
    """Parse the textual form `p->q:m` (no whitespace inside)."""
    head, sep, message = text.partition(":")
    sender, sep2, receiver = head.partition("->")
    if not sep or not sep2 or not sender or not receiver or not message:
        raise DeclarationError(f"malformed arrow {text!r}, expected p->q:m")
    return Arrow(sender, receiver, message)


@dataclass(frozen=True)
class Declaration:
    """The declared process set, message set, and arrow alphabet.

    The arrow tuple is kept sorted by the total order
    (sender, receiver, message), each component compared by declaration
    position; this order drives every canonical form in the library.
    """

    processes: tuple[str, ...]
    messages: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        object.__setattr__(self, "processes", tuple(self.processes))
        object.__setattr__(self, "messages", tuple(self.messages))
        if len(set(self.processes)) != len(self.processes):
            raise DeclarationError("duplicate process names")
        if len(set(self.messages)) != len(self.messages):
            raise DeclarationError("duplicate message names")
        arrows = tuple(self.arrows)
        if len(set(arrows)) != len(arrows):
            raise DeclarationError("duplicate arrows in alphabet")
        procs = set(self.processes)
        msgs = set(self.messages)
        for a in arrows:
            if a.sender not in procs or a.receiver not in procs:
                raise DeclarationError(f"arrow {a} uses undeclared process")
            if a.message not in msgs:
                raise DeclarationError(f"arrow {a} uses undeclared message {a.message}")
        pidx = {p: i for i, p in enumerate(self.processes)}
        midx = {m: i for i, m in enumerate(self.messages)}
        key = lambda a: (pidx[a.sender], pidx[a.receiver], midx[a.message])
        object.__setattr__(self, "arrows", tuple(sorted(arrows, key=key)))

    @cached_property
    def arrow_index(self) -> dict[Arrow, int]:
        return {a: i for i, a in enumerate(self.arrows)}

    @cached_property
    def commutes(self) -> tuple[tuple[bool, ...], ...]:
        """`commutes[i][j]`: the arrows at positions i and j of `arrows` commute."""
        return tuple(tuple(commute(a, b) for b in self.arrows) for a in self.arrows)


def _insertion_point(trace: Sequence[int], a: int, commutes) -> int:
    # A word is the lex-least linearisation of its trace iff it has no
    # factor b·u·a with a < b and a independent of b and of every letter of
    # u (Anisimov-Knuth).  So arrow a goes left past the trailing arrows of
    # the normal form that commute with it, then right past those of them
    # that precede it in the declaration order.
    row = commutes[a]
    i = n = len(trace)
    while i and row[trace[i - 1]]:
        i -= 1
    while i < n and trace[i] < a:
        i += 1
    return i


def _insert(trace: tuple[int, ...], a: int, commutes) -> tuple[int, ...]:
    """The normal form of `trace` followed by arrow `a`, where `trace` is a
    normal form and arrows are positions in the declaration's `arrows`."""
    i = _insertion_point(trace, a, commutes)
    return trace[:i] + (a,) + trace[i:]


def _normal_form(word, declaration: Declaration) -> tuple[Arrow, ...]:
    # the fold of `_insert`, on one list rather than a tuple per letter
    index = declaration.arrow_index
    commutes = declaration.commutes
    trace: list[int] = []
    for a in word:
        i = index[a]
        trace.insert(_insertion_point(trace, i, commutes), i)
    arrows = declaration.arrows
    return tuple(arrows[i] for i in trace)


@dataclass(frozen=True)
class Msc:
    """A canonical trace; `word` is the lex-least linearisation."""

    word: tuple[Arrow, ...]
    declaration: Declaration = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return ";".join(str(a) for a in self.word)

    def __hash__(self) -> int:
        return hash(self.word)


def msc_of(word, declaration: Declaration) -> Msc:
    """Canonical trace of an arrow word."""
    word = tuple(word)
    index = declaration.arrow_index
    for a in word:
        if a not in index:
            raise DeclarationError(f"arrow {a} not in the declared alphabet")
    return Msc(_normal_form(word, declaration), declaration)


def is_normal_form(word, declaration: Declaration) -> bool:
    return tuple(word) == _normal_form(word, declaration)


def linearisations(m: Msc, limit: int = 10) -> frozenset[tuple[Arrow, ...]]:
    """All words with the same trace as `m` (exponential; bounded by `limit`)."""
    if len(m) > limit:
        raise SizeLimitError(f"MSC has {len(m)} events, limit is {limit}")
    results = set()

    def rec(rest, prefix):
        if not rest:
            results.add(tuple(prefix))
            return
        for i, a in enumerate(rest):
            if all(commute(rest[j], a) for j in range(i)):
                rec(rest[:i] + rest[i + 1 :], prefix + (a,))

    rec(m.word, ())
    return frozenset(results)


def _check_choices(choices) -> tuple[Arrow, ...]:
    choices = tuple(choices)
    for a, b in itertools.combinations(choices, 2):
        if commute(a, b):
            raise CommutingChoicesError(f"choices contain commuting arrows {a} and {b}")
    return choices


def next_arrow(m: Msc, choices) -> Arrow | None:
    """First arrow of `choices` occurring in `m`, in any linearisation.

    The choices must be pairwise non-commuting, which makes the result
    independent of the linearisation.
    """
    choice_set = set(_check_choices(choices))
    for a in m.word:
        if a in choice_set:
            return a
    return None


def next_msc(m: Msc, choices) -> Msc | None:
    """Remove next_arrow(m, choices) from `m` if its first occurrence is minimal.

    Returns None when next_arrow is undefined or the arrow is blocked by an
    earlier non-commuting occurrence.
    """
    a = next_arrow(m, choices)
    if a is None:
        return None
    i = m.word.index(a)
    if any(not commute(m.word[j], a) for j in range(i)):
        return None  # blocked
    return msc_of(m.word[:i] + m.word[i + 1 :], m.declaration)
