"""Textual formats: global types (`.gt`), CFSMs (`.cfsm`) and DOT export.

Both file kinds share one grammar.  Text is UTF-8, `#` starts a comment
that runs to the end of its line, and a NAME is [A-Za-z][A-Za-z0-9_']*:

    file       = header section... [states] transition... "}"
    header     = "gtype" NAME "{"              a global type
               | "cfsm" NAME "of" NAME "{"     the CFSM of the named process
    section    = "processes:" NAME, ... ";"    required
               | "messages:" NAME, ... ";"     required
               | "arrows:" ARROW, ... ";"      optional; defaults to the
                                               arrows the transitions use
    states     = "states:" NAME[*][+], ... ";" * initial, + accepting
    transition = NAME "--" LETTER "-->" NAME ";"

The header's keyword decides the kind, and the kind decides the letter: a
`.gt` letter is an arrow `p->q:m`, a `.cfsm` letter is an action of the
machine's process, a send `p!q:m` or a receive `p?q:m`.  Without a `*`, the
first state is initial; a file without `states:` has no transitions and one
state, `s0`, initial and not accepting.

    gtype name {
      processes: p, q;
      messages: m;
      states: s0*, s1+;
      s0 -- p->q:m --> s1;
    }

The reader blanks the comments, then reads one statement per match of that
statement's pattern, so every offset, and so every line and column in an
error, is that of the text.  A transition that repeats a letter text the
pattern already accepted, with declared states, is read by splitting it at
whitespace instead; it would have matched the pattern with the same groups.
"""

from __future__ import annotations

import re

from .automata import Nfa, determinise
from .gtype import GlobalType
from .semantics import Cfsm, LocalAction, System
from .trace import Arrow, Declaration, DeclarationError, msc_of, parse_arrow

IDENT = r"[A-Za-z][A-Za-z0-9_']*"


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


# The letter of each kind, as groups (process, mark, peer, message).
_LETTERS = {"gtype": rf"({IDENT})\s*(->)\s*({IDENT})\s*:\s*({IDENT})",
            "cfsm": rf"({IDENT})\s*([!?])\s*({IDENT})\s*:\s*({IDENT})"}
_HEADERS = {"gtype": "'gtype NAME {'", "cfsm": "'cfsm NAME of NAME {'"}
_STATE = rf"{IDENT}[\s*+]*"

# One pattern per statement; each skips the whitespace before it.
_HEADER = re.compile(rf"\s*(?:gtype\s+({IDENT})|cfsm\s+{IDENT}\s+of\s+({IDENT}))\s*{{")
_SECTION = re.compile(rf"\s*(?:(processes|messages)\s*:\s*({IDENT}(?:\s*,\s*{IDENT})*)"
                      rf"|arrows\s*:\s*({_LETTERS['gtype']}(?:\s*,\s*{_LETTERS['gtype']})*))\s*;")
_STATES = re.compile(rf"\s*states\s*:\s*({_STATE}(?:,\s*{_STATE})*);")
_TRANSITIONS = {kind: re.compile(rf"\s*({IDENT})\s*--\s*{letter}\s*-->\s*({IDENT})\s*;")
                for kind, letter in _LETTERS.items()}
_CLOSE = re.compile(r"\s*}")
_END = re.compile(r"\s*\Z")

# Pieces of a statement, and what an error reports.
_COMMA = re.compile(r"\s*,\s*")
_ARROW_ITEM = re.compile(_LETTERS["gtype"])
_STATE_ITEM = re.compile(rf"({IDENT})([\s*+]*)")
_COMMENT = re.compile(r"#[^\n]*")
_MSC_PART = re.compile(r"[^;\s][^;]*")  # an arrow of an MSC, and the spaces after it
_TOKEN = re.compile(rf"\s*(?:(-->|->|--|{IDENT}|[{{}}:;,*+!?])|(\S)|\Z)")


def _location(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of `offset`."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _error(text: str, offset: int, message: str) -> ParseError:
    return ParseError(message, *_location(text, offset))


def _fail(text: str, pos: int, expected: str):
    """Raise for the statement at `pos`, which no pattern matched: at the first
    character from `pos` on that starts no token, or else at its first token."""
    first = None
    for m in _TOKEN.finditer(text, pos):
        if m[2]:
            raise _error(text, m.start(2), f"unexpected character {m[2]!r}")
        first = first or m
        if m[1] is None:  # the end of the text
            break
    if first[1] is None:
        raise _error(text, first.end(), f"expected {expected}, found end of text")
    raise _error(text, first.start(1), f"expected {expected}, found {first[1]!r}")


def _read(text: str, want: str | None):
    """The global type or CFSM in `text`.  Its header decides which, and must
    name `want` when that is given."""
    if "#" in text:
        text = _COMMENT.sub(lambda c: " " * len(c[0]), text)
    head = _HEADER.match(text)
    kind = head and ("gtype" if head[1] else "cfsm")
    if kind is None or want not in (None, kind):
        _fail(text, 0, _HEADERS[want] if want else " or ".join(_HEADERS.values()))
    pos = head.end()
    sections = {}
    while s := _SECTION.match(text, pos):
        sections[s[1] or "arrows"] = s
        pos = s.end()
    for key in ("processes", "messages"):
        if key not in sections:
            _fail(text, pos, f"a '{key}:' section")
    processes = _COMMA.split(sections["processes"][2])
    messages = _COMMA.split(sections["messages"][2])
    declared = None

    def letter(offset, process, mark, peer, message):
        if mark != "->" and process != head[2]:
            raise _error(text, offset, f"action owner {process!r} is not {head[2]!r}")
        for name in (process, peer):
            if name not in processes:
                raise _error(text, offset, f"undeclared process {name!r}")
        if message not in messages:
            raise _error(text, offset, f"undeclared message {message!r}")
        if mark != "->":
            return LocalAction(process, peer, message, mark == "!")
        try:
            arrow = Arrow(process, peer, message)
        except DeclarationError as exc:
            raise _error(text, offset, str(exc)) from None
        if declared is not None and arrow not in declared:
            raise _error(text, offset, f"transition arrow {arrow} missing from the "
                                       "declared arrow alphabet")
        return arrow

    arrows = None
    if "arrows" in sections:
        arrows = [letter(a.start(), *a.groups())
                  for a in _ARROW_ITEM.finditer(text, *sections["arrows"].span(3))]
        declared = set(arrows)

    entries = []  # (name, offset, flags)
    if st := _STATES.match(text, pos):
        entries = [(e[1], e.start(), e[2]) for e in _STATE_ITEM.finditer(text, *st.span(1))]
        pos = st.end()
    index = {}
    for i, (name, offset, _) in enumerate(entries):
        if index.setdefault(name, i) != i:
            raise _error(text, entries[index[name]][1], f"duplicate state name {name!r}")

    # Each transition ends at its first ';'.  A piece that is exactly
    # `src -- letter --> dst`, with both states declared and a letter text
    # the pattern already accepted, is read by `str.split`, whose whitespace
    # is the pattern's `\s`; any other piece goes through the pattern, which
    # raises every error.
    letters, spelled, transitions = {}, {}, set()
    match = _TRANSITIONS[kind].match
    pieces = text[pos:].split(";")
    del pieces[-1]  # the text after the last ';' ends no statement
    for piece in pieces:
        words = piece.split()
        if (len(words) == 5 and words[1] == "--" and words[3] == "-->"
                and words[2] in spelled and words[0] in index and words[4] in index):
            transitions.add((index[words[0]], spelled[words[2]], index[words[4]]))
        elif t := match(text, pos):
            src, process, mark, peer, message, dst = t.groups()
            if src not in index:
                raise _error(text, t.start(1), f"unknown state {src!r}")
            if dst not in index:
                raise _error(text, t.start(6), f"unknown state {dst!r}")
            key = (process, mark, peer, message)
            x = letters.get(key)
            if x is None:
                x = letters[key] = letter(t.start(2), *key)
            spelled[text[t.start(2):t.end(5)]] = x
            transitions.add((index[src], x, index[dst]))
        else:
            break
        pos += len(piece) + 1
    if not (close := _CLOSE.match(text, pos)):
        _fail(text, pos, "a transition or '}'" if st else "'states:', a transition or '}'")
    if not _END.match(text, close.end()):
        _fail(text, close.end(), "end of text")

    names = tuple(name for name, _, _ in entries) or ("s0",)
    initial = frozenset(i for i, e in enumerate(entries) if "*" in e[2]) or frozenset({0})
    accepting = frozenset(i for i, e in enumerate(entries) if "+" in e[2])
    if kind == "cfsm":
        nfa = Nfa(tuple(sorted(letters.values())), len(names), initial,
                  frozenset(transitions), accepting, names)
        return Cfsm(head[2], determinise(nfa))
    arrows = letters.values() if arrows is None else arrows  # Declaration sorts them
    decl = Declaration(tuple(processes), tuple(messages), tuple(arrows))
    nfa = Nfa(decl.arrows, len(names), initial, frozenset(transitions), accepting, names)
    return GlobalType(decl, nfa, head[1])


def parse_gt(text: str) -> GlobalType:
    return _read(text, "gtype")


def parse_cfsm(text: str) -> Cfsm:
    return _read(text, "cfsm")


def parse_automaton(text: str) -> GlobalType | Cfsm:
    """A global type or a CFSM, as the header of `text` says."""
    return _read(text, None)


def _transitions(a: Nfa) -> list[tuple[int, str, int]]:
    """The transitions of `a`, each letter as its text, in the order every
    writer lists them."""
    label = {x: str(x) for x in a.alphabet}
    return sorted((s, label[x], t) for s, x, t in a.transitions)


def _write(header: str, declaration: Declaration, arrows: bool, a: Nfa, names) -> str:
    """A file: the header, the sections (`arrows:` only with `arrows`), the
    `states:` line and one line per transition."""
    lines = [header, "  processes: " + ", ".join(declaration.processes) + ";",
             "  messages: " + ", ".join(declaration.messages) + ";"]
    if arrows:
        lines.append("  arrows: " + ", ".join(map(str, declaration.arrows)) + ";")
    states = [names[s] + ("*" if s in a.initial else "") + ("+" if s in a.accepting else "")
              for s in range(a.n_states)]
    lines.append("  states: " + ", ".join(states) + ";")
    lines.extend(f"  {names[s]} -- {x} --> {names[t]};" for s, x, t in _transitions(a))
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_gt(g: GlobalType) -> str:
    name = re.sub(r"[^A-Za-z0-9_']+", "_", g.name or "unnamed").strip("_")
    if not re.fullmatch(IDENT, name):
        name = "unnamed"
    return _write(f"gtype {name} {{", g.declaration, True, g.automaton,
                  _state_names(g.automaton))


def _state_names(nfa: Nfa) -> list[str]:
    """One distinct identifier per state: the state's own name when it is an
    identifier that no earlier state kept, else a fresh `n<index>` (primed
    until no state uses it)."""
    own = [nfa.state_name(s) for s in range(nfa.n_states)]
    taken = {name for name in own if re.fullmatch(IDENT, name)}
    names, kept = [], set()
    for s, name in enumerate(own):
        if name in taken and name not in kept:
            kept.add(name)
        else:
            name = f"n{s}"
            while name in taken:
                name += "'"
            taken.add(name)
        names.append(name)
    return names


def render_cfsm(cfsm: Cfsm, system: System) -> str:
    d = cfsm.automaton
    return _write(f"cfsm {cfsm.process}_machine of {cfsm.process} {{", system.declaration,
                  False, d, [f"t{s}" for s in range(d.n_states)])


def parse_msc(text: str, declaration: Declaration):
    """Parse a semicolon-separated arrow word into a canonical trace.  An
    error is reported where its arrow starts."""
    word = []
    for part in _MSC_PART.finditer(text):
        try:
            arrow = parse_arrow(part[0].rstrip())
        except DeclarationError as exc:
            raise _error(text, part.start(), str(exc)) from None
        if arrow not in declaration.arrow_index:
            raise _error(text, part.start(), f"arrow {arrow} not in the declared alphabet")
        word.append(arrow)
    return msc_of(word, declaration)


# ---------------------------------------------------------------------------
# DOT export


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def _dot_automaton(out: list, prefix: str, a: Nfa):
    out.append(f'  {prefix}init [shape=point];')
    for s in range(a.n_states):
        shape = "doublecircle" if s in a.accepting else "circle"
        out.append(f'  {prefix}{s} [label="{_dot_escape(a.state_name(s))}", shape={shape}];')
    for s in a.initial:
        out.append(f"  {prefix}init -> {prefix}{s};")
    for s, x, t in _transitions(a):
        out.append(f'  {prefix}{s} -> {prefix}{t} [label="{_dot_escape(x)}"];')


def render_dot(obj) -> str:
    """DOT rendering for a GlobalType, a Cfsm, or a System."""
    out = ["digraph g {", "  rankdir=LR;"]
    if isinstance(obj, (GlobalType, Cfsm)):
        _dot_automaton(out, "s", obj.automaton)
    elif isinstance(obj, System):
        for k, cfsm in enumerate(obj.cfsms):
            out.append(f"  subgraph cluster_{k} {{")
            out.append(f'    label="{_dot_escape(cfsm.process)}";')
            inner: list[str] = []
            _dot_automaton(inner, f"c{k}_", cfsm.automaton)
            out.extend("  " + line for line in inner)
            out.append("  }")
    else:
        raise TypeError(f"cannot render {type(obj).__name__} as DOT")
    out.append("}")
    return "\n".join(out) + "\n"
