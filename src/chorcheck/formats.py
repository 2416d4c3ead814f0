"""Textual formats: the `.gt` global-type files, CFSM files, and DOT export.

Grammar (UTF-8, `#` line comments, identifiers [A-Za-z][A-Za-z0-9_']*):

    gtype name {
      processes: p, q;
      messages: m;
      arrows: p->q:m;            # optional; defaults to the arrows used
      states: s0*, s1+;          # * initial, + accepting
      s0 -- p->q:m --> s1;
    }

CFSM files are analogous, with actions `p!q:m` / `p?q:m`:

    cfsm name of p { ... }
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


# A token is a plain (kind, value, offset) tuple, which is much cheaper to
# build than an object; the line and column of the offset are derived only
# when an error is reported.
Token = tuple[str, str, int]


# Each match skips whitespace and comments, then reads one token; at the end
# of the text it reads `eof`, and on any other character `bad`.
_TOKEN_RE = re.compile(r"(?:\s+|#[^\n]*)*(?:" + "|".join((
    r"(?P<edge_to>-->)",
    r"(?P<arrow>->)",
    r"(?P<edge_from>--)",
    rf"(?P<ident>{IDENT})",
    r"(?P<punct>[{}:;,*+!?])",
    r"(?P<eof>\Z)",
    r"(?P<bad>.)",
)) + ")")


def _location(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of `offset`."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        offset = m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {text[offset]!r}",
                             *_location(text, offset))
        tokens.append((kind, m[kind], offset))
        if kind == "eof":
            return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        """Value of the next token."""
        return self.tokens[self.pos][1]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Token) -> ParseError:
        return ParseError(message, *_location(self.text, tok[2]))

    def fail(self, message: str):
        raise self.error(message, self.tokens[self.pos])

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise self.error(f"expected {value or kind}, found {tok[1]!r}", tok)
        return tok

    def ident(self) -> str:
        return self.expect("ident")[1]

    def expect_keyword(self, word: str):
        tok = self.expect("ident")
        if tok[1] != word:
            raise self.error(f"expected {word!r}, found {tok[1]!r}", tok)

    def ident_list(self) -> list[str]:
        names = [self.ident()]
        while self.peek() == ",":
            self.next()
            names.append(self.ident())
        return names

    def parse_arrow_token(self) -> tuple[str, str, str, Token]:
        start = self.expect("ident")
        self.expect("arrow")
        receiver = self.ident()
        self.expect("punct", ":")
        message = self.ident()
        return start[1], receiver, message, start

    def parse_action_token(self) -> tuple[str, str, str, bool, Token]:
        start = self.expect("ident")
        mark = self.next()
        if mark[1] not in ("!", "?"):
            raise self.error("expected ! or ? in action", mark)
        peer = self.ident()
        self.expect("punct", ":")
        message = self.ident()
        return start[1], peer, message, mark[1] == "!", start


def _parse_states(p: _Parser):
    """states: s0*, s1+, s2*+; -> ordered (name, initial, accepting)."""
    entries = []
    while True:
        name = p.expect("ident")
        initial = accepting = False
        while p.peek() in ("*", "+"):
            flag = p.next()[1]
            if flag == "*":
                initial = True
            else:
                accepting = True
        entries.append((name, initial, accepting))
        if p.peek() != ",":
            break
        p.next()
    p.expect("punct", ";")
    names = [tok[1] for tok, _, _ in entries]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        tok = next(t for t, _, _ in entries if t[1] == dup)
        raise p.error(f"duplicate state name {dup!r}", tok)
    return entries


def _parse_declaration_sections(p: _Parser):
    processes = messages = None
    explicit_arrows = None
    while p.peek() in ("processes", "messages", "arrows"):
        section = p.next()[1]
        p.expect("punct", ":")
        if section == "processes":
            processes = p.ident_list()
        elif section == "messages":
            messages = p.ident_list()
        else:
            explicit_arrows = []
            while True:
                s, r, m, tok = p.parse_arrow_token()
                explicit_arrows.append((s, r, m, tok))
                if p.peek() != ",":
                    break
                p.next()
        p.expect("punct", ";")
    if processes is None:
        p.fail("missing 'processes:' section")
    if messages is None:
        p.fail("missing 'messages:' section")
    return processes, messages, explicit_arrows


def _build_arrow(p: _Parser, sender, receiver, message, tok, processes,
                 messages) -> Arrow:
    if sender not in processes:
        raise p.error(f"undeclared process {sender!r}", tok)
    if receiver not in processes:
        raise p.error(f"undeclared process {receiver!r}", tok)
    if message not in messages:
        raise p.error(f"undeclared message {message!r}", tok)
    try:
        return Arrow(sender, receiver, message)
    except DeclarationError as exc:
        raise p.error(str(exc), tok) from None


def parse_gt(text: str) -> GlobalType:
    p = _Parser(text)
    p.expect_keyword("gtype")
    name = p.ident()
    p.expect("punct", "{")
    processes, messages, explicit_arrows = _parse_declaration_sections(p)

    state_entries = []
    if p.peek() == "states":
        p.next()
        p.expect("punct", ":")
        state_entries = _parse_states(p)

    transitions_raw = []
    while p.peek() != "}":
        src = p.expect("ident")
        p.expect("edge_from")
        s, r, m, tok = p.parse_arrow_token()
        p.expect("edge_to")
        dst = p.expect("ident")
        p.expect("punct", ";")
        transitions_raw.append((src, (s, r, m, tok), dst))
    p.expect("punct", "}")
    p.expect("eof")

    if not state_entries and not transitions_raw:
        state_entries = [(("ident", "s0", 0), True, False)]
    names = [tok[1] for tok, _, _ in state_entries]
    index = {n: i for i, n in enumerate(names)}

    built: dict[tuple[str, str, str], Arrow] = {}  # in order of first use
    transitions = set()
    for src, (s, r, m, tok), dst in transitions_raw:
        for endpoint in (src, dst):
            if endpoint[1] not in index:
                raise p.error(f"unknown state {endpoint[1]!r}", endpoint)
        arrow = built.get((s, r, m))
        if arrow is None:
            arrow = built[(s, r, m)] = _build_arrow(p, s, r, m, tok, processes, messages)
        transitions.add((index[src[1]], arrow, index[dst[1]]))

    if explicit_arrows is not None:
        alphabet = [_build_arrow(p, s, r, m, tok, processes, messages)
                    for s, r, m, tok in explicit_arrows]
        declared = set(alphabet)
        for _, (s, r, m, tok), _ in transitions_raw:
            if built[(s, r, m)] not in declared:
                raise p.error(f"transition arrow {built[(s, r, m)]} missing "
                              "from the declared arrow alphabet", tok)
    else:
        alphabet = sorted(built.values(), key=lambda a: (a.sender, a.receiver, a.message))

    decl = Declaration(tuple(processes), tuple(messages), tuple(alphabet))
    initial = frozenset(i for i, (_, ini, _) in enumerate(state_entries) if ini)
    if not initial:
        initial = frozenset({0})
    accepting = frozenset(i for i, (_, _, acc) in enumerate(state_entries) if acc)
    nfa = Nfa(decl.arrows, len(names), initial, frozenset(transitions),
              accepting, tuple(names))
    return GlobalType(decl, nfa, name)


def render_gt(g: GlobalType) -> str:
    nfa = g.automaton
    name = re.sub(r"[^A-Za-z0-9_']+", "_", g.name or "unnamed").strip("_")
    if not re.fullmatch(IDENT, name):
        name = "unnamed"
    lines = [f"gtype {name} {{"]
    lines.append("  processes: " + ", ".join(g.declaration.processes) + ";")
    lines.append("  messages: " + ", ".join(g.declaration.messages) + ";")
    lines.append("  arrows: " + ", ".join(str(a) for a in g.declaration.arrows) + ";")
    names = _state_names(nfa)
    states = []
    for s in range(nfa.n_states):
        mark = ("*" if s in nfa.initial else "") + ("+" if s in nfa.accepting else "")
        states.append(names[s] + mark)
    lines.append("  states: " + ", ".join(states) + ";")
    for s, a, t in sorted(nfa.transitions,
                          key=lambda tr: (tr[0], str(tr[1]), tr[2])):
        lines.append(f"  {names[s]} -- {a} --> {names[t]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


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


def parse_cfsm(text: str) -> Cfsm:
    p = _Parser(text)
    p.expect_keyword("cfsm")
    p.expect("ident")  # machine name, informational
    p.expect_keyword("of")
    process = p.ident()
    p.expect("punct", "{")
    processes, messages, _ = _parse_declaration_sections(p)
    state_entries = []
    if p.peek() == "states":
        p.next()
        p.expect("punct", ":")
        state_entries = _parse_states(p)
    names = [tok[1] for tok, _, _ in state_entries]
    index = {n: i for i, n in enumerate(names)}
    transitions = set()
    alphabet = set()
    while p.peek() != "}":
        src = p.expect("ident")
        p.expect("edge_from")
        owner, peer, message, is_send, tok = p.parse_action_token()
        p.expect("edge_to")
        dst = p.expect("ident")
        p.expect("punct", ";")
        if owner != process:
            raise p.error(f"action owner {owner!r} is not {process!r}", tok)
        if peer not in processes or message not in messages:
            raise p.error("undeclared process or message in action", tok)
        act = LocalAction(owner, peer, message, is_send)
        alphabet.add(act)
        for endpoint in (src, dst):
            if endpoint[1] not in index:
                raise p.error(f"unknown state {endpoint[1]!r}", endpoint)
        transitions.add((index[src[1]], act, index[dst[1]]))
    p.expect("punct", "}")
    p.expect("eof")
    initial = frozenset(i for i, (_, ini, _) in enumerate(state_entries) if ini)
    accepting = frozenset(i for i, (_, _, acc) in enumerate(state_entries) if acc)
    nfa = Nfa(tuple(sorted(alphabet)), max(len(names), 1), initial or frozenset({0}),
              frozenset(transitions), accepting, tuple(names) or None)
    return Cfsm(process, determinise(nfa))


def render_cfsm(cfsm: Cfsm, system: System) -> str:
    d = cfsm.automaton
    lines = [f"cfsm {cfsm.process}_machine of {cfsm.process} {{",
             "  processes: " + ", ".join(system.declaration.processes) + ";",
             "  messages: " + ", ".join(system.declaration.messages) + ";"]
    states = []
    for s in range(d.n_states):
        mark = ("*" if s in d.initial else "") + ("+" if s in d.accepting else "")
        states.append(f"t{s}" + mark)
    lines.append("  states: " + ", ".join(states) + ";")
    for s, act, t in sorted(d.transitions, key=lambda tr: (tr[0], str(tr[1]), tr[2])):
        lines.append(f"  t{s} -- {act} --> t{t};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_msc(text: str, declaration: Declaration):
    """Parse a semicolon-separated arrow word into a canonical trace."""
    try:
        word = tuple(parse_arrow(part.strip())
                     for part in text.strip().split(";") if part.strip())
        return msc_of(word, declaration)
    except DeclarationError as exc:
        raise ParseError(str(exc), 1, 1) from None


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
    for s, x, t in sorted(a.transitions, key=lambda tr: (tr[0], str(tr[1]), tr[2])):
        out.append(f'  {prefix}{s} -> {prefix}{t} [label="{_dot_escape(str(x))}"];')


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
