import random
import re

import pytest

from chorcheck.automata import Nfa, includes
from chorcheck.complement import complement_dual, complement_renunciation
from chorcheck.formats import (ParseError, parse_automaton, parse_cfsm, parse_gt,
                               parse_msc, render_cfsm, render_dot, render_gt)
from chorcheck.gtype import project, sync_product
from chorcheck.oracle import bounded_existential
from chorcheck.randomgen import random_declaration, random_global_type
from chorcheck.trace import Arrow, msc_of

from conftest import FIXTURE_DIR


def test_parse_g0_file():
    g0 = parse_gt((FIXTURE_DIR / "g0.gt").read_text())
    m1, m2, m3 = Arrow("p", "q", "m1"), Arrow("r", "s", "m2"), Arrow("p", "q", "m3")
    assert g0.declaration.processes == ("p", "q", "r", "s")
    assert set(g0.declaration.arrows) == {m1, m2, m3}
    assert g0.automaton.names == ("q0", "q1", "sink")
    # L = (m1+m2)*(m2+m3)*
    assert g0.accepts((m2, m1, m3, m2)) and not g0.accepts((m3, m1))


def test_fixture_files_render_byte_for_byte(fixture_suite):
    # fixtures/*.gt are the one copy of the reference protocols: each parses
    # to a type of its file's name that renders back to the same bytes
    assert set(fixture_suite) == {p.stem for p in FIXTURE_DIR.glob("*.gt")}
    for name, g in fixture_suite.items():
        assert g.name == name
        assert render_gt(g) == (FIXTURE_DIR / f"{name}.gt").read_text(), name


def test_roundtrip_preserves_bounded_language(fixture_suite):
    for g in fixture_suite.values():
        back = parse_gt(render_gt(g))
        assert back.declaration == g.declaration
        assert bounded_existential(back, 5) == bounded_existential(g, 5), g.name


def test_roundtrip_renunciation(g_sd):
    r = complement_renunciation(g_sd)
    back = parse_gt(render_gt(r))
    assert bounded_existential(back, 4) == bounded_existential(r, 4)


def test_empty_automaton_block():
    g = parse_gt("gtype t { processes: p, q; messages: m; }")
    assert g.automaton.n_states == 1
    assert not g.automaton.accepting
    assert bounded_existential(g, 3) == set()


def test_states_only_accepting_epsilon():
    g = parse_gt("gtype t { processes: p, q; messages: m; states: s0*+; }")
    assert bounded_existential(g, 2) == {msc_of((), g.declaration)}


def test_self_message_rejected():
    src = """gtype t { processes: p, q; messages: m;
      states: s0*+;
      s0 -- p->p:m --> s0; }"""
    with pytest.raises(ParseError) as exc:
        parse_gt(src)
    assert "self-message" in str(exc.value)


def test_undeclared_identifiers_rejected_with_location():
    src = """gtype t { processes: p, q; messages: m;
      states: s0*+;
      s0 -- p->r:m --> s0; }"""
    with pytest.raises(ParseError) as exc:
        parse_gt(src)
    assert exc.value.line == 3
    assert "undeclared process 'r'" in str(exc.value)


def test_unknown_state_rejected():
    src = """gtype t { processes: p, q; messages: m;
      states: s0*+;
      s0 -- p->q:m --> s9; }"""
    with pytest.raises(ParseError) as exc:
        parse_gt(src)
    assert "unknown state 's9'" in str(exc.value)


def test_duplicate_state_rejected():
    src = "gtype t { processes: p, q; messages: m; states: s0*, s0; }"
    with pytest.raises(ParseError) as exc:
        parse_gt(src)
    assert "duplicate state" in str(exc.value)


def test_syntax_error_location():
    with pytest.raises(ParseError) as exc:
        parse_gt("gtype t {\n  processes p; }")
    assert exc.value.line == 2


def test_error_locations_span_lines_and_comments():
    src = ("gtype t {  # header\n"
           "  processes: p, q;\n"
           "  # a comment line\n"
           "  messages: m; states: s0*+;\n"
           "  s0 -- p->r:m --> s0; }")
    with pytest.raises(ParseError) as exc:
        parse_gt(src)
    assert (exc.value.line, exc.value.column) == (5, 9)
    assert str(exc.value).startswith("5:9: undeclared process 'r'")
    with pytest.raises(ParseError) as exc:
        parse_gt("gtype t {\n  # note\n  processes: p @ q;")
    assert (exc.value.line, exc.value.column) == (3, 16)
    assert str(exc.value) == "3:16: unexpected character '@'"
    with pytest.raises(ParseError) as exc:
        parse_gt("gtype t {\n  processes: p; messages: m;\n\n")
    assert (exc.value.line, exc.value.column) == (4, 1)   # at the end of the text


CFSM_HEAD = "cfsm pm of p {  # header\n  processes: p, q;\n  # a comment line\n"


@pytest.mark.parametrize("body, where, message", [
    ("  messages: m; states: t0*+;\n  t0 -- p!q:m --> t0 @", (5, 22),
     "unexpected character '@'"),
    ("  messages: m; states: t0*+;\n  t0 -- p!q:m --> t0;\n", (6, 1),
     "expected a transition or '}', found end of text"),
    ("  messages: m; states: t0*+;\n  t0 -- p!r:m --> t0; }", (5, 9),
     "undeclared process 'r'"),
    ("  messages: m; states: t0*+;\n  t0 -- p?q:m --> t9; }", (5, 19),
     "unknown state 't9'"),
    ("  messages: m; states: t0*, t1,\n   t0+; }", (4, 24),
     "duplicate state name 't0'"),
])
def test_cfsm_error_locations_span_lines_and_comments(body, where, message):
    with pytest.raises(ParseError) as exc:
        parse_cfsm(CFSM_HEAD + body)
    assert (exc.value.line, exc.value.column) == where
    assert str(exc.value) == f"{where[0]}:{where[1]}: {message}"


def test_initial_states_are_the_starred_ones():
    # state 0 is not initial here, and two states are
    g = parse_gt("""gtype t { processes: p, q; messages: m;
      states: a+, b*, c*;
      b -- p->q:m --> a;
      c -- q->p:m --> a; }""")
    m, back = Arrow("p", "q", "m"), Arrow("q", "p", "m")
    assert g.automaton.initial == {1, 2}
    assert g.accepts((m,)) and g.accepts((back,)) and not g.accepts(())


def test_comments_and_primes():
    src = """# leading comment
    gtype t' {
      processes: p, # r; s, a comment inside a section
        q';   # primes allowed
      messages: m2';
      states: s0*, s1+;
      s0 -- p->q':m2' --> s1;
    }"""
    g = parse_gt(src)
    assert g.declaration.processes == ("p", "q'")


def test_explicit_arrow_alphabet():
    src = """gtype t { processes: p, q; messages: m, n;
      arrows: p->q:m, p->q:n;
      states: s0*+;
      s0 -- p->q:m --> s0; }"""
    g = parse_gt(src)
    assert len(g.declaration.arrows) == 2  # n declared but unused


def test_arrow_missing_from_alphabet_located_at_its_first_use():
    src = """gtype t { processes: p, q; messages: m, n;
      arrows: p->q:m;
      states: s0*+, s1;
      s0 -- p->q:m --> s1;
      s1 -- q->p:n --> s0;
      s0 -- q->p:n --> s0; }"""
    with pytest.raises(ParseError) as exc:
        parse_gt(src)
    assert (exc.value.line, exc.value.column) == (5, 13)
    assert "q->p:n missing from the declared arrow alphabet" in str(exc.value)


_LETTER_HEAD = re.compile(r"([A-Za-z][A-Za-z0-9_']*)(->|!|\?)([A-Za-z][A-Za-z0-9_']*):")


def _respaced(text: str) -> str:
    """`text` with every letter spelled `p -> q : m`, a text no transition
    is split-read with, so the pattern reads every statement."""
    return _LETTER_HEAD.sub(r"\1 \2 \3 : ", text)


def test_split_read_agrees_with_the_pattern(fixture_suite):
    types = list(fixture_suite.values())
    for seed in range(12):
        rng = random.Random(seed)
        decl = random_declaration(rng, rng.randint(2, 4), 2, rng.randint(2, 5))
        g = random_global_type(rng, decl, rng.randint(2, 6), deterministic=seed % 2 == 0)
        types += [g, sync_product(project(g))]
    for g in types:
        system = project(g)
        for text, parse in [(render_gt(g), parse_gt)] + [
                (render_cfsm(c, system), parse_cfsm) for c in system.cfsms]:
            twin = _respaced(text)
            assert twin != text or "-->" not in text
            assert parse(text) == parse(twin), text
        back = parse_gt(render_gt(g))
        assert back.declaration == g.declaration
        assert back.automaton.transitions == g.automaton.transitions, g.name


def _chain(tail: str, kind: str = "gtype", close: str = "}") -> str:
    """A file of 40 transitions over two letters, so the split read takes
    all but the first two, followed by `tail` on line 45."""
    if kind == "gtype":
        head, letters, st = "gtype t {\n  processes: p, q, r;", ("p->q:m", "q->r:m"), "s"
    else:
        head, letters, st = "cfsm pm of p {\n  processes: p, q;", ("p!q:m", "p?q:m"), "t"
    states = ", ".join(f"{st}{i}" + ("*" if i == 0 else "") for i in range(10))
    body = [f"  {st}{i % 10} -- {letters[i % 2]} --> {st}{(i + 1) % 10};" for i in range(40)]
    return "\n".join([head, "  messages: m;", f"  states: {states};", *body, tail, close])


@pytest.mark.parametrize("text, message", [
    (_chain("  s3 -- p->q:m --> s99;"), "45:20: unknown state 's99'"),
    (_chain("  s3 -- p->x:m --> s4;"), "45:9: undeclared process 'x'"),
    (_chain("  s1 -- r -> p : m --> s2;\n  s2 -- r->p:m --> s3;\n  s3 -- r->p:m --> s3 s4;"),
     "47:3: expected a transition or '}', found 's3'"),
    (_chain("  s1 -- p->q:m => s2;"), "45:16: unexpected character '='"),
    (_chain("  s1 -> p->q:m --> s2;"), "45:3: expected a transition or '}', found 's1'"),
    (_chain("  s1 -- p->q:m --> s2", close=""),
     "45:3: expected a transition or '}', found 's1'"),
    (_chain("  s1\u00a0--\u00a0p->q:m\u00a0-->\u00a0s2;\n  s2 -- p->q:m -->\u00a0s77;"),
     "46:20: unknown state 's77'"),
    (_chain("  t3 -- q!p:m --> t4;", "cfsm"), "45:9: action owner 'q' is not 'p'"),
    (_chain("  t3 -- p!q:m --> t44;", "cfsm"), "45:19: unknown state 't44'"),
], ids=["unknown-destination", "undeclared-process", "spaced-then-unspaced",
        "not-an-arrow", "not-a-dash", "unterminated", "no-break-space", "cfsm-owner",
        "cfsm-unknown-state"])
def test_errors_after_split_read_statements(text, message):
    # each is the error the pattern alone reports, at the same place
    with pytest.raises(ParseError) as exc:
        parse_automaton(text)
    assert str(exc.value) == message


def test_split_read_takes_whitespace_as_the_pattern_does():
    text = _chain("  s1 -- q->r:m --> s2;")
    odd = text.replace(" -- p->q:m --> ", " --\u001cp->q:m\t--> ").replace(
        " -- q->r:m --> ", "\u00a0--\u00a0q->r:m -->\u00a0")
    assert odd != text and parse_gt(odd) == parse_gt(text)


def _same_language(g, h) -> bool:
    return includes(g.automaton, h.automaton)[0] and includes(h.automaton, g.automaton)[0]


def test_render_gives_colliding_state_names_fresh_ones():
    # the dual's added sink state is named like the type's own `sink`
    g = parse_gt("""gtype t { processes: p, q; messages: m;
      states: a*, sink+;
      a -- p->q:m --> sink; }""")
    gbar = complement_dual(g)
    text = render_gt(gbar)
    assert "states: a*+, sink, n2+;" in text
    assert _same_language(parse_gt(text), gbar)


def test_render_fallback_names_avoid_kept_names(g_sd):
    # renunciation state names like `(n7,p->q:m1)` are no identifiers, and
    # their fallback `n<index>` must not repeat a kept name such as n7
    a = g_sd.automaton
    renamed = g_sd.with_automaton(Nfa(a.alphabet, a.n_states, a.initial, a.transitions,
                                      a.accepting, ("n7", "n8", "n9", "n10")))
    r = complement_renunciation(renamed)
    back = parse_gt(render_gt(r))
    assert len(set(back.automaton.names)) == back.automaton.n_states
    assert _same_language(back, r)


def test_cfsm_roundtrip(real):
    system = project(real)
    for cfsm in system.cfsms:
        back = parse_cfsm(render_cfsm(cfsm, system))
        assert back.process == cfsm.process
        assert includes(back.automaton, cfsm.automaton)[0]
        assert includes(cfsm.automaton, back.automaton)[0]


def test_cfsm_owner_checked():
    src = """cfsm m of p { processes: p, q; messages: m;
      states: t0*+;
      t0 -- q!p:m --> t0; }"""
    with pytest.raises(ParseError):
        parse_cfsm(src)


def test_cfsm_trailing_text_rejected():
    src = """cfsm pm of p { processes: p, q; messages: m;
      states: t0*, t1+;
      t0 -- p!q:m --> t1; }
    garbage here {{{"""
    with pytest.raises(ParseError) as exc:
        parse_cfsm(src)
    assert exc.value.line == 4


def test_kind_is_the_header_keyword(real):
    text = render_cfsm(project(real).cfsms[0], project(real))
    assert parse_automaton(text) == parse_cfsm(text)
    with_arrows = text.replace("  states:", "  arrows: p->q:a, q->r:b;\n  states:")
    assert parse_cfsm(with_arrows) == parse_cfsm(text)   # read, checked, not used
    assert parse_automaton(render_gt(real)).automaton == real.automaton
    with pytest.raises(ParseError) as exc:
        parse_cfsm(render_gt(real))
    assert str(exc.value) == "1:1: expected 'cfsm NAME of NAME {', found 'gtype'"


def test_parse_msc(g_sd, gsd_arrows):
    a1, _, _, a3, _ = gsd_arrows
    m = parse_msc("p->q:m1; r->q':m3", g_sd.declaration)
    assert m == msc_of((a1, a3), g_sd.declaration)
    with pytest.raises(ParseError):
        parse_msc("p->z:m1", g_sd.declaration)


@pytest.mark.parametrize("text, where, message", [
    ("p->q:m1; r->q':m3; p->z:m1", (1, 20), "arrow p->z:m1 not in the declared alphabet"),
    ("p->q:m1; p-q:m1", (1, 10), "malformed arrow 'p-q:m1', expected p->q:m"),
    ("p->q:m1;\n  p->p:m1 ;", (2, 3), "self-message p->p:m1 not allowed"),
])
def test_parse_msc_errors_point_at_the_bad_arrow(g_sd, text, where, message):
    with pytest.raises(ParseError) as exc:
        parse_msc(text, g_sd.declaration)
    assert (exc.value.line, exc.value.column) == where
    assert str(exc.value) == f"{where[0]}:{where[1]}: {message}"


def test_dot_gt(g_sd):
    dot = render_dot(g_sd)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert 'label="p->q:m1"' in dot


def test_dot_renunciation_contains_s_acc(g_sd):
    r = complement_renunciation(g_sd)
    dot = render_dot(r)
    assert 's_acc' in dot
    # one node line per pruned state
    assert dot.count("shape=circle") + dot.count("shape=doublecircle") \
        == r.automaton.n_states


def test_dot_system(real):
    dot = render_dot(project(real))
    assert dot.count("subgraph") == 3
    with pytest.raises(TypeError):
        render_dot(42)
