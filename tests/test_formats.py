import pytest

from chorcheck.complement import complement_renunciation
from chorcheck.formats import (ParseError, parse_cfsm, parse_gt, parse_msc,
                               render_cfsm, render_dot, render_gt)
from chorcheck.gtype import project
from chorcheck.oracle import bounded_existential
from chorcheck.trace import msc_of

from conftest import FIXTURE_DIR


def test_parse_g0_file(g0):
    parsed = parse_gt((FIXTURE_DIR / "g0.gt").read_text())
    assert parsed.declaration == g0.declaration
    assert bounded_existential(parsed, 5) == bounded_existential(g0, 5)


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


def test_comments_and_primes():
    src = """# leading comment
    gtype t' {
      processes: p, q';   # primes allowed
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


def test_cfsm_roundtrip(real):
    system = project(real)
    for cfsm in system.cfsms:
        back = parse_cfsm(render_cfsm(cfsm, system))
        assert back.process == cfsm.process
        assert set(back.automaton.transitions)  # non-trivial machines survive


def test_cfsm_owner_checked():
    src = """cfsm m of p { processes: p, q; messages: m;
      states: t0*+;
      t0 -- q!p:m --> t0; }"""
    with pytest.raises(ParseError):
        parse_cfsm(src)


def test_parse_msc(g_sd, gsd_arrows):
    a1, _, _, a3, _ = gsd_arrows
    m = parse_msc("p->q:m1; r->q':m3", g_sd.declaration)
    assert m == msc_of((a1, a3), g_sd.declaration)
    with pytest.raises(ParseError):
        parse_msc("p->z:m1", g_sd.declaration)


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
