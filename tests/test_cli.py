import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import chorcheck
from chorcheck import oracle
from chorcheck.cli import _witness_json, build_parser, main
from chorcheck.formats import ParseError
from chorcheck.gtype import DeclarationMismatchError
from chorcheck.semantics import recv_action, send_action
from chorcheck.trace import Arrow, DeclarationError

from conftest import (FIXTURE_DIR, FIXTURE_NAMES, THREE_SENDS, load_fixture,
                      load_schema)

G0 = str(FIXTURE_DIR / "g0.gt")
GSD = str(FIXTURE_DIR / "g_sd.gt")
REAL = str(FIXTURE_DIR / "real.gt")
NONREAL = str(FIXTURE_DIR / "nonreal.gt")
CROSS = str(FIXTURE_DIR / "cross.gt")
BRANCH = str(FIXTURE_DIR / "branch.gt")
SINGLE = str(FIXTURE_DIR / "single.gt")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, schema, *argv):
    code, out = run(capsys, *argv, "--json")
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema(schema))
    return code, payload


def test_classify_g0(capsys):
    code, payload = run_json(capsys, "classify", "classify", G0)
    assert code == 0
    assert payload["commutation_closed"] is True


def test_classify_text_output(capsys):
    code, out = run(capsys, "classify", GSD)
    assert code == 0
    assert "sender_driven: True" in out


def test_complement_and_verify_pipeline(capsys, tmp_path):
    out_file = tmp_path / "renun.gt"
    code, payload = run_json(capsys, "complement", "complement", GSD,
                             "--method", "renunciation", "-o", str(out_file))
    assert code == 0
    assert payload["method"] == "renunciation"
    assert out_file.exists()
    code, payload = run_json(capsys, "verify_complement", "verify-complement",
                             GSD, str(out_file), "--max-events", "5")
    assert code == 0
    assert payload["passed"] is True


def test_complement_auto_branch_fails(capsys):
    code = main(["complement", BRANCH])
    capsys.readouterr()
    assert code == 1


def test_text_complement_warns_when_not_guaranteed(capsys, tmp_path):
    # an under-approximation is flagged by one stderr line, with and without
    # -o; stdout, the JSON payload and a true complement's run are unchanged
    assert main(["complement", "--method", "cartesian", NONREAL]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("gtype cartesian_complement_nonreal {")
    assert err == ("warning: under-approximation; exact when the type is "
                   "deadlock-free realisable in the synchronous model\n")
    assert main(["complement", "--method", "cartesian", NONREAL,
                 "-o", str(tmp_path / "bar.gt")]) == 0
    assert capsys.readouterr() == ("", err)
    assert main(["complement", "--method", "cartesian", NONREAL, "--json"]) == 0
    assert capsys.readouterr().err == ""
    assert main(["complement", "--method", "dual", G0]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("gtype ") and err == ""


def test_verify_complement_violations(capsys):
    code, payload = run_json(capsys, "verify_complement", "verify-complement",
                             G0, G0, "--max-events", "2")
    assert code == 1
    assert payload["violations"]


def test_member(capsys):
    code, payload = run_json(capsys, "member", "member", GSD,
                             "--msc", "p->q:m1;r->q':m3")
    assert code == 0 and payload["member"] is True
    code, payload = run_json(capsys, "member", "member", GSD,
                             "--msc", "p->q:m1;r->q':m3", "--universal")
    assert code == 1 and payload["member"] is False


def test_member_renunciation_rejects_m1(capsys, tmp_path):
    out_file = tmp_path / "renun.gt"
    main(["complement", GSD, "--method", "renunciation", "-o", str(out_file)])
    capsys.readouterr()
    code, payload = run_json(capsys, "member", "member", str(out_file),
                             "--msc", "p->q:m1;r->q':m3")
    assert code == 1 and payload["member"] is False


def test_project(capsys, tmp_path):
    code, out = run(capsys, "project", REAL, "-o", str(tmp_path / "cfsms"))
    assert code == 0
    assert (tmp_path / "cfsms" / "p.cfsm").exists()
    assert (tmp_path / "cfsms" / "r.cfsm").exists()


def test_project_json(capsys, tmp_path):
    code, payload = run_json(capsys, "project", "project", REAL)
    assert code == 0 and sorted(payload["cfsms"]) == ["p", "q", "r"]
    code, text = run(capsys, "project", REAL)
    assert text == "".join(t + "\n" for t in payload["cfsms"].values())
    outdir = tmp_path / "cfsms"
    code, again = run_json(capsys, "project", "project", REAL, "-o", str(outdir))
    assert code == 0 and again == payload
    assert (outdir / "p.cfsm").read_text() == payload["cfsms"]["p"]


def test_empty_cc_witness_is_an_empty_list(capsys):
    # g0 given as its own complement: both accept the empty word
    code, payload = run_json(capsys, "realisable", "realisable", G0, "--model", "synch",
                             "--complement", G0)
    assert payload["cc_holds"] is False and payload["cc_witness"] == []


def test_realisable_synch(capsys, tmp_path):
    comp = tmp_path / "bar.gt"
    main(["complement", REAL, "-o", str(comp)])
    capsys.readouterr()
    code, payload = run_json(capsys, "realisable", "realisable", REAL,
                             "--model", "synch", "--complement", str(comp))
    assert code == 0 and payload["verdict"] == "holds"

    comp2 = tmp_path / "nbar.gt"
    main(["complement", NONREAL, "-o", str(comp2)])
    capsys.readouterr()
    code, payload = run_json(capsys, "realisable", "realisable", NONREAL,
                             "--model", "synch", "--complement", str(comp2))
    assert code == 1 and payload["verdict"] == "fails"
    assert payload["cc_witness"]


def test_realisable_p2p(capsys, tmp_path):
    comp = tmp_path / "bar.gt"
    main(["complement", REAL, "-o", str(comp)])
    capsys.readouterr()
    code, payload = run_json(capsys, "realisable", "realisable", REAL,
                             "--model", "p2p", "--complement", str(comp))
    assert code == 0 and payload["verdict"] == "holds"


def test_realisable_p2p_unknown_is_flagged(capsys, tmp_path):
    comp = tmp_path / "bar.gt"
    main(["complement", SINGLE, "-o", str(comp)])
    capsys.readouterr()
    code, out = run(capsys, "realisable", SINGLE, "--model", "p2p",
                    "--complement", str(comp), "--max-events", "1")
    assert code == 3
    assert "\nverdict: unknown\n" in out
    assert ("\nnote: semi-decision: conditions 1-3 checked up to the channel bound "
            "and event budget only\n") in out


def test_channel_bound_cut_is_unknown(capsys, tmp_path):
    # the third send finds the channel full at bound 2, well within the event
    # budget: only the channel bound cuts the search, so conditions 1-3 and
    # the verdict read `unknown`, and simulate reports the bound hit
    gt, comp = str(tmp_path / "three.gt"), str(tmp_path / "three.complement.gt")
    Path(gt).write_text(THREE_SENDS)
    assert main(["complement", gt, "-o", comp]) == 0
    code, payload = run_json(capsys, "realisable", "realisable", gt, "--model", "p2p",
                             "--complement", comp, "--bound", "2", "--max-events", "8")
    assert code == 3 and payload["verdict"] == "unknown"
    assert {name: c["status"] for name, c in payload["conditions"].items()} == {
        "rsc": "unknown", "orphan_free": "unknown", "accept_completion": "unknown",
        "synch_realisable": "holds"}
    code, payload = run_json(capsys, "simulate", "simulate", gt, "--bound", "2",
                             "--max-events", "8")
    assert code == 3 and payload["bound_hit"] is True


def test_output_file_takes_the_document(capsys, tmp_path):
    # with -o the document goes to the file, and text mode prints nothing
    for argv in (["complement", GSD, "-o", str(tmp_path / "c.gt")],
                 ["project", REAL, "-o", str(tmp_path / "cfsms")]):
        assert run(capsys, *argv) == (0, ""), argv


def test_simulate(capsys):
    code, payload = run_json(capsys, "simulate", "simulate", CROSS,
                             "--bound", "2")
    assert code == 1
    assert payload["rsc_violations"]
    code, payload = run_json(capsys, "simulate", "simulate", REAL,
                             "--bound", "2")
    assert code == 0
    assert not payload["deadlocks"]
    assert payload["model"] == "p2p"
    # p2p is the only model, so there is no option to choose it
    assert main(["simulate", REAL, "--model", "p2p"]) == 2
    assert "unrecognized arguments: --model" in capsys.readouterr().err


LOOP = """gtype loop {
  processes: p, q;
  messages: m;
  states: s0*+;
  s0 -- p->q:m --> s0;
}
"""


def test_input_sized_searches_end_in_a_verdict(capsys, tmp_path):
    # searches deeper than Python's recursion limit (1,000 frames) end in a
    # verdict, not in a RecursionError; a recursive search overflows on both.
    # RSC is decided inside the exploration, one update per event, so the
    # long run also ends quickly; each of its 1,501 MSCs is RSC
    loop = tmp_path / "loop.gt"
    loop.write_text(LOOP)
    assert main(["simulate", str(loop), "--bound", "1", "--max-events", "1500"]) == 3
    out = capsys.readouterr().out
    assert "\nbound_hit: True\n" in out and "\nrsc_violations: 0\n" in out
    msc = ";".join(["p->q:m1"] * 500)
    for extra in ([], ["--universal"]):
        code, out = run(capsys, "member", G0, "--msc", msc, *extra)
        assert code == 0, extra
        assert "member: True" in out
    # a rejecting random query visits every prefix of its MSC
    rng = random.Random(2)
    msc = ";".join(rng.choice(["p->q:m1", "p->q:m3", "r->s:m2"]) for _ in range(300))
    for extra in ([], ["--universal"]):
        code, out = run(capsys, "member", G0, "--msc", msc, *extra)
        assert code == 1, extra
        assert "member: False" in out


def test_rsc_verdicts_do_not_call_the_reference(capsys, monkeypatch, tmp_path):
    def reference(m):
        raise AssertionError("the verdict path called the reference RSC check")

    comp = tmp_path / "bar.gt"
    main(["complement", CROSS, "-o", str(comp)])
    capsys.readouterr()
    monkeypatch.setattr(oracle, "is_rsc_schedulable", reference)
    code, payload = run_json(capsys, "simulate", "simulate", CROSS, "--bound", "2")
    assert code == 1
    assert payload["rsc_violations"] == ["p: p!q:m p?q:m' | q: q!p:m' q?p:m"]
    code, payload = run_json(capsys, "realisable", "realisable", CROSS, "--model", "p2p",
                             "--complement", str(comp), "--bound", "2")
    assert code == 1
    assert payload["conditions"]["rsc"] == {
        "status": "fails", "witness": "p: p!q:m p?q:m' | q: q!p:m' q?p:m"}


def test_cfsm_with_a_duplicate_state_name_is_refused(capsys, tmp_path):
    path = tmp_path / "dup.cfsm"
    path.write_text("cfsm m of p {\n  processes: p, q;\n  messages: m;\n"
                    "  states: a*, a+;\n  a -- p!q:m --> a;\n}\n")
    assert main(["dot", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: 4:11: duplicate state name 'a'\n"


def test_dot_reads_a_cfsm_that_starts_with_a_comment(capsys, tmp_path):
    main(["project", REAL, "-o", str(tmp_path)])
    path = tmp_path / "p.cfsm"
    code, plain = run(capsys, "dot", str(path))
    assert code == 0
    path.write_text("# note\n" + path.read_text())
    assert run(capsys, "dot", str(path)) == (0, plain)
    assert main(["classify", str(path)]) == 2     # a CFSM is no global type
    err = capsys.readouterr().err
    assert err == f"error: {path}: 2:1: expected 'gtype NAME {{', found 'cfsm'\n"


def test_dot(capsys):
    code, out = run(capsys, "dot", G0)
    assert code == 0 and out.startswith("digraph")
    code, payload = run_json(capsys, "dot", "dot", G0)
    assert code == 0 and payload["dot"] == out


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    first = run(capsys, "classify", G0, "--json")
    parsers = len(built)
    assert main(["classify"]) == 2                    # usage error in between
    assert capsys.readouterr().err.startswith("usage:")
    second = run(capsys, "classify", G0, "--json")
    assert built.count("chorcheck") == 1
    assert len(built) == parsers
    assert second == first and first[0] == 0


def test_member_reports_where_the_bad_arrow_starts(capsys):
    assert main(["member", GSD, "--msc", "p->q:m1; r->q':m3; p->z:m1"]) == 2
    assert capsys.readouterr().err == \
        "error: 1:20: arrow p->z:m1 not in the declared alphabet\n"
    assert main(["member", GSD, "--msc", "p->q:m1; p-q:m1"]) == 2
    assert capsys.readouterr().err == \
        "error: 1:10: malformed arrow 'p-q:m1', expected p->q:m\n"


@pytest.mark.parametrize("error, argv, message", [
    (ParseError, ["member", GSD, "--msc", "p->p:m1"],
     "1:1: self-message p->p:m1 not allowed"),
    (DeclarationError, ["classify", "DUP"], "duplicate process names"),
    (DeclarationMismatchError, ["verify-complement", GSD, G0],
     "complement verification requires one declaration"),
], ids=["parse", "declaration", "declaration-mismatch"])
def test_each_value_error_kind_exits_2(capsys, tmp_path, error, argv, message):
    # these errors are ValueErrors, which the error table maps to exit code 2
    dup = tmp_path / "dup.gt"
    dup.write_text("gtype t {\n  processes: p, p;\n  messages: m;\n  states: s0*;\n}\n")
    argv = [str(dup) if a == "DUP" else a for a in argv]
    args = build_parser().parse_args(argv)
    with pytest.raises(error):  # the command itself raises that kind
        args.func(args)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_witness_json_tells_a_word_from_a_lone_letter():
    arrow, other = Arrow("p", "q", "m1"), Arrow("r", "s", "m2")
    send, recv = send_action("p", "q", "m1"), recv_action("q", "p", "m1")
    assert _witness_json(arrow) == "p->q:m1"
    assert _witness_json(send) == "p!q:m1"
    assert _witness_json(recv) == "q?p:m1"
    assert _witness_json((arrow, other)) == "p->q:m1;r->s:m2"
    assert _witness_json((arrow,)) == "p->q:m1"
    assert _witness_json((send, recv)) == "p!q:m1;q?p:m1"
    assert _witness_json(()) == ""
    assert _witness_json(None) is None
    assert _witness_json("(1,2)") == "(1,2)"  # a stuck product state's name


def test_oracle_enumerate(capsys):
    code, payload = run_json(capsys, "oracle_enumerate", "oracle", "enumerate",
                             SINGLE, "--max-events", "2")
    assert code == 0 and payload["count"] == 3


def test_oracle_count_profile(capsys):
    code, payload = run_json(capsys, "oracle_count_profile", "oracle",
                             "count-profile", BRANCH, "--predicate", "k1>k2")
    assert code == 0 and payload["passed"] is True


def test_oracle_count_profile_over_word_budget_is_unknown(capsys, monkeypatch):
    from chorcheck import oracle

    monkeypatch.setattr(oracle, "DEFAULT_MEMORY_GUARD", 5)
    assert main(["oracle", "count-profile", BRANCH]) == 3
    err = capsys.readouterr().err
    assert "exceeds the guard 5" in err and "Traceback" not in err


def test_usage_errors(capsys):
    assert main(["classify"]) == 2                    # missing argument
    capsys.readouterr()
    assert main(["classify", "/nonexistent.gt"]) == 2
    capsys.readouterr()
    assert main(["member", GSD, "--msc", "p->z:m1"]) == 2
    capsys.readouterr()
    # a negative length used to make the word enumeration run forever
    assert main(["oracle", "count-profile", BRANCH, "--max-len", "-1"]) == 2
    assert "non-negative integer" in capsys.readouterr().err
    code, payload = run_json(capsys, "oracle_count_profile", "oracle",
                             "count-profile", BRANCH, "--max-len", "0")
    assert code == 0 and payload["checked_words"] == 0


def test_verify_complement_over_size_limit_is_unknown(capsys):
    code = main(["verify-complement", G0, G0, "--max-events", "9"])
    err = capsys.readouterr().err
    assert code == 3
    assert "exceeds the limit" in err and "Traceback" not in err


NINE_ARROWS = """gtype nine {
  processes: p, q;
  messages: m1, m2, m3, m4, m5, m6, m7, m8, m9;
  arrows: %s;
  states: s0*+;
}
""" % ", ".join(f"p->q:m{i}" for i in range(1, 10))


def test_size_limits_are_unknown(capsys, tmp_path):
    nine = str(tmp_path / "nine.gt")
    Path(nine).write_text(NINE_ARROWS)
    for argv in (["verify-complement", nine, nine, "--max-events", "1"],
                 ["oracle", "enumerate", G0, "--max-events", "9"],
                 ["oracle", "enumerate", nine, "--max-events", "1"]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 3, argv
        assert err.startswith("error:") and "exceeds the limit" in err, argv
        assert out == ""


# Every subcommand, with BAD standing for the path of the bad input.
BAD = "<bad>"
SUBCOMMANDS = {
    "classify": ["classify", BAD],
    "complement": ["complement", BAD],
    "verify-complement": ["verify-complement", BAD, G0],
    "verify-complement-gbar": ["verify-complement", G0, BAD],
    "member": ["member", BAD, "--msc", "p->q:m1"],
    "member-universal": ["member", BAD, "--msc", "p->q:m1", "--universal"],
    "project": ["project", BAD],
    "realisable-synch": ["realisable", BAD, "--model", "synch", "--complement", G0],
    "realisable-p2p-complement": ["realisable", G0, "--model", "p2p",
                                  "--complement", BAD],
    "simulate": ["simulate", BAD],
    "dot": ["dot", BAD],
    "oracle-enumerate": ["oracle", "enumerate", BAD],
    "oracle-count-profile": ["oracle", "count-profile", BAD],
}


@pytest.mark.parametrize("bad", ["missing", "malformed"])
@pytest.mark.parametrize("argv", SUBCOMMANDS.values(), ids=SUBCOMMANDS.keys())
def test_bad_input_is_usage_error(capsys, tmp_path, argv, bad):
    path = tmp_path / "bad.gt"
    if bad == "malformed":
        path.write_text("gtype broken {\n  processes: p, q;\n  states: s0* s1;\n")
    argv = [str(path) if a == BAD else a for a in argv]
    for extra in ([], ["--json"]):
        code = main(argv + extra)
        out, err = capsys.readouterr()
        # exit 1 means "property fails" and must come with a verdict
        assert code == 2, argv + extra
        assert err.startswith("error:") and "Traceback" not in err
        assert out == ""


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    code = main(["complement", GSD, "-o", str(tmp_path / "missing" / "x.gt")])
    assert code == 2
    assert "cannot write" in capsys.readouterr().err
    (tmp_path / "file").write_text("")
    code = main(["project", REAL, "-o", str(tmp_path / "file" / "cfsms")])
    assert code == 2
    assert "cannot write" in capsys.readouterr().err


def test_bounds_must_be_positive(capsys):
    for flag in ("--bound", "--max-events"):
        code = main(["realisable", REAL, "--model", "p2p", flag, "0",
                     "--complement", REAL])
        assert code == 2
        assert "positive integer" in capsys.readouterr().err


def test_realisable_complement_of_other_declaration_is_usage_error(capsys):
    for model in ("synch", "p2p"):
        code = main(["realisable", REAL, "--complement", G0, "--model", model])
        err = capsys.readouterr().err
        assert code == 2, model
        assert err.startswith("error:") and "Traceback" not in err


def test_cli_import_loads_no_third_party_module():
    # nor the oracle, which only the two `oracle` commands import
    code = ("import sys; before = set(sys.modules); import chorcheck.cli; "
            "new = {n.partition('.')[0] for n in set(sys.modules) - before}; "
            "assert 'chorcheck.oracle' not in sys.modules; "
            "print(sorted(new - set(sys.stdlib_module_names) - {'chorcheck'}))")
    src = str(Path(chorcheck.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_p2p_output_does_not_depend_on_hash_seed(tmp_path):
    # the p2p exploration takes each state's steps in alphabet order, so the
    # deadlock list and the reported non-RSC MSC do not follow set iteration
    deadlock = str(FIXTURE_DIR / "deadlock.gt")
    comp = tmp_path / "deadlock.complement.gt"
    assert main(["complement", deadlock, "--method", "auto", "-o", str(comp)]) == 0
    src = str(Path(chorcheck.__file__).resolve().parents[1])
    for argv in (["simulate", deadlock, "--json"],
                 ["realisable", deadlock, "--model", "p2p", "--complement",
                  str(comp), "--json"]):
        outputs = set()
        for seed in "0123":
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH"))))}
            r = subprocess.run([sys.executable, "-m", "chorcheck.cli", *argv],
                               env=env, capture_output=True, text=True, timeout=60)
            assert r.returncode == 1, (argv, seed, r.stderr)
            outputs.add(r.stdout)
        assert len(outputs) == 1, argv


def fixture_argvs(tmp_path):
    """Every command on every fixture.  `realisable` takes the fixture's auto
    complement, and is left out where there is none."""
    for name in FIXTURE_NAMES:
        gt = str(FIXTURE_DIR / f"{name}.gt")
        comp = str(tmp_path / f"{name}.complement.gt")
        has_comp = main(["complement", gt, "-o", comp]) == 0
        yield ["classify", gt]
        for method in ("auto", "dual", "cartesian", "renunciation"):
            yield ["complement", gt, "--method", method]
        yield ["verify-complement", gt, comp if has_comp else gt, "--max-events", "3"]
        arrow = str(load_fixture(name).declaration.arrows[0])
        yield ["member", gt, "--msc", arrow]
        yield ["member", gt, "--msc", arrow, "--universal"]
        yield ["project", gt]
        for model in ("synch", "p2p") if has_comp else ():
            yield ["realisable", gt, "--model", model, "--complement", comp]
        yield ["simulate", gt]
        yield ["dot", gt]
        yield ["oracle", "enumerate", gt, "--max-events", "2"]
        yield ["oracle", "count-profile", gt, "--max-len", "4"]


@pytest.fixture
def fixture_outputs(capsys, tmp_path):
    """(argv, exit code, JSON payload, text output) of every command on every
    fixture that gives a payload."""
    outputs = []
    for argv in fixture_argvs(tmp_path):
        capsys.readouterr()
        code = main(argv + ["--json"])
        out = capsys.readouterr().out
        assert main(argv) == code, argv
        if out:
            outputs.append((argv, code, json.loads(out), capsys.readouterr().out))
    assert {payload["command"] for _, _, payload, _ in outputs} == {
        "classify", "complement", "verify-complement", "member", "project",
        "realisable", "simulate", "dot", "oracle-enumerate", "oracle-count-profile"}
    return outputs


def test_no_witness_is_a_python_repr(fixture_outputs):
    # p2p witnesses are words of arrows or local actions, not str() of objects
    reprs = ("Arrow(", "P2pConfiguration(", "LocalAction(")
    assert any(argv[0] == "realisable" and "p2p" in argv and code == 1
               for argv, code, _, _ in fixture_outputs)
    for argv, _, payload, _ in fixture_outputs:
        assert not any(r in json.dumps(payload) for r in reprs), argv


def scalars(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [s for v in value for s in scalars(v)]
    return [value]


def test_text_renders_the_json_payload(fixture_outputs):
    # a document prints as it is; any other payload prints each scalar field
    # as `key: value` and each list as `key: length`, indented under the key
    # of its dict, and then each list item on a line that holds its scalars
    for argv, _, payload, text in fixture_outputs:
        doc = payload.get("gt", payload.get("dot", payload.get("cfsms")))
        if doc is not None:
            assert text == (doc if isinstance(doc, str)
                            else "".join(t + "\n" for t in doc.values())), argv
            continue
        lines = text.splitlines()
        fields = [(payload, "")]
        while fields:
            entries, indent = fields.pop()
            for key, value in entries.items():
                if isinstance(value, dict):
                    assert f"{indent}{key}:" in lines, (argv, key)
                    fields.append((value, indent + "  "))
                elif isinstance(value, list):
                    at = lines.index(f"{indent}{key}: {len(value)}")
                    for line, item in zip(lines[at + 1:], value):
                        assert line.startswith(indent + "  "), (argv, key)
                        assert all(str(s) in line for s in scalars(item)), (argv, key)
                else:
                    assert f"{indent}{key}: {value}" in lines, (argv, key)
