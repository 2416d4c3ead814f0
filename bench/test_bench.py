"""Tests of the benchmark itself; they are not part of the tier-1 suite.

    python3 -m pytest bench/test_bench.py -q

They run the benchmark with `--seconds 0` (one pass over the requests), so
the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import client  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC_WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 1


def bench(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs of each workload at the same seed."""
    return {w: (bench(w, 1), bench(w, 1)) for w in SPEC_WORKLOADS}


def check_printed(lines: list[str], wanted: list[dict]):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in wanted}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    for line in ("failed_share", "wrong_verdicts"):
        assert any(row.startswith(line + " ") for row in lines)
    return result


@pytest.mark.parametrize("workload", SPEC_WORKLOADS)
def test_smoke_end_to_end_metrics_printed_with_units(workload):
    result = check_printed(bench(workload, 0), SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    if workload == "closure":  # the 6-process rung's two requests fail, not dropped
        assert result["failed"] >= 2


@pytest.mark.parametrize("workload", SPEC_WORKLOADS)
def test_smoke_per_layer_metrics_printed_with_units(workload, traced_runs):
    check_printed(traced_runs[workload][0], SPEC["per_layer"])


@pytest.mark.parametrize("workload", SPEC_WORKLOADS)
def test_trace_counts_repeat_exactly(workload, traced_runs):
    first, second = (json.loads(lines[-1])["metrics"] for lines in traced_runs[workload])
    counts = [name for name, m in first.items() if m["unit"] in ("count", "ratio")
              and not name.startswith("tracing.")]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_wrong_known_answer_makes_run_invalid(monkeypatch, capsys):
    build = workloads.build

    def corrupted(*args, **kwargs):
        requests = build(*args, **kwargs)
        expect = next(r["expect"] for r in requests if r["expect"]["kind"] == "verdict")
        expect["code"] = 1 if expect["code"] != 1 else 0
        return requests

    monkeypatch.setattr(workloads, "build", corrupted)
    assert run.main(["--workload", "p2p", "--seed", str(SEED), "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert any(line.startswith("WRONG ") for line in lines)


def test_p2p_holds_without_synch_is_wrong():
    requests = [{"argv": ["realisable", "g.gt", "--model", model],
                 "expect": {"kind": "verdict", "code": code, "verdict": verdict},
                 "group": "g"}
                for model, code, verdict in (("p2p", 0, "holds"), ("synch", 1, "fails"))]
    results = [{"id": i, "pass": 0, "finished": True, "code": r["expect"]["code"],
                "seconds": 0.1, "reply": {"verdict": r["expect"]["verdict"]}}
               for i, r in enumerate(requests)]
    outcome = run.evaluate(requests, results)
    assert outcome["wrong"] == ["g: p2p holds but synch does not"]


def test_tail_is_the_maximum_of_few_values():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail([float(x) for x in range(1, 21)]) == (10.0, 50.0)


def test_pass_order_spreads_repetitions_and_keeps_first_places():
    requests = [{"reps": r} for r in (1, 3, 1, 2, 5)]
    order = client.pass_order(requests)
    assert sorted(order) == sorted(i for i, r in enumerate(requests) for _ in range(r["reps"]))
    firsts = sorted(range(len(requests)), key=order.index)
    assert firsts == list(range(len(requests)))
    assert order[:2] == [0, 1] and order.count(4) == 5


def test_draw_keeps_the_heaviest_units_and_repeats_with_the_seed():
    units = workloads.load_recorded()["p2p"]
    first, second = (workloads.draw(units, random.Random(7)) for _ in range(2))
    assert first == second
    eligible = sorted((u for u in units if u["family"] != "fixture"
                       and max(u["request_s"]) <= workloads.CAP_S), key=lambda u: u["seconds"])
    assert all(u in first for u in eligible[-workloads.HEAVIEST:])
    assert all(max(u["request_s"]) <= workloads.CAP_S for u in first)


def test_member_oracle_agrees_with_chorcheck():
    sys.path.insert(0, str(ROOT / "src"))
    from chorcheck.formats import parse_gt
    from chorcheck.gtype import member_existential, member_universal
    from chorcheck.oracle import enumerate_canonical

    for entry in workloads.load_recorded()["member_types"].values():
        for text in entry.values():
            g = parse_gt(text)
            aut, processes = inputs.read_automaton(text)
            for m in enumerate_canonical(g.declaration, 4):
                word = tuple((a.sender, a.receiver, a.message) for a in m.word)
                assert inputs.member_oracle(aut, word, processes, False) == \
                    member_existential(g, m), str(m)
                assert inputs.member_oracle(aut, word, processes, True) == \
                    member_universal(g, m), str(m)


def test_tracer_rebinds_every_imported_name():
    code = """
import sys, types
import tracer
t = tracer.Tracer()
bound = t.install()
import chorcheck.realisability as r, chorcheck.semantics as s, chorcheck.gtype as g
import chorcheck.automata as a
assert r.is_msc_prefix is s.is_msc_prefix and hasattr(s.is_msc_prefix, "__wrapped__")
assert g.determinise is a.determinise and hasattr(a.determinise, "__wrapped__")
originals = {id(f.__wrapped__) for m in list(sys.modules.values())
             if m.__name__.startswith("chorcheck")
             for f in vars(m).values() if hasattr(f, "__wrapped__")}
left = [(m.__name__, n) for m in list(sys.modules.values())
        if m.__name__.startswith("chorcheck")
        for n, f in vars(m).items() if id(f) in originals]
assert not left, left
assert bound["semantics.is_msc_prefix"] >= 2, bound
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR,
                          env=run.child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
