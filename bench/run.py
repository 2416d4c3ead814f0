"""chorcheck benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload closure --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  The run
1. builds the workload's inputs from the seed (`workloads.py`), untimed;
2. measures `setup_s`, the median time a fresh interpreter takes to import
   `chorcheck.cli`;
3. runs the requests in one client process (`client.py`), closed loop, in
   passes for `--seconds`, and checks every exit code and JSON verdict
   against its known answer;
4. prints a summary and, as the last line, one JSON object with
   `correct`, `attempted`, `failed` and `metrics`.

A request's latency is the median of its timings in the run; a request
that ran past its budget has the budget as its latency.  `attempted` counts
the requests of the list and `failed` those of them that failed in any
execution.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
the request list, followed by the workload's probe requests, runs once
untraced and once traced (`tracer.py`), each request once, and the
metrics are the per-layer ones, plus the tracing overhead.  The traced
run leaves out the requests that ran past the budget when the corpus was
made, and gives the others `workloads.TRACE_BUDGET_S`, so its counts
repeat exactly.  Every process gets PYTHONHASHSEED=0, since exploration
order in chorcheck follows the hash seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402
import workloads  # noqa: E402

HASH_SEED = "0"
SETUP_SAMPLES = 11
CLIENT_TIMEOUT_S = 170
TAIL_BEYOND = 10

IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import chorcheck.cli; "
                  "print(time.perf_counter() - t)")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run the interpreter from the checkout root; raise if it fails."""
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout, check=True)


def measure_setup() -> float:
    """Median import time of chorcheck.cli in fresh interpreters (after one
    warm-up import that writes the bytecode caches)."""
    python(["-c", "import chorcheck.cli"], 60)
    return statistics.median(float(python(["-c", IMPORT_SNIPPET], 60).stdout)
                             for _ in range(SETUP_SAMPLES))


def measure_networkx_import() -> float:
    """Median cumulative import time of networkx under `import chorcheck.cli`."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        err = python(["-X", "importtime", "-c", "import chorcheck.cli"], 60).stderr
        total = 0.0
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "networkx":
                total += int(parts[1]) / 1e6
        samples.append(total)
    return statistics.median(samples)


def run_client(workdir: Path, requests_file: Path, seconds: float, trace: int,
               budget: float = workloads.BUDGET_S) -> dict:
    out = workdir / f"client-{trace}.json"
    python([str(BENCH_DIR / "client.py"), "--requests", str(requests_file),
            "--out", str(out), "--seconds", str(seconds),
            "--budget", str(budget), "--trace", str(trace)],
           CLIENT_TIMEOUT_S)
    return json.loads(out.read_text())


# ---------------------------------------------------------------------------
# known answers


def wrong_answer(expect: dict, res: dict) -> str | None:
    """Why the finished request `res` disagrees with `expect`, or None."""
    code, reply = res["code"], res.get("reply", {})
    kind = expect["kind"]
    if kind == "closed":
        ok = code == 0 and reply.get("commutation_closed") is True \
            and reply.get("deterministic") is True
    elif kind == "complement":
        ok = code == 0 and reply.get("guaranteed") is True \
            and reply.get("method") in expect["methods"]
    elif kind == "passes":
        ok = code == 0 and reply.get("passed") is True
    elif kind == "member":
        ok = code == (0 if expect["member"] else 1) and reply.get("member") is expect["member"]
    else:  # "verdict": recorded exit code and verdict fields
        ok = code == expect["code"] and all(
            reply.get(k) == v for k, v in expect.items() if k in ("verdict", "bound_hit"))
        if "rsc" in expect:
            ok = ok and reply.get("conditions", {}).get("rsc") == expect["rsc"]
    return None if ok else f"expected {expect}, got exit {code} {reply}"


def evaluate(requests: list[dict], results: list[dict]) -> dict:
    """Classify every request by its executions: dnf (one ran over budget),
    error (exit 2, a crash or a reply that is not JSON) or wrong (a verdict
    that disagrees with the known answer or with another execution)."""
    outcomes: dict = {}
    for res in results:
        outcomes.setdefault(res["id"], []).append(res)
    dnf, errors, wrong, groups = set(), set(), [], {}
    for i, runs in outcomes.items():
        req = requests[i]
        if not all(r["finished"] for r in runs):
            dnf.add(i)
            continue
        if any("error" in r or r["code"] not in (0, 1, 3) for r in runs):
            errors.add(i)
            continue
        answers = {json.dumps([r["code"], r.get("reply")], sort_keys=True) for r in runs}
        why = wrong_answer(req["expect"], runs[0])
        if why is None and len(answers) > 1:
            why = f"answers differ between executions: {sorted(answers)}"
        if why:
            wrong.append(f"{' '.join(req['argv'])}: {why}")
        if "group" in req:
            model = req["argv"][req["argv"].index("--model") + 1]
            groups.setdefault(req["group"], {})[model] = runs[0].get("reply", {}).get("verdict")
    for group, verdicts in groups.items():
        if verdicts.get("p2p") == "holds" and verdicts.get("synch") != "holds":
            wrong.append(f"{group}: p2p holds but synch does not")
    return {"dnf": len(dnf), "errors": len(errors), "wrong": wrong,
            "attempted": len(requests),
            "failed": len(dnf) + len(errors) + len(wrong)}


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with TAIL_BEYOND
    values beyond it; the maximum when there are too few values."""
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def median_timings(client: dict) -> list[float | None]:
    """Per request of the list: the median of its timings, or None when it
    ran past its budget."""
    per_request: dict = {}
    for r in client["results"]:
        per_request.setdefault(r["id"], []).append(r["seconds"] if r["finished"] else None)
    return [None if None in xs else statistics.median(xs) for xs in per_request.values()]


def end_to_end(client: dict, setup_s: float) -> tuple[dict, list[str]]:
    """Throughput and latency percentiles over the requests of the list,
    each with its latency in the run; a request over budget is charged at
    the budget."""
    medians = median_timings(client)
    lat = [workloads.BUDGET_S if x is None else x for x in medians]
    finished = sum(x is not None for x in medians)
    tail_s, pct = tail(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (finished / sum(lat), "1/s"),
        "verdict_p50_s": (statistics.median(lat), "s"),
        "verdict_tail_s": (tail_s, "s"),
        "peak_rss_mb": (client["peak_rss_mb"], "MB"),
    }
    counts = [0] * len(lat)
    for r in client["results"]:
        counts[r["id"]] += 1
    notes = [f"verdict_tail_s is p{pct:.1f} of {len(lat)} requests; each request's "
             f"latency is the median of its {min(counts)}-{max(counts)} timings; passes took "
             + ", ".join(f"{x:.1f}" for x in client["pass_s"]) + " s"]
    return metrics, notes


def per_layer(plain: dict, traced: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced pass, and its overhead over the
    untraced pass on the requests that finished in both."""
    metrics = tracer.layer_metrics(traced["totals"])
    finished = [(a["seconds"], b["seconds"])
                for a, b in zip(plain["results"], traced["results"])
                if a["finished"] and b["finished"]]
    plain_s = sum(a for a, _ in finished)
    traced_s = sum(b for _, b in finished)
    metrics["tracing.untraced_s"] = (plain_s, "s")
    metrics["tracing.traced_s"] = (traced_s, "s")
    metrics["tracing.overhead_share"] = (traced_s / plain_s - 1, "ratio")
    metrics["setup.networkx_import_s"] = (measure_networkx_import(), "s")
    notes = [f"traced {len(traced['results'])} requests once; "
             f"{len(traced['spans'])} spans kept"]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chorcheck" / "cli.py").is_file():
        print(f"error: no chorcheck sources under {SRC}", file=sys.stderr)
        return 2

    workdir = BENCH_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        requests = workloads.build(args.workload, args.seed, workdir, ROOT,
                                   probes=bool(args.trace))
        budget = workloads.TRACE_BUDGET_S if args.trace else workloads.BUDGET_S
        if args.trace:
            requests = [dict(r, reps=1) for r in requests
                        if r.get("recorded_s", 0) < workloads.BUDGET_S]
        requests_file = workdir / "requests.json"
        requests_file.write_text(json.dumps(requests))

        if args.trace:
            runs = [run_client(workdir, requests_file, 0, trace, budget)
                    for trace in (0, 1)]
            metrics, notes = per_layer(*runs)
            spans_file = BENCH_DIR / "out" / f"spans-{args.workload}-{args.seed}.json"
            spans_file.parent.mkdir(exist_ok=True)
            spans_file.write_text(json.dumps(runs[1]["spans"]))
        else:
            setup_s = measure_setup()
            client = run_client(workdir, requests_file, args.seconds, 0)
            runs = [client]
            metrics, notes = end_to_end(client, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [r for run in runs for r in run["results"]]
    outcome = evaluate(requests, results)
    attempted = outcome["attempted"]
    for line in outcome["wrong"][:10]:
        print(f"WRONG {line}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} requests, "
          f"{outcome['dnf']} over the {budget} s budget, "
          f"{outcome['errors']} errors")
    for note in notes:
        print(note)
    print(f"failed_share {outcome['failed'] / attempted:.4f} ratio")
    print(f"wrong_verdicts {len(outcome['wrong'])} count")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not outcome["wrong"] and not outcome["errors"],
        "attempted": attempted,
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
