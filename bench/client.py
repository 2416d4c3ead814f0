"""One closed-loop client: runs a request list through `chorcheck.cli.main`.

Started by `run.py` in a fresh interpreter, from the checkout root, with
`src` on the path.  Requests run one at a time, in passes: in each pass a
request runs `reps` times, at evenly spaced places in the list order, so
that the timings of a short request are spread over the pass.  The first
pass always runs whole; later passes follow until `--seconds` have gone
by, and the run stops at the first request that would start after that.  Each
request has a time budget, enforced with SIGALRM: a request still running
when it expires is stopped, recorded as not finished and not run again.
Garbage is collected before each execution, so that none pays for the
garbage of the one before it; the objects made by importing chorcheck are
frozen first (`gc.freeze`), which makes that collection quick.

Writes one JSON object to `--out`: one outcome per execution, the peak
resident memory of this process and, with `--trace 1`, the per-layer
totals and spans.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402


class BudgetExceeded(BaseException):
    """Raised by the alarm handler; a BaseException so that no handler in
    the program under test catches it."""


def _on_alarm(signum, frame):
    raise BudgetExceeded


def summarise(payload: dict) -> dict:
    """Keep the verdict fields of a JSON reply and the sizes of its lists;
    drop text and witnesses, which vary with exploration order."""
    out = {}
    for key, value in payload.items():
        if isinstance(value, bool) or key in ("command", "method", "verdict", "mode"):
            out[key] = value
        elif isinstance(value, (int, float)):
            out[key] = value
        elif isinstance(value, list):
            out[key] = len(value)
        elif key == "conditions":
            out[key] = {name: c["status"] for name, c in value.items()}
    return out


def run_request(main, argv: list[str], budget: float) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    finished = True
    code = None
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                code = main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        finished = False
    except Exception as exc:  # a crash of the program is an outcome to report
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    result = {"code": code, "seconds": elapsed if finished else budget,
              "finished": finished}
    if error:
        result["error"] = error
    text = stdout.getvalue()
    if finished and text.lstrip().startswith("{"):
        try:
            result["reply"] = summarise(json.loads(text))
        except json.JSONDecodeError:
            result["error"] = "reply is not JSON"
    if code not in (0, 1, 3) and finished:
        result["stderr"] = stderr.getvalue()[-500:]
    return result


def pass_order(requests: list[dict]) -> list[int]:
    """Request indices of one pass: request i of n comes `reps` times, at
    places i/n, i/n + 1/reps, i/n + 2/reps, ... in order of place.  A
    request's first time keeps its place in the list, so a request that
    reads a file written by an earlier one (`verify-complement` after
    `complement -o`) comes after it."""
    n = len(requests)
    slots = sorted((i / n + k / req.get("reps", 1), i)
                   for i, req in enumerate(requests) for k in range(req.get("reps", 1)))
    return [i for _, i in slots]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--requests", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    requests = json.loads(Path(args.requests).read_text())
    from chorcheck import cli
    gc.collect()
    gc.freeze()

    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.install()
    signal.signal(signal.SIGALRM, _on_alarm)

    order = pass_order(requests)
    results = []
    stopped = set()
    pass_s = []
    deadline = time.perf_counter() + args.seconds
    while not pass_s or time.perf_counter() < deadline:
        start = time.perf_counter()
        for i in order:
            if pass_s and time.perf_counter() >= deadline:
                break
            if i in stopped:
                continue
            gc.collect()
            if tr:
                tr.begin_request(len(results))
            res = run_request(cli.main, requests[i]["argv"], args.budget)
            if tr:
                tr.end_request(res["finished"] and "error" not in res)
            res["id"] = i
            res["pass"] = len(pass_s)
            results.append(res)
            if not res["finished"]:
                stopped.add(i)
        pass_s.append(time.perf_counter() - start)

    out = {"pass_s": pass_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "results": results}
    if tr:
        out["totals"] = {name: dict(stats) for name, stats in tr.totals.items()}
        out["spans"] = tr.spans
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
