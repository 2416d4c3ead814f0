"""Regenerate `data/recorded.json`, the benchmark's corpus of inputs.

    PYTHONHASHSEED=0 python3 bench/make_recorded.py            # make it anew
    PYTHONHASHSEED=0 python3 bench/make_recorded.py --retime   # new times only

Run from the checkout root; it takes about twenty minutes.  Inputs are made
with chorcheck's own seeded generators (`chorcheck.randomgen`), projection,
product and `.gt` renderer, and stored as `.gt` text, so the inputs a seed
draws do not change when the program under test changes.  Each workload
draws its inputs, by seed, from this corpus (`workloads.draw`).

Inputs are chosen by the generator's parameters alone: every candidate
within the stated input ranges is kept, however long its requests take.
Each unit has a `family`, and each of its requests is timed once, with
RECORD_BUDGET_S, when the unit is made.  Then every unit whose requests all
ended within `workloads.BUDGET_S` is timed again (`retime`): in
RETIME_PASSES passes over its workload, the units in a new seeded order in
each pass, so that a slow spell of the machine does not fall on a few
units only.  `request_s` holds the median timing of each request, in the
order the workload sends them, and `seconds` their sum.  The draw uses
these times: it leaves out units with a request over `workloads.CAP_S`
and stratifies the rest by cost.  `--retime` does the second step alone,
on the committed corpus, which keeps its inputs and verdicts.

- closure: `ladder` types (4 or 5 processes, 2 messages, 5-8 arrows, 3-8
  states) whose Cartesian abstraction `sync_product(project(g))` has
  30-900 states, and one `rung` type (6 processes, 12 arrows, 10 states,
  abstraction of 1500-4000 states).  The text stored is the abstraction's.
- complement-law: commutation-deterministic types (3-4 processes, at most
  5 states and 4 arrows) and 3-process deterministic types; and member-
  query MSCs against g0, g_sd and their complements.
- p2p: the eight fixtures (complement by `auto`, or the Cartesian
  candidate where no guaranteed method applies, as the acceptance tests
  do) and a pool of commutation-deterministic types, each with a
  complement and the verdicts of its three requests.  A request that does
  not finish within RECORD_BUDGET_S has no recorded verdict (`null`).

The file is committed.  The p2p known answers are the verdicts recorded
here, so regenerating the file on a later commit replaces that check with
the later commit's own answers.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import signal
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import client  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from chorcheck import cli  # noqa: E402
from chorcheck.complement import (NoComplementMethodError, complement_auto,  # noqa: E402
                                  complement_cartesian)
from chorcheck.formats import parse_gt, render_gt  # noqa: E402
from chorcheck.gtype import project, sync_product  # noqa: E402
from chorcheck.randomgen import (random_commutation_deterministic,  # noqa: E402
                                 random_declaration, random_global_type,
                                 random_three_process_deterministic)

SCRATCH = BENCH_DIR / "work" / "record"

# Time limit of one request while the corpus is made; its cost is capped here.
RECORD_BUDGET_S = 30.0
# An abstraction still being built after this long is far outside the
# state range; the candidate is skipped for its size.
BUILD_LIMIT_S = 20.0

LADDER_UNITS = 24  # per process count

LAW_CD_UNITS = 24
LAW_3P_UNITS = 12
QUERY_DRAWS = 4  # per (type, side, length), one family

POOL_SIZE = 120

RETIME_PASSES = 3


def timed(argv: list[str], budget: float = RECORD_BUDGET_S) -> dict:
    gc.collect()
    res = client.run_request(cli.main, argv, budget)
    if res["finished"] and res["code"] not in (0, 1, 3):
        raise RuntimeError(f"{argv}: {res}")
    return res


def write(name: str, text: str) -> str:
    path = SCRATCH / f"{name}.gt"
    path.write_text(text)
    return str(path)


def unit(request_s: list[float], **fields) -> dict:
    return {"seconds": round(sum(request_s), 4),
            "request_s": [round(x, 4) for x in request_s], **fields}


def complement_text(text: str) -> str:
    g = parse_gt(text)
    try:
        return render_gt(complement_auto(g).gtype)
    except NoComplementMethodError:
        return render_gt(complement_cartesian(g).gtype)


# ---------------------------------------------------------------------------


def abstraction(g, lo: int, hi: int):
    """`.gt` text and size of g's Cartesian abstraction, or None when its
    state count is outside [lo, hi]."""
    signal.setitimer(signal.ITIMER_REAL, BUILD_LIMIT_S)
    try:
        ab = sync_product(project(g), g.name)
    except client.BudgetExceeded:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    n = ab.automaton.n_states
    return (render_gt(ab), n) if lo <= n <= hi else None


def closure_cost(text: str) -> list[float]:
    path = write("closure", text)
    return [timed(argv)["seconds"] for argv in (
        ["classify", path, "--json"],
        ["complement", path, "--method", "auto", "--json"])]


def closure_units() -> list[dict]:
    rng = random.Random("closure-corpus")
    ladder: dict = {4: [], 5: []}
    for i in range(5000):
        if all(len(units) == LADDER_UNITS for units in ladder.values()):
            break
        n = rng.choice((4, 5))
        decl = random_declaration(rng, n, 2, rng.randint(5, 8))
        g = random_global_type(rng, decl, rng.randint(3, 8), name=f"abs{i}")
        if len(ladder[n]) == LADDER_UNITS:
            continue
        built = abstraction(g, *workloads.CLOSURE_STATES)
        if built is None:
            continue
        text, states = built
        ladder[n].append(unit(closure_cost(text), family=f"{n}p", states=states, gt=text))
        print(f"closure {n}p: {states} states, {ladder[n][-1]['seconds']} s", flush=True)
    units = ladder[4] + ladder[5]

    for i in range(200):
        decl = random_declaration(rng, workloads.RUNG_PROCESSES, 2, workloads.RUNG_ARROWS)
        g = random_global_type(rng, decl, workloads.RUNG_TYPE_STATES, name=f"rung{i}")
        built = abstraction(g, *workloads.RUNG_STATES)
        if built is not None:
            text, states = built
            rung = unit(closure_cost(text), family="rung", states=states, gt=text)
            print(f"closure rung: {states} states, {rung['seconds']} s", flush=True)
            return units + [rung]
    raise RuntimeError("found no rung type")


def law_units(member_types: dict) -> list[dict]:
    rng = random.Random("complement-law-corpus")
    types = []
    for family, count, make in (("cd", LAW_CD_UNITS, random_commutation_deterministic),
                                ("3p", LAW_3P_UNITS, random_three_process_deterministic)):
        for i in range(count):
            text = render_gt(make(rng, name=f"law{i}"))
            path, comp = write("law", text), str(SCRATCH / "law.complement.gt")
            request_s = [timed(argv)["seconds"] for argv in (
                ["complement", path, "--method", "auto", "-o", comp, "--json"],
                ["verify-complement", path, comp, "--max-events",
                 str(workloads.LAW_MAX_EVENTS), "--json"])]
            types.append(unit(request_s, gt=text, family=family))

    paths = {(name, side): write(f"{name}.{side}", entry[side])
             for name, entry in member_types.items() for side in ("gt", "complement")}
    queries = []
    for name, side, length, universal in workloads.LAW_QUERIES:
        aut, _ = inputs.read_automaton(member_types[name][side])
        arrows = sorted({a for _, a in aut.step_map})
        for _ in range(QUERY_DRAWS):
            word = inputs.random_accepted_word(rng, aut, arrows, length)
            word = inputs.shuffle_commuting(rng, word, 3 * length)
            msc = ";".join(inputs.arrow_text(a) for a in word)
            request_s = []
            for target in ("gt", "complement"):
                for univ in ((False, True) if universal else (False,)):
                    argv = ["member", paths[(name, target)], "--msc", msc, "--json"]
                    if univ:
                        argv.insert(-1, "--universal")
                    request_s.append(timed(argv)["seconds"])
            queries.append(unit(request_s, type=name, side=side, universal=universal,
                                msc=msc, family=f"{name}-{side}-{length}"))
    return types + queries


def p2p_verdicts(gt_text: str, comp_text: str):
    """Verdicts and seconds of the three requests.  A request that runs
    past RECORD_BUDGET_S has verdict None and counts at the budget."""
    gt, comp = write("p2p", gt_text), write("p2p.complement", comp_text)
    bound, events = str(workloads.P2P_BOUND), str(workloads.P2P_MAX_EVENTS)
    argvs = {
        "p2p": ["realisable", gt, "--model", "p2p", "--complement", comp,
                "--bound", bound, "--max-events", events, "--json"],
        "synch": ["realisable", gt, "--model", "synch", "--complement", comp, "--json"],
        "simulate": ["simulate", gt, "--bound", bound, "--max-events", events, "--json"],
    }
    verdicts, request_s = {}, []
    for key, argv in argvs.items():
        res = timed(argv)
        request_s.append(res["seconds"])
        if not res["finished"]:
            verdicts[key] = None
            continue
        field = "bound_hit" if key == "simulate" else "verdict"
        verdicts[key] = {"code": res["code"], field: res["reply"][field]}
    return verdicts, request_s


def p2p_units(fixture_texts: dict) -> list[dict]:
    units = []
    for name, text in fixture_texts.items():
        comp = complement_text(text)
        verdicts, request_s = p2p_verdicts(text, comp)
        units.append(unit(request_s, family="fixture", name=name, gt=text, complement=comp,
                          verdicts=verdicts))
    rng = random.Random("p2p-pool")
    pool = []
    for i in range(POOL_SIZE):
        text = render_gt(random_commutation_deterministic(rng, name=f"cd{i}"))
        comp = complement_text(text)
        verdicts, request_s = p2p_verdicts(text, comp)
        pool.append(unit(request_s, family="pool", name=f"cd{i}", gt=text, complement=comp,
                         verdicts=verdicts))
        print(f"p2p cd{i}: {pool[-1]['seconds']} s", flush=True)
    return units + pool


def retime(corpus: dict) -> None:
    """Time again, in RETIME_PASSES passes, the requests of every unit
    whose requests all ended within the budget; keep each median."""
    rng = random.Random("retime")
    for name in workloads.MAKERS:
        units = [u for u in corpus[name] if max(u["request_s"]) <= workloads.BUDGET_S]
        requests = workloads.MAKERS[name](units, write, corpus)
        first = [0]
        for u in units:
            first.append(first[-1] + len(u["request_s"]))
        times: list = [[] for _ in requests]
        for n in range(RETIME_PASSES):
            order = list(range(len(units)))
            rng.shuffle(order)
            for u in order:
                for i in range(first[u], first[u + 1]):
                    times[i].append(timed(requests[i]["argv"], workloads.BUDGET_S)["seconds"])
            print(f"{name}: pass {n + 1} of {RETIME_PASSES}", flush=True)
        for u, entry in enumerate(units):
            request_s = [statistics.median(times[i]) for i in range(first[u], first[u + 1])]
            entry.update(unit(request_s))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--retime", action="store_true",
                        help="only time the committed corpus again")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, client._on_alarm)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    gc.collect()
    gc.freeze()
    if args.retime:
        corpus = workloads.load_recorded()
        retime(corpus)
        workloads.RECORDED.write_text(json.dumps(corpus, indent=1) + "\n")
        return 0
    fixture_texts = {p.stem: p.read_text() for p in sorted((ROOT / "fixtures").glob("*.gt"))}
    member_types = {name: {"gt": fixture_texts[name],
                           "complement": complement_text(fixture_texts[name])}
                    for name in ("g0", "g_sd")}
    corpus = {"member_types": member_types,
              "closure": closure_units(),
              "complement-law": law_units(member_types),
              "p2p": p2p_units(fixture_texts)}
    retime(corpus)
    workloads.RECORDED.parent.mkdir(exist_ok=True)
    workloads.RECORDED.write_text(json.dumps(corpus, indent=1) + "\n")
    for name in workloads.MAKERS:
        families: dict = {}
        for u in corpus[name]:
            families.setdefault(u["family"], []).append(u["seconds"])
        print(name, {f: round(statistics.median(s), 3) for f, s in sorted(families.items())})
    return 0


if __name__ == "__main__":
    sys.exit(main())
