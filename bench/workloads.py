"""The workloads: seeded request lists with known answers.

Each workload draws units from its corpus in `data/recorded.json` (see
`make_recorded.py`).  A unit is one input with the requests sent on it.
A request is a dict with `argv` (passed to `chorcheck.cli.main`, paths
relative to the checkout root), `expect` (the known answer), `recorded_s`
(its time in the corpus), `reps` (how many times it runs in one pass) and,
for checks that span requests, `group`.  Every
`.gt` file is written before any request runs.

Known answers:
- closure: every Cartesian abstraction is commutation-closed and
  deterministic, so `classify` reports both and `complement --method auto`
  picks `dual` with `guaranteed: true`.
- complement-law: a guaranteed complement passes the bounded xor law, and
  every query MSC lies in exactly one of a type and its complement; the
  membership answers come from `inputs.member_oracle`.
- p2p: the fixture verdicts fixed by the acceptance criteria, "p2p holds
  implies synch holds", and the verdicts recorded in the corpus.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import inputs

BENCH_DIR = Path(__file__).resolve().parent
RECORDED = BENCH_DIR / "data" / "recorded.json"

WORKLOADS = ("closure", "complement-law", "p2p", "law-p2p")

# law-p2p sends the requests of complement-law and of p2p in one list.  It
# measures the trace, oracle and semantics layers in one run, twice as long
# as a run of each alone could be in the time the benchmark has for all
# runs, which evens out more of the shared machine's swings in speed.
PARTS = {"law-p2p": ("complement-law", "p2p")}

# Per-request time budget in seconds.  A request still running at the
# budget is stopped and counted as failed, charged at the budget.
BUDGET_S = 3.0

# Units with a request whose corpus time is over CAP_S are not drawn.  Whether such a request ends within BUDGET_S would follow
# the speed a shared machine has at the moment, so the number of failed
# requests would not repeat from run to run.  The 6-process rung is kept:
# its requests ran past 30 s, ten times the budget, so they fail in every
# run.
CAP_S = BUDGET_S / 3

# The traced run leaves out the requests that ran past BUDGET_S when the
# corpus was made and gives the others TRACE_BUDGET_S, so that which
# requests finish, and hence every count, does not depend on the machine's
# speed or the tracing overhead.
TRACE_BUDGET_S = 20.0

# Of the units within CAP_S, the HEAVIEST costliest of a workload run in
# every run: the tail latency falls among their requests, and drawing them
# would move it from seed to seed.  Of the others a run draws, by seed,
# DRAWN of every TIER_SIZE units of one family in order of cost, so that
# runs with different seeds do like amounts of work.  The families in
# WHOLE run whole in every run.
HEAVIEST = 16
TIER_SIZE = 4
DRAWN = 2
WHOLE = ("rung", "fixture")

# A request runs until about REP_TARGET_S of its recorded time is spent,
# at most MAX_REPS times, in each pass.
REP_TARGET_S = 0.02
MAX_REPS = 5

# closure: abstractions of 30-900 states; the 6-process rung has 12 arrows
# over 10 states, like the ROADMAP baseline, and an abstraction of
# 1500-4000 states.
CLOSURE_STATES = (30, 900)
RUNG_PROCESSES, RUNG_ARROWS, RUNG_TYPE_STATES = 6, 12, 10
RUNG_STATES = (1500, 4000)

# complement-law: (type, side the MSC is drawn from, MSC length,
# also ask --universal)
LAW_MAX_EVENTS = 6
LAW_QUERIES = [("g0", side, n, n <= 30) for side in ("gt", "complement")
               for n in (20, 30, 40)]
LAW_QUERIES += [("g_sd", "complement", n, True) for n in (20, 30, 40)]

# p2p
P2P_BOUND = 2
P2P_MAX_EVENTS = 8

# Verdicts the acceptance criteria fix for four fixtures.
FIXTURE_P2P = {"real": "holds", "cross": "fails", "nonreal": "fails", "deadlock": "fails"}
FIXTURE_SYNCH = {"real": "holds", "nonreal": "fails", "deadlock": "fails"}


def load_recorded() -> dict:
    return json.loads(RECORDED.read_text())


def draw(units: list[dict], rng: random.Random) -> list[dict]:
    """The units of one run: the WHOLE families, the HEAVIEST units within
    CAP_S, and DRAWN of every TIER_SIZE of the other units of each family."""
    chosen = [u for u in units if u["family"] in WHOLE]
    eligible = sorted((u for u in units if u["family"] not in WHOLE
                       and max(u["request_s"]) <= CAP_S), key=lambda u: u["seconds"])
    chosen += eligible[-HEAVIEST:]
    families: dict = {}
    for u in eligible[:-HEAVIEST]:
        families.setdefault(u["family"], []).append(u)
    for members in families.values():
        for i in range(0, len(members), TIER_SIZE):
            tier = members[i:i + TIER_SIZE]
            chosen += rng.sample(tier, min(DRAWN, len(tier)))
    return chosen


def build(workload: str, seed: int, workdir: Path, root: Path,
          probes: bool = False) -> list[dict]:
    """The request list of one run; with `probes`, the probe requests
    follow it."""
    recorded = load_recorded()
    lists = []
    for part in PARTS.get(workload, (workload,)):
        rng = random.Random(f"{part}:{seed}")
        units = draw(recorded[part], rng)
        # Mix cheap and costly units through the pass, so that a slow spell
        # of the machine does not fall on one cost class only.
        rng.shuffle(units)
        lists.append(MAKERS[part](units, writer(workdir / part, root), recorded))
    # The parts of a union are spread evenly over the list, each in its order.
    requests = [req for _, _, req in sorted((i / len(reqs), p, req)
                                            for p, reqs in enumerate(lists)
                                            for i, req in enumerate(reqs))]
    for req in requests:
        req["reps"] = max(1, min(MAX_REPS, round(REP_TARGET_S / req["recorded_s"])))
    return requests + _probes(writer(workdir, root), recorded) if probes else requests


def writer(directory: Path, root: Path):
    """A function that writes a `.gt` file into `directory` and returns its
    path relative to `root`."""
    directory.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> str:
        path = directory / f"{name}.gt"
        path.write_text(text)
        return str(path.relative_to(root))

    return write


def _probes(write, recorded):
    """Five small requests that reach every traced layer.  The traced run
    appends them, so that every per-layer metric is measured on every
    workload; the end-to-end run leaves them out."""
    fixtures = {u["name"]: u for u in recorded["p2p"] if u["family"] == "fixture"}
    g0 = write("probe-g0", fixtures["g0"]["gt"])
    g_sd = write("probe-g_sd", fixtures["g_sd"]["gt"])
    g_sd_comp = g_sd.replace(".gt", ".complement.gt")
    real = write("probe-real", fixtures["real"]["gt"])
    real_comp = write("probe-real.complement", fixtures["real"]["complement"])
    return [
        {"argv": ["classify", g0, "--json"], "expect": {"kind": "closed"}},
        {"argv": ["complement", g_sd, "--method", "auto", "-o", g_sd_comp, "--json"],
         "expect": {"kind": "complement", "methods": ["dual", "renunciation"]}},
        {"argv": ["verify-complement", g_sd, g_sd_comp, "--max-events", "3", "--json"],
         "expect": {"kind": "passes"}},
        {"argv": ["member", g0, "--msc", "r->s:m2;p->q:m1;p->q:m3", "--json"],
         "expect": {"kind": "member", "member": True}},
        {"argv": ["realisable", real, "--model", "p2p", "--complement", real_comp,
                  "--bound", str(P2P_BOUND), "--max-events", str(P2P_MAX_EVENTS), "--json"],
         "expect": {"kind": "verdict", "code": 0, "verdict": FIXTURE_P2P["real"]}},
    ]


def _closure(units, write, recorded):
    requests = []
    for i, unit in enumerate(units):
        path = write(f"abs{i}", unit["gt"])
        requests += _timed(unit, [
            {"argv": ["classify", path, "--json"], "expect": {"kind": "closed"}},
            {"argv": ["complement", path, "--method", "auto", "--json"],
             "expect": {"kind": "complement", "methods": ["dual"]}}])
    return requests


def _timed(unit: dict, requests: list[dict]) -> list[dict]:
    """The unit's requests, each with its recorded time."""
    for req, seconds in zip(requests, unit["request_s"], strict=True):
        req["recorded_s"] = seconds
    return requests


def _complement_law(units, write, recorded):
    requests = []
    types = recorded["member_types"]
    paths = {(name, side): write(f"{name}.{side}", entry[side])
             for name, entry in types.items() for side in ("gt", "complement")}
    automata = {key: inputs.read_automaton(types[key[0]][key[1]]) for key in paths}
    for i, unit in enumerate(units):
        if "gt" in unit:
            path = write(f"t{i}", unit["gt"])
            comp = path.replace(".gt", ".complement.gt")
            methods = ["dual"] if unit["family"] == "3p" else ["dual", "renunciation"]
            requests += _timed(unit, [
                {"argv": ["complement", path, "--method", "auto", "-o", comp, "--json"],
                 "expect": {"kind": "complement", "methods": methods}},
                {"argv": ["verify-complement", path, comp, "--max-events",
                          str(LAW_MAX_EVENTS), "--json"],
                 "expect": {"kind": "passes"}}])
            continue
        name, word = unit["type"], inputs.parse_word(unit["msc"])
        queries = []
        for target in ("gt", "complement"):
            aut, processes = automata[(name, target)]
            for univ in ((False, True) if unit["universal"] else (False,)):
                member = inputs.member_oracle(aut, word, processes, univ)
                if not univ and member != (target == unit["side"]):
                    raise RuntimeError(f"{name} and its complement disagree on {unit['msc']}")
                argv = ["member", paths[(name, target)], "--msc", unit["msc"], "--json"]
                if univ:
                    argv.insert(-1, "--universal")
                queries.append({"argv": argv, "expect": {"kind": "member",
                                                         "member": member}})
        requests += _timed(unit, queries)
    return requests


def _p2p(units, write, recorded):
    requests = []
    for unit in units:
        name = unit["name"]
        path = write(name, unit["gt"])
        comp = write(f"{name}.complement", unit["complement"])
        rec = unit["verdicts"]
        p2p_expect = _recorded(rec["p2p"])
        if name in FIXTURE_P2P:
            p2p_expect["verdict"] = FIXTURE_P2P[name]
        if name == "cross":
            p2p_expect["rsc"] = "fails"
        synch_expect = _recorded(rec["synch"])
        if name in FIXTURE_SYNCH:
            synch_expect["verdict"] = FIXTURE_SYNCH[name]
        requests += _timed(unit, [
            {"argv": ["realisable", path, "--model", "p2p", "--complement", comp,
                      "--bound", str(P2P_BOUND), "--max-events", str(P2P_MAX_EVENTS),
                      "--json"],
             "expect": p2p_expect, "group": name},
            {"argv": ["realisable", path, "--model", "synch", "--complement", comp,
                      "--json"],
             "expect": synch_expect, "group": name},
            {"argv": ["simulate", path, "--bound", str(P2P_BOUND), "--max-events",
                      str(P2P_MAX_EVENTS), "--json"],
             "expect": _recorded(rec["simulate"])}])
    return requests


def _recorded(verdict: dict) -> dict:
    """Expect the recorded exit code and verdict fields."""
    return {"kind": "verdict", **verdict}


MAKERS = {"closure": _closure, "complement-law": _complement_law, "p2p": _p2p}
