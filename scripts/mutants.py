"""Mutants of the verdict path, and whether the tier-1 tests kill each.

Each mutant replaces one piece of text, which must occur exactly once, in
one source file.  For each mutant the script copies `src` and `tests`, with
what the tests read (`fixtures`, `schemas`, `scripts`, `pyproject.toml`
and a link to `bench`), to a temporary directory, applies the mutant
there, runs tier-1 (stopping at its first failure) and prints `killed`,
with the first test that failed, or `survived`.  A run that outlasts
`TIMEOUT_S` counts as killed.  A mutant
that cannot change behaviour carries its one-line argument as
`equivalent`, and its survival is expected.

Exit codes: 0 when every non-equivalent mutant is killed, 1 when one
survives, 2 when some mutant's old text does not occur exactly once (no
test then runs).  It takes a few minutes: one tier-1 run per mutant.

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "fixtures", "schemas", "scripts", "pyproject.toml")
TIMEOUT_S = 600
SELF_TEST = "tests/test_scripts.py::test_mutant_texts_occur_once"


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    reason: str
    equivalent: str | None = None  # why the mutant cannot change behaviour


SEM = "src/chorcheck/semantics.py"
REAL = "src/chorcheck/realisability.py"
AUT = "src/chorcheck/automata.py"
COMP = "src/chorcheck/complement.py"
FMT = "src/chorcheck/formats.py"

MUTANTS = (
    Mutant(SEM, "if len(content) >= bound:", "if len(content) > bound:",
           "(a) a channel holds one message more than the bound"),
    Mutant(SEM, "blocked.append(stopped)", "blocked.append(False)",
           "(b) the graph records no send blocked by the bound"),
    Mutant(REAL, "cond2 = Condition(Status.UNKNOWN if report.bound_hit else Status.HOLDS)",
           "cond2 = Condition(Status.HOLDS)",
           "(c) condition 2 ignores the graph's bound_hit"),
    Mutant(REAL, "(False, nfa.state_name(stuck[0]))", "(False, nfa.state_name(stuck[-1]))",
           "(d) the synch deadlock witness names the last stuck state, not the first"),
    Mutant(SEM, "                    parent.append((n, act))\n",
           "                    parent.append((n, act))\n"
           "                elif j > n:\n"
           "                    parent[j] = (n, act)\n",
           "the BFS parent is the last step into a configuration from an earlier "
           "one, not the first step"),
    Mutant(SEM, "bound_hit = bound_hit or report.blocked[cfg]", "bound_hit = bound_hit",
           "the MSC search ignores the graph's blocked flag"),
    Mutant(SEM, "elif content and content[0] == act.message:",
           "elif content and content[-1] == act.message:",
           "a receive takes the newest message of its channel, not the oldest"),
    Mutant(SEM, "        if labels in seen:\n            continue\n        seen.add(labels)\n",
           "        if cfg in seen:\n            continue\n        seen.add(cfg)\n",
           "the MSC memo is keyed on the configuration, not on the MSC"),
    Mutant(SEM, "tuple(map(min, r, block))", "tuple(map(max, r, block))",
           "a rendezvous moves the pending sends' reach the wrong way"),
    Mutant(REAL, "cond1 = cond3 = Condition(Status.UNKNOWN if bound_hit else Status.HOLDS)",
           "cond1 = cond3 = Condition(Status.HOLDS)",
           "conditions 1 and 3 ignore the MSC search's bound_hit"),
    Mutant("src/chorcheck/gtype.py",
           "return any(s & g.automaton.accepting for s in _reached(g, m))",
           "return all(s & g.automaton.accepting for s in _reached(g, m))",
           "existential membership asks every linearisation"),
    Mutant(SEM, "if rsc and reach[k] < pos:", "if rsc and reach[k] <= pos:",
           "a receive closes a cycle also on a reach entry equal to its position",
           equivalent="a receive's position is new, so no reach entry equals it"),
    Mutant("src/chorcheck/trace.py", "while i < n and trace[i] < a:",
           "while i < n and trace[i] <= a:",
           "an arrow goes right past an equal arrow too",
           equivalent="the arrows passed all commute with a, and no arrow commutes "
                      "with itself"),
    Mutant(AUT, "if not a.accepting.isdisjoint(closure):",
           "if not a.accepting.isdisjoint(subset):",
           "projection: a subset's acceptance is read off the subset, not its closure"),
    Mutant(AUT, "moves.setdefault(y, set()).add(t)",
           "s in subset and moves.setdefault(y, set()).add(t)",
           "projection: a subset's moves are read off the subset, not its closure"),
    Mutant(COMP, "if commute(x, b):", "if not commute(x, b):",
           "renunciation goes provisory when x and b do not commute"),
    Mutant(COMP, "if states & a.accepting:", "if states:",
           "the existential traces of the complement check ignore acceptance"),
    Mutant(COMP, "participant_count(g) <= 3", "participant_count(g) <= 4",
           "complement_auto takes the dual at up to 4 participants"),
    Mutant(COMP, 'add(("provbar", s, x), x, ("acc",))',
           'add(("provbar", s, x), x, ("provbar", s, x))',
           "renunciation never accepts the blocked choice"),
    Mutant(COMP, "        if s not in final:\n            accepting.add(index[(\"g\", s)])\n",
           "        accepting.add(index[(\"g\", s)])\n",
           "renunciation accepts g's final states"),
    Mutant(COMP, "if report.passed:", "if True:",
           "complement_auto keeps a Cartesian candidate that failed its self-check"),
    Mutant(AUT, "if x not in letters:", "if False:",
           "automaton validation lets a transition read a letter outside the alphabet"),
    Mutant(AUT, "if not (0 <= s < n_states and 0 <= t < n_states):", "if False:",
           "automaton validation lets a transition leave the state range"),
    Mutant(AUT, "d = a if a.delta is not None else determinise(a)", "d = a",
           "minimise skips the subset construction for a non-deterministic input"),
    Mutant(AUT, "if len(classes) == n_blocks:", "if True:",
           "minimise stops after the first refinement round"),
    Mutant(AUT, "for _ in range(sink + 1)]", "for _ in range(sink)] + [[0] * len(letters)]",
           "minimise's sink row leads to state 0: the sink is not absorbing"),
    Mutant(FMT, 'if "*" in e[2]) or frozenset({0})', 'if False) or frozenset({0})',
           "the reader ignores the `*` initial flag"),
    Mutant(FMT, "if declared is not None and arrow not in declared:", "if False:",
           "the reader lets a transition use an arrow missing from `arrows:`"),
    Mutant(FMT, "if not _END.match(text, close.end()):", "if False:",
           "the reader accepts text after the closing `}`"),
    Mutant(FMT, ' and words[3] == "-->"', "",
           'the split read skips the `words[3] == "-->"` check'),
    Mutant(FMT, "index[words[4]]))", "index[words[0]]))",
           "the split read takes the destination from `words[0]`"),
    Mutant(AUT, "return delta if len(delta) == len(self.transitions) else None",
           "return delta", "`Nfa.delta` drops its length check"),
)


def stale() -> list[str]:
    """The mutants whose old text does not occur exactly once in its file."""
    counts = [(m, (REPO / m.file).read_text().count(m.old)) for m in MUTANTS]
    return [f"{m.file}: {m.reason} ({n} matches)" for m, n in counts if n != 1]


def killer(m: Mutant) -> str | None:
    """The first tier-1 test that fails with the mutant applied (or
    `timeout`), None when none fails.  The check that the mutant texts occur
    once is left out: in a mutated copy it always fails."""
    with tempfile.TemporaryDirectory(prefix="chorcheck-mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            src = REPO / name
            if src.is_dir():
                shutil.copytree(src, root / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, root / name)
        (root / "bench").symlink_to(REPO / "bench")
        path = root / m.file
        path.write_text(path.read_text().replace(m.old, m.new))
        env = {**os.environ, "PYTHONPATH": str(root / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            r = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
                                "-p", "no:cacheprovider", "--deselect", SELF_TEST],
                               cwd=root, env=env, capture_output=True, text=True,
                               timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
        if r.returncode == 0:
            return None
        failed = [line.split()[1] for line in r.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))]
        return failed[0] if failed else f"exit code {r.returncode}"


def main() -> int:
    problems = stale()
    if problems:
        for line in problems:
            print(f"error: {line}", file=sys.stderr)
        return 2
    survivors = []
    for m in MUTANTS:
        test = killer(m)
        verdict = f"killed by {test}" if test else "survived"
        note = f"  (equivalent: {m.equivalent})" if m.equivalent else ""
        print(f"{m.file}: {m.reason}: {verdict}{note}", flush=True)
        if test is None and not m.equivalent:
            survivors.append(m)
    counted = sum(not m.equivalent for m in MUTANTS)
    print(f"{counted - len(survivors)} of {counted} non-equivalent mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
