"""Digests of the CLI's output on the benchmark corpora.

Runs `chorcheck.cli.main` in-process on every entry of
`bench/data/recorded.json` (which it only reads) and prints one line per
command: the number of runs and a sha256 over their stdout, exit codes and
any file written with `-o` (stderr is not digested).  Two checkouts that
print the same digests gave byte-identical output.  Each line ends in `ok`
when its digest equals the one committed in `EXPECTED` and in `CHANGED`
when it does not; the script exits 1 when any line changed.  A change that
moves the output on purpose updates `EXPECTED` in the same commit.  The
commands are:

- p2p: `realisable --model p2p` and `--model synch` (with the entry's
  complement) and `simulate`;
- closure: `classify` and `complement --method auto`;
- complement-law: `complement --method auto -o`, then
  `verify-complement --max-events 6` on the file written; `complement
  --method cartesian -o`, then `verify-complement --max-events 5` of the
  type against the file written and against itself (so that violations,
  and their order, are digested too); the `member`
  queries against `member_types` (`--universal` too where the entry asks),
  `project -o --json`, then `dot` on each `.cfsm` file written, `dot
  --json`, and `complement --json` with each explicit method (a method
  that refuses the type counts through its exit code).

The digests are compared under one fixed hash seed: PYTHONHASHSEED=0 is
required and any other setting is refused with exit code 2.  (Under seeds
1 and 2 they came out the same, but no test holds every output to that.)

    PYTHONHASHSEED=0 PYTHONPATH=src python scripts/corpus_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

RECORDED = Path(__file__).resolve().parent.parent / "bench" / "data" / "recorded.json"

# (command, options); `realisable` also gets the entry's complement
P2P_COMMANDS = (
    ("realisable", ("--model", "p2p", "--bound", "2", "--max-events", "8", "--json")),
    ("realisable", ("--model", "synch", "--json")),
    ("simulate", ("--bound", "2", "--max-events", "8", "--json")),
)
CLOSURE_COMMANDS = (
    ("classify", ("--json",)),
    ("complement", ("--method", "auto", "--json")),
)
LAW_MAX_EVENTS = "6"
LAW_VIOLATION_MAX_EVENTS = "5"
LAW_COMPLEMENT_METHODS = ("dual", "renunciation", "cartesian")

# sha256 of each line's output, by line label
EXPECTED = {
    "realisable --model p2p --bound 2 --max-events 8 --json":
        "e8e8a788351f5d455bcf722c48c36e9b8332800df074b1b4c2441ae436429bb6",
    "realisable --model synch --json":
        "d2155926ded81af640d782d095e18c1cd93939d780da0ed06c6b74988fc3c8a8",
    "simulate --bound 2 --max-events 8 --json":
        "fe7d61860f7edf4ecbaeed6371f9fb94f82c019b9eb21295bf50e735bb4b0635",
    "closure classify --json":
        "17bd8f195e40661983eb1654b9006250f87df4695c7535c5914e1e9987ed505d",
    "closure complement --method auto --json":
        "9e58886d5b429c25b4c37cb849e5abc8a015832e0715bd3e536d1526f782e93d",
    "complement-law complement --method auto -o --json":
        "c891c56eb8a2b1b9a2855e0b1fabee52dd53a6d35ece4e895b1a1eae99451eb6",
    "complement-law verify-complement --max-events 6 --json":
        "7e45e1fc1c6cfd7b3997a60259e37143e1ea33dc20e8b835c3dbbc942cfe6168",
    "complement-law verify-complement --max-events 5 --json against the Cartesian "
    "candidate and itself":
        "fe2be83f2a721eab969396296d8fce5800a559c0fbcefa67ff7e9ef8ac871be8",
    "complement-law member --json":
        "d3986637f9c09e350e75147b67a695bea2449b10bd50667e78ade15a4fc0697d",
    "complement-law project -o --json":
        "c3572f33dcade156bb0aabf1dc59a63dd4065d34635a36d0cdedc7f15a4b82ff",
    "complement-law dot on the projected .cfsm files":
        "48b764cabbfd5a817e66c849367a0988c1730b2246541bb33701c8e776125854",
    "complement-law dot --json":
        "b8f5641152b4a2a6a78e79702b4eb9e9c0df6b8af7b996175eb80cd3af0612de",
    "complement-law complement --method dual --json":
        "dffec044dca7b68e49fdf7c8f94bdccfdd14e4b8abd81ed3bf097f11bea79a41",
    "complement-law complement --method renunciation --json":
        "0bb6602330aa78998d480beefaf7b8d049b0ecacd2f25741c22f8ee19a2dce40",
    "complement-law complement --method cartesian --json":
        "bb9eeb6ad58c1825f6f6936101f09ea5d748509bb9f5c5d48eaa966a93bfebaa",
}


def run_digest(runs: list[tuple[list[str], Path | None]]) -> str:
    """Run each argv and digest its exit code, stdout and the file it wrote
    (when one is named)."""
    from chorcheck import cli

    digest = hashlib.sha256()
    for argv, written in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        text = out.getvalue()
        if written is not None:
            text += written.read_text() if written.exists() else "<no file>"
        digest.update(f"{code} {len(text)}\n{text}".encode())
    return digest.hexdigest()


def digest_line(label: str, runs: list[tuple[list[str], Path | None]]) -> bool:
    """Print the line of `runs` and return whether its digest is unchanged."""
    digest = run_digest(runs)
    same = EXPECTED.get(label) == digest
    print(f"{label}: {len(runs)} runs, sha256 {digest} {'ok' if same else 'CHANGED'}")
    return same


def digest_lines(tmp: str):
    """Yield each line's label and runs, in print order, with the corpus
    files written under `tmp`.  Some runs read files that the runs of an
    earlier line write, so run each line before taking the next."""
    recorded = json.loads(RECORDED.read_text())

    def write(name: str, text: str) -> str:
        path = Path(tmp, f"{name}.gt")
        path.write_text(text)
        return str(path)

    p2p = [(write(f"p2p{i}", e["gt"]), write(f"p2p{i}.complement", e["complement"]))
           for i, e in enumerate(recorded["p2p"])]
    for command, options in P2P_COMMANDS:
        runs = []
        for gt, comp in p2p:
            argv = [command, gt, *options]
            if command == "realisable":
                argv += ["--complement", comp]
            runs.append((argv, None))
        yield f"{command} {' '.join(options)}", runs

    closure = [write(f"abs{i}", e["gt"]) for i, e in enumerate(recorded["closure"])]
    for command, options in CLOSURE_COMMANDS:
        yield (f"closure {command} {' '.join(options)}",
               [([command, gt, *options], None) for gt in closure])

    law = [(write(f"law{i}", e["gt"]), Path(tmp, f"law{i}.complement.gt"))
           for i, e in enumerate(recorded["complement-law"]) if "gt" in e]
    yield "complement-law complement --method auto -o --json", [
        (["complement", gt, "--method", "auto", "-o", str(comp), "--json"], comp)
        for gt, comp in law]
    yield f"complement-law verify-complement --max-events {LAW_MAX_EVENTS} --json", [
        (["verify-complement", gt, str(comp), "--max-events", LAW_MAX_EVENTS, "--json"],
         None) for gt, comp in law]
    runs = []
    for gt, _ in law:
        cart = Path(gt).with_suffix(".cartesian.gt")
        runs.append((["complement", gt, "--method", "cartesian", "-o", str(cart),
                      "--json"], cart))
        runs += [(["verify-complement", gt, other, "--max-events",
                   LAW_VIOLATION_MAX_EVENTS, "--json"], None)
                 for other in (str(cart), gt)]
    yield (f"complement-law verify-complement --max-events {LAW_VIOLATION_MAX_EVENTS} "
           "--json against the Cartesian candidate and itself", runs)

    types = {(name, side): write(f"{name}.{side}", entry[side])
             for name, entry in recorded["member_types"].items()
             for side in ("gt", "complement")}
    runs = []
    for e in recorded["complement-law"]:
        if "gt" in e:
            continue
        for side in ("gt", "complement"):
            for universal in ((False, True) if e["universal"] else (False,)):
                argv = ["member", types[(e["type"], side)], "--msc", e["msc"], "--json"]
                runs.append((argv + ["--universal"] * universal, None))
    yield "complement-law member --json", runs

    cfsm_dirs = [Path(gt).with_suffix(".cfsm") for gt, _ in law]
    yield "complement-law project -o --json", [
        (["project", gt, "-o", str(out), "--json"], None)
        for (gt, _), out in zip(law, cfsm_dirs)]
    yield "complement-law dot on the projected .cfsm files", [
        (["dot", str(cfsm)], None)
        for out in cfsm_dirs for cfsm in sorted(out.glob("*.cfsm"))]
    yield "complement-law dot --json", [(["dot", gt, "--json"], None) for gt, _ in law]
    for method in LAW_COMPLEMENT_METHODS:
        yield f"complement-law complement --method {method} --json", [
            (["complement", gt, "--method", method, "--json"], None) for gt, _ in law]


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("error: run with PYTHONHASHSEED=0, or the digests depend on the "
              "hash seed", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        same = [digest_line(label, runs) for label, runs in digest_lines(tmp)]
    return 0 if all(same) else 1


if __name__ == "__main__":
    raise SystemExit(main())
