"""Digests of the CLI's output on the p2p corpus.

Runs `chorcheck.cli.main` in-process on every p2p entry of
`bench/data/recorded.json` (which it only reads) with three commands, and
prints one line per command: the number of runs and a sha256 over their
stdout and exit codes.  Two checkouts that print the same digests gave
byte-identical output.  Some outputs follow set iteration order, so the
digests are reproducible only under PYTHONHASHSEED=0; any other setting
is refused with exit code 2.

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
COMMANDS = (
    ("realisable", ("--model", "p2p", "--bound", "2", "--max-events", "8", "--json")),
    ("realisable", ("--model", "synch", "--json")),
    ("simulate", ("--bound", "2", "--max-events", "8", "--json")),
)


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("error: run with PYTHONHASHSEED=0, or the digests depend on the "
              "hash seed", file=sys.stderr)
        return 2
    from chorcheck import cli

    entries = json.loads(RECORDED.read_text())["p2p"]
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for i, entry in enumerate(entries):
            gt, comp = Path(tmp, f"{i}.gt"), Path(tmp, f"{i}.complement.gt")
            gt.write_text(entry["gt"])
            comp.write_text(entry["complement"])
            files.append((str(gt), str(comp)))
        for command, options in COMMANDS:
            digest = hashlib.sha256()
            for gt, comp in files:
                argv = [command, gt, *options]
                if command == "realisable":
                    argv += ["--complement", comp]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                text = out.getvalue()
                digest.update(f"{code} {len(text)}\n{text}".encode())
            print(f"{command} {' '.join(options)}: {len(files)} runs, "
                  f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
