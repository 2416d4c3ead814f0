"""Random audit of the complement law.

Generates seeded random global types, complements each with the first
applicable procedure, and checks the bounded xor law against the oracle.
Exits 1 when the law fails on some type, 2 on a bad argument, and 3 when
`--max-events` exceeds the oracle's size limit.
"""

from __future__ import annotations

import argparse
import random

from chorcheck.complement import (NoComplementMethodError, complement_auto,
                                  verify_complement)
from chorcheck.randomgen import (random_commutation_deterministic,
                                 random_three_process_deterministic)
from chorcheck.trace import SizeLimitError


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=positive_int, default=50)
    parser.add_argument("--max-events", type=positive_int, default=5)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    failures = skipped = 0
    for i in range(args.count):
        gen = (random_commutation_deterministic if i % 2 == 0
               else random_three_process_deterministic)
        g = gen(rng)
        try:
            result = complement_auto(g)
        except NoComplementMethodError:
            skipped += 1
            continue
        try:
            report = verify_complement(g, result.gtype, args.max_events)
        except SizeLimitError as exc:
            parser.exit(3, f"error: {exc}\n")
        status = "ok" if report.passed else "FAIL"
        if not report.passed:
            failures += 1
        print(f"[{i:3}] {result.method:12} universe={report.universe_size:6} {status}")
    print(f"\n{args.count - failures - skipped} passed, {failures} failed, "
          f"{skipped} skipped (no applicable method)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
