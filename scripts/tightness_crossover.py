#!/usr/bin/env python
"""Compare the two q = 2 upper bounds on the sigma(b0) family for small b0.

The quadratic-in-distance bound carries a 1/b0^2 term, so for small enough
b0 the linear b0^(1-q) bound is strictly tighter; this script tabulates both
right-hand sides per trial.
"""

from __future__ import annotations

import argparse
import sys

from qrelent.errors import UsageError
from qrelent.harness import tightness_crossover


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--d", type=int, default=4, help="state dimension")
    args = parser.parse_args()

    try:
        records = tightness_crossover(seed=args.seed, trials=args.trials, d=args.d)
    except UsageError as exc:
        # the CLI's report and exit code for a bad argument
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    header = f"{'trial':>5} {'b0':>9} {'quadratic rhs':>15} {'linear rhs':>15} {'tighter':>8}"
    print(header)
    print("-" * len(header))
    for rec in records:
        print(f"{rec['trial']:>5} {rec['b0']:>9.0e} {rec['thm2_rhs']:>15.6g} "
              f"{rec['thm3q2_rhs']:>15.6g} {str(rec['tighter']):>8}")
    wins = sum(rec["tighter"] for rec in records)
    print(f"\nlinear bound tighter in {wins}/{len(records)} cases")


if __name__ == "__main__":
    main()
