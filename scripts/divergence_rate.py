#!/usr/bin/env python
"""Probe how fast D_q grows as the smallest eigenvalue of sigma shrinks.

For a fixed random rho and the family sigma(b0), prints D_q, the b0^(1-q)
upper bound, and the rescaled ratio D_q * b0^(q-1) next to its envelope
constant for each grid point.
"""

from __future__ import annotations

import argparse
import sys

from qrelent.errors import UsageError
from qrelent.harness import divergence_envelope


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--d", type=int, default=4, help="state dimension")
    args = parser.parse_args()

    try:
        records = divergence_envelope(seed=args.seed, d=args.d)
    except UsageError as exc:
        # the CLI's report and exit code for a bad argument
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    header = f"{'q':>5} {'b0':>9} {'D_q':>13} {'bound':>13} {'ratio':>13} {'envelope':>13}"
    print(header)
    print("-" * len(header))
    for rec in records:
        print(f"{rec['q']:>5.2f} {rec['b0']:>9.0e} {rec['Dq']:>13.6g} "
              f"{rec['thm3_rhs']:>13.6g} {rec['ratio']:>13.6g} "
              f"{rec['envelope_constant']:>13.6g}")
    violations = [rec for rec in records if not rec["holds"]]
    print(f"\n{len(records)} points, {len(violations)} bound violations")


if __name__ == "__main__":
    main()
