#!/usr/bin/env python
"""Measure the cold start of one-shot commands: fresh `python -m qrelent`
processes for eval, gen and sweep.

For each command, prints the median, min and max wall time of N fresh
processes, and the orjson and scipy modules one more run of it loads (read
from ``python -X importtime``; that run also warms the file cache and is not
timed).  The inputs are two D x D states for eval, one D x D state for gen
and a sweep at dimension D on its default q and b0 grids; they are written
to a temporary directory first.  The child processes import the qrelent
that this interpreter would import: the installed package, or the tree
PYTHONPATH names.

    PYTHONPATH=src python scripts/cold_start.py [--runs N]
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: state dimension of every command: the d = 8 pair of the cold-start metric
D = 8
COMMANDS = {
    "eval": ["eval", "rho.json", "sigma.json", "--q", "1.5,2,3"],
    "gen": ["gen", "--d", str(D), "--rank", str(D), "--seed", "3", "--out", "gen.json"],
    "sweep": ["sweep", "--dims", str(D), "--trials", "2", "--seed", "1", "--out", "sweep.csv"],
}


def _qrelent(args: list[str], cwd: str, env: dict, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-m", "qrelent", *args], cwd=cwd, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          check=True)


def _modules(importtime: str, package: str) -> list[str]:
    """The modules of ``package`` named in the output of ``python -X importtime``."""
    names = (line.rsplit("|", 1)[-1].strip() for line in importtime.splitlines()
             if line.startswith("import time:"))
    return sorted(name for name in names if name.split(".")[0] == package)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=9, help="timed processes per command")
    args = parser.parse_args()
    if args.runs < 1:
        # the CLI's report and exit code for a bad argument
        print(f"error: --runs must be at least 1, got {args.runs}", file=sys.stderr)
        sys.exit(2)
    # the tree that holds this interpreter's qrelent, pinned before the
    # children start in another working directory
    spec = importlib.util.find_spec("qrelent")
    if spec is None:
        print("error: qrelent is not importable; install it, or run with PYTHONPATH=src",
              file=sys.stderr)
        sys.exit(2)
    tree = Path(spec.origin).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(tree))

    with tempfile.TemporaryDirectory() as work:
        for seed, out in ((1, "rho.json"), (2, "sigma.json")):
            _qrelent(["gen", "--d", str(D), "--rank", str(D), "--seed", str(seed),
                      "--out", out], work, env)
        print(f"{'command':8s} {'median_s':>9s} {'min_s':>7s} {'max_s':>7s}  "
              f"orjson modules  scipy modules")
        for name, command in COMMANDS.items():
            importtime = _qrelent(command, work, env, "-X", "importtime").stderr
            orjson, loaded = _modules(importtime, "orjson"), _modules(importtime, "scipy")
            times = []
            for _ in range(args.runs):
                start = time.perf_counter()
                _qrelent(command, work, env)
                times.append(time.perf_counter() - start)
            packages = sorted({m for m in loaded if m.count(".") == 1 and "._" not in m})
            print(f"{name:8s} {statistics.median(times):9.3f} {min(times):7.3f} "
                  f"{max(times):7.3f}  {len(orjson):14d}  "
                  f"{len(loaded)} ({', '.join(packages) or 'none'})")


if __name__ == "__main__":
    main()
