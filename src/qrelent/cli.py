"""Command-line front end.

Subcommands: verify, sweep, eval, gen; each accepts only the flags it uses.
Flags override config-file values.

Exit codes:
  0  pass
  1  property failure (counterexample written)
  2  errors.UsageError: usage or configuration error, or an argument outside
     a function's domain
  3  errors.ParseError, OSError or UnicodeEncodeError: an unreadable file or unwritable output
  4  errors.InternalError: two evaluation routes disagreed, an infinite D_q
     met a finite upper bound, or an eigendecomposition failed its contract
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .entropy import Q_MAX
from .errors import ConfigError, InternalError, ParseError, UsageError
from .harness import SweepConfig, cmd_eval, cmd_gen, cmd_sweep, cmd_verify
from .states import eval_text


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Flags of the config-driven commands, verify and sweep."""
    parser.add_argument("--seed", type=int, default=None, help="root RNG seed")
    parser.add_argument("--config", default=None, help="JSON config file (SweepConfig fields)")
    parser.add_argument("--out", default=None, help="output artifact path")
    parser.add_argument("--trials", type=int, default=None, help="trials per suite/grid point")
    parser.add_argument("--dims", type=_int_list, default=None, help="comma list of dimensions")


def _build_config(args: argparse.Namespace, **grids) -> SweepConfig:
    """The config file's values, overridden by every flag that was given."""
    doc: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise ConfigError(f"config file {args.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
    config = SweepConfig.from_dict(doc)
    flags = dict(seed=args.seed, trials=args.trials, dims=args.dims, output_path=args.out,
                 **grids)
    return dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})


def _run_verify(args: argparse.Namespace) -> int:
    report = cmd_verify(_build_config(args))
    for suite in report.suites:
        status = "pass" if suite.failures == 0 else "FAIL"
        slack = "n/a" if suite.worst_slack is None else f"{suite.worst_slack:.3e}"
        print(f"{status}  {suite.name:24s} instances={suite.instances_run:6d} "
              f"failures={suite.failures} worst_slack={slack}")
        if suite.counterexample_path:
            print(f"      counterexample: {suite.counterexample_path}")
    print("all suites passed" if report.passed else "verification FAILED")
    return 0 if report.passed else 1


def _run_sweep(args: argparse.Namespace) -> int:
    out = cmd_sweep(_build_config(args, q_grid=args.q, b0_grid=args.b0))
    print(f"wrote {out}")
    return 0


def _run_eval(args: argparse.Namespace) -> int:
    report = cmd_eval(args.rho, args.sigma, (2.0,) if args.q is None else args.q)
    print(eval_text(report))
    return 0


def _run_gen(args: argparse.Namespace) -> int:
    out = cmd_gen(args.d, args.rank, args.seed, args.out)
    print(f"wrote {out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    one.  Parsing leaves no state on it: each parse_args call returns a fresh
    namespace, and the parser holds no handler, since main picks one by the
    subcommand's name on each call."""
    parser = argparse.ArgumentParser(
        prog="qrelent",
        description="Relative q-entropy of density matrices and its continuity bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run every randomized property suite")
    _add_run_flags(p_verify)

    p_sweep = sub.add_parser("sweep", help="grid sweep writing one CSV row per instance")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--q", type=_float_list, default=None,
                         help=f"comma list of q values, each in (1, {Q_MAX:g}]")
    p_sweep.add_argument("--b0", type=_float_list, default=None,
                         help="comma list of smallest-eigenvalue values, each at most "
                              "1/max(dims); the default 0.1,0.01 fits only dims up to 10")

    p_eval = sub.add_parser("eval", help="evaluate one state pair from files")
    p_eval.add_argument("rho", help="state file for the first argument")
    p_eval.add_argument("sigma", help="state file for the second argument")
    p_eval.add_argument("--q", type=_float_list, default=None,
                        help="comma list of q values (default 2)")

    p_gen = sub.add_parser("gen", help="sample a random state and write it to a file")
    p_gen.add_argument("--d", type=int, required=True, help="dimension")
    p_gen.add_argument("--rank", type=int, required=True, help="rank of the sampled state")
    p_gen.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_gen.add_argument("--out", required=True, help="output state file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = {"verify": _run_verify, "sweep": _run_sweep, "eval": _run_eval, "gen": _run_gen}
    try:
        return run[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, OSError, UnicodeEncodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
