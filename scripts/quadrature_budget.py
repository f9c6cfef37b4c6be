#!/usr/bin/env python
"""Measure the resolvent-quadrature error against the node budget.

For random strictly positive operands A, drawn as the quadrature oracle
suite draws them (d = 2..8, condition number drawn in each band), prints the
worst error of the quadrature oracle at each number of Gauss nodes per
panel, with the pole-scale ladder unpadded (the default) and padded by one
decade at each end:

* A^r, both integral forms, against spectral calculus, as
  max|error| / max(1, ||A||^r);
* the Frechet integral (sin(r pi)/pi) int y^(-r) (y+A)^(-1) D (y+A)^(-1) dy
  against the Daleckii-Krein divided differences of -t^(-r) in the
  eigenbasis of A, as max|error| / max|exact|;

for r in {0.1, 0.5, 0.9}.  The oracle suites allow 1e-8 for both.  The run
is deterministic: a fixed seed draws the operands.

Each row runs the library's own rules, ``_power_rule`` and
``_frechet_rule``, which ``frac_power_operator`` and
``frechet_integral_rhs`` run at NODES_PER_PANEL nodes on the unpadded
ladder; a test in tests/test_quadrature.py holds each rule there to its
public function bit for bit.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from qrelent.errors import ConfigError, UsageError
from qrelent.harness import _check_seed, _conditioned_spectrum
from qrelent.linalg import HermitianOperator, apply_function, schatten_norm
from qrelent.quadrature import _frechet_rule, _pd_scales, _power_rule, geometric_splits
from qrelent.states import as_generator, haar_unitary

NODES = (12, 16, 20, 24, 32, 64)
PADS = (0, 1)
BANDS = ((0.0, 3.0), (3.0, 6.0), (6.0, 10.0))
R_VALUES = (0.1, 0.5, 0.9)


def daleckii_krein(a: HermitianOperator, direction: np.ndarray, r: float) -> np.ndarray:
    """Derivative of t -> -t^(-r) at A in the given direction, from the
    divided differences b^(-r-1) (-expm1(-r x)) / expm1(x), x = ln(a/b),
    which stay accurate for close eigenvalues."""
    w, u = a.eig()
    x = np.log(w[:, None] / w[None, :])
    with np.errstate(invalid="ignore"):
        ratio = np.where(x == 0.0, r, -np.expm1(-r * x) / np.expm1(x))
    dd = w[None, :] ** (-r - 1.0) * ratio
    return u @ ((u.conj().T @ direction @ u) * dd) @ u.conj().T


def padded(low: float, high: float, pad: int) -> tuple[float, ...]:
    return geometric_splits(low / 10.0**pad, high * 10.0**pad)


def operand_errors(a: HermitianOperator, direction: np.ndarray, n: int,
                   pad: int) -> tuple[float, float]:
    """(power error, Frechet error) of one operand, worst over R_VALUES."""
    lo, hi = _pd_scales(a)
    norm = schatten_norm(a, math.inf)
    power_err = frechet_err = 0.0
    for r in R_VALUES:
        spectral = apply_function(a, lambda lam: lam**r).matrix
        for form, splits in (("first", padded(lo, hi, pad)),
                             ("second", padded(1.0 / hi, 1.0 / lo, pad))):
            quad = _power_rule(a.matrix, (r,), form, splits, n)[0].matrix
            err = float(np.max(np.abs(quad - spectral))) / max(1.0, norm**r)
            power_err = max(power_err, err)
        exact = daleckii_krein(a, direction, r)
        quad = _frechet_rule(a.matrix, direction, (r,), padded(lo, hi, pad), n)[0].matrix
        err = float(np.max(np.abs(quad - exact)) / np.max(np.abs(exact)))
        frechet_err = max(frechet_err, err)
    return power_err, frechet_err


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--operands", type=int, default=50, help="operands per condition band")
    args = parser.parse_args()
    try:
        _check_seed(args.seed)
        if args.operands < 1:
            raise ConfigError(f"--operands must be at least 1, got {args.operands}")
    except UsageError as exc:
        # the CLI's report and exit code for a bad argument
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)

    rng = as_generator(args.seed)
    operands = []
    for low, high in BANDS:
        band = []
        for _ in range(args.operands):
            d = int(rng.integers(2, 9))
            w = _conditioned_spectrum(rng, d, float(rng.uniform(low, high)))
            a = HermitianOperator.from_eigensystem(w, haar_unitary(d, rng))
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            direction = (g + g.conj().T) / 2.0
            band.append((a, direction / np.max(np.abs(direction))))
        operands.append(band)

    bands = [f"1e{int(low)}-1e{int(high)}" for low, high in BANDS]
    header = f"{'nodes':>5} {'cond':>10} " + " ".join(
        f"{label:>13}" for label in ("A^r pad 0", "A^r pad 1", "Frechet pad 0", "Frechet pad 1"))
    print(header)
    print("-" * len(header))
    for n in NODES:
        for label, band in zip(bands, operands):
            power = {}
            frechet = {}
            for pad in PADS:
                errs = [operand_errors(a, direction, n, pad) for a, direction in band]
                power[pad] = max(e[0] for e in errs)
                frechet[pad] = max(e[1] for e in errs)
            print(f"{n:>5} {label:>10} {power[0]:>13.2e} {power[1]:>13.2e} "
                  f"{frechet[0]:>13.2e} {frechet[1]:>13.2e}")
    print(f"\n{args.operands} operands per band, d = 2..8, r in {R_VALUES}, seed {args.seed}; "
          "the oracle budget is 1e-8")


if __name__ == "__main__":
    main()
