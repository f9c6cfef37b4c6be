"""Bound evaluators: each computes the right-hand side of one continuity
inequality from the spectral summary and norm distances of a state pair,
compares it against the directly evaluated left-hand side, and reports the
slack.

The D_q bounds and the lower-bound chains are functions of a ``PairEval``,
which computes everything they share once per pair; the ``BOUNDS`` registry
lists them with their q gates for the sweep and eval commands.

A report is *vacuous* when the hypotheses of the inequality fail for the
given states (for example a rank-deficient state where strict positivity is
required); the right-hand side is then +inf and ``holds`` is true by
vacuity, so sweeps over mixed instance families can proceed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, InternalInconsistency, PreconditionFailed
from .linalg import (
    HermitianOperator,
    PSD_TOL,
    as_herm,
    herm_power,
    psd_gap,
    schatten_norm,
    zero_threshold,
)
from .quadrature import QuadratureRule, frechet_integral_rhs
from .states import DensityMatrix, SpectralSummary, kernel_included, TOL_INCL
from .entropy import (
    ExtendedReal,
    q_log,
    quantum_relative_q,
    quantum_relative_q_low,
    relative_entropy_vn,
)

#: relative slack allowed by the ``holds`` verdict: lhs <= rhs + tol*(1+rhs)
TOL_BOUND = 1e-9

#: extra allowance for quadrature error in the PSD-gap check
FRECHET_QUAD_ALLOWANCE = 1e-7


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check.

    ``slack`` is rhs - lhs when both are finite, ``holds`` applies the
    relative tolerance, and ``extras`` carries evaluator-specific constants
    (intermediate links of a chain, exponents, norm bounds).
    """

    name: str
    lhs: ExtendedReal
    rhs: float
    slack: float | None
    holds: bool
    vacuous: bool = False
    constants: SpectralSummary | None = None
    distances: dict[str, float] | None = None
    extras: dict[str, float] = field(default_factory=dict)


class PairEval:
    """Evaluation context of one state pair (rho, sigma).

    Each quantity the bound evaluators share is computed on first use and
    kept: the spectral summary, the trace and spectral distances, kernel
    inclusion ker(sigma) in ker(rho), D_1, and D_q for every q asked for.
    """

    def __init__(self, rho: DensityMatrix, sigma: DensityMatrix,
                 tol_incl: float = TOL_INCL) -> None:
        if rho.dim != sigma.dim:
            raise DimensionMismatch(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
        self.rho = rho
        self.sigma = sigma
        self.tol_incl = tol_incl
        self._dq: dict[float, ExtendedReal] = {}

    @cached_property
    def summary(self) -> SpectralSummary:
        return SpectralSummary.from_states(self.rho, self.sigma)

    @cached_property
    def distances(self) -> dict[str, float]:
        return _distances(self.rho.matrix, self.sigma.matrix)

    @cached_property
    def kernel_included(self) -> bool:
        return kernel_included(self.sigma, self.rho, self.tol_incl)

    @cached_property
    def d1(self) -> ExtendedReal:
        return relative_entropy_vn(self.rho, self.sigma, self.tol_incl)

    def dq(self, q: float) -> ExtendedReal:
        q = float(q)
        if q not in self._dq:
            self._dq[q] = quantum_relative_q(self.rho, self.sigma, q, self.tol_incl)
        return self._dq[q]


def _distances(a: np.ndarray, b: np.ndarray) -> dict[str, float]:
    """||A - B||_1 and ||A - B||_inf."""
    delta = a - b
    return {
        "trace_norm": schatten_norm(delta, 1.0),
        "spectral_norm": schatten_norm(delta, math.inf),
    }


def _verdict(lhs: ExtendedReal, rhs: float, tol: float, vacuous: bool) -> tuple[bool, float | None]:
    if vacuous:
        return True, None
    lval = lhs.as_float()
    if math.isinf(lval) and math.isfinite(rhs):
        raise InternalInconsistency(
            "infinite divergence against a finite bound while hypotheses hold; "
            "kernel-inclusion tolerances are inconsistent"
        )
    if math.isinf(rhs):
        return True, None
    slack = rhs - lval
    return lval <= rhs + tol * (1.0 + rhs), slack


def _report(pair: PairEval, name: str, lhs: ExtendedReal, rhs: float, tol: float,
            vacuous: bool, extras: dict[str, float]) -> BoundReport:
    holds, slack = _verdict(lhs, rhs, tol, vacuous)
    return BoundReport(name, lhs, rhs, slack, holds, vacuous, pair.summary,
                       pair.distances, extras)


def _chain_holds(*links: float, tol: float) -> bool:
    """Monotone chain check with the relative tolerance at every link."""
    for low, high in zip(links[:-1], links[1:]):
        if math.isinf(high):
            continue
        if math.isinf(low):
            return False
        if not low <= high + tol * (1.0 + abs(high)):
            return False
    return True


def _gate_q(q: float, q_max: float) -> float:
    q = float(q)
    if not 1.0 < q <= q_max:
        raise PreconditionFailed(f"requires 1 < q <= {q_max}, got {q}")
    return q


def thm1_bounds(pair: PairEval, q: float, tol_bound: float = TOL_BOUND) -> list[BoundReport]:
    """Three linear bounds valid for strictly positive states and 1 < q <= 2.

    With a1 the largest eigenvalue of rho and lambda0 the smallest eigenvalue
    over both spectra:

        rhs1 = a1^(q-1)/lambda0^q * ||Delta||_inf / (q-1)
        rhs2 = a1^(q-1)/lambda0^q * ||Delta||_1 / (2(q-1))
        rhs3 = a1^q    /lambda0^q * ||Delta||_1 / (q-1)
    """
    q = _gate_q(q, 2.0)
    lhs = pair.dq(q)
    rho, sigma = pair.rho, pair.sigma
    vacuous = rho.rank < rho.dim or sigma.rank < sigma.dim
    if vacuous:
        rhs_vals = (math.inf, math.inf, math.inf)
    else:
        summary, dist = pair.summary, pair.distances
        lam0 = summary.lambda0
        coeff = summary.a1 ** (q - 1.0) / lam0**q / (q - 1.0)
        rhs_vals = (
            coeff * dist["spectral_norm"],
            coeff * dist["trace_norm"] / 2.0,
            summary.a1**q / lam0**q / (q - 1.0) * dist["trace_norm"],
        )
    return [
        _report(pair, name, lhs, rhs, tol_bound, vacuous, {"q": q})
        for name, rhs in zip(("thm1_rhs1", "thm1_rhs2", "thm1_rhs3"), rhs_vals)
    ]


def thm2_bound(
    pair: PairEval,
    q: float,
    variant: str = "general",
    tol_bound: float = TOL_BOUND,
) -> BoundReport:
    """Bound in the smallest nonzero eigenvalue b0 of sigma, for 1 < q <= 2.

    rhs = ln_q(b1/b0)/(1 - b0/b1) * a1^(q-1)/b0^(q-1) * ||Delta||_1  + second term,
    where the second term is a1^(q-1)/b0^q * ||Delta||_inf * ||Delta||_1 in the
    general variant and a1^(q-1)/(2 b0^q) * ||Delta||_1^2 in the traceless one
    (the difference of two states is always traceless).  At b1 = b0 the leading
    prefactor is replaced by its limit value 1.
    """
    q = _gate_q(q, 2.0)
    if variant not in ("general", "traceless"):
        raise PreconditionFailed(f"unknown variant {variant!r}")
    lhs = pair.dq(q)
    vacuous = not pair.kernel_included
    extras: dict[str, float] = {"q": q}
    if vacuous:
        rhs = math.inf
    else:
        summary, dist = pair.summary, pair.distances
        b0, b1, a1 = summary.b0, summary.b1, summary.a1
        ratio = b1 / b0
        if abs(ratio - 1.0) < 1e-8:
            prefactor = 1.0
        else:
            prefactor = q_log(ratio, q) / (1.0 - b0 / b1)
        extras["prefactor"] = prefactor
        first = prefactor * a1 ** (q - 1.0) / b0 ** (q - 1.0) * dist["trace_norm"]
        if variant == "general":
            second = a1 ** (q - 1.0) / b0**q * dist["spectral_norm"] * dist["trace_norm"]
        else:
            second = a1 ** (q - 1.0) / (2.0 * b0**q) * dist["trace_norm"] ** 2
        rhs = first + second
    name = "thm2_rhs" if variant == "general" else "thm2tl_rhs"
    return _report(pair, name, lhs, rhs, tol_bound, vacuous, extras)


def _ceil_snap(q: float) -> int:
    """Ceiling of q, snapping floats within 1e-12 of an integer to that integer."""
    nearest = round(q)
    if abs(q - nearest) <= 1e-12 and nearest >= 2:
        return int(nearest)
    return int(math.ceil(q))


def thm3_bound(
    pair: PairEval,
    q: float,
    variant: str = "general",
    tol_bound: float = TOL_BOUND,
) -> BoundReport:
    """Bound with the b0^(1-q) dependence.

    general (any q > 1):  rhs = (ceil(q)-1)/(q-1) * (lambda1/b0)^(q-1) * ||Delta||_1
    q2 (1 < q <= 2):      rhs = (a1/b0)^(q-1) * ||Delta||_1 / (q-1)

    Integer q uses ceil(q) = q, the limit of the ceiling from below.
    """
    if variant not in ("general", "q2"):
        raise PreconditionFailed(f"unknown variant {variant!r}")
    q = _gate_q(q, math.inf if variant == "general" else 2.0)
    lhs = pair.dq(q)
    vacuous = not pair.kernel_included
    extras: dict[str, float] = {"q": q}
    if vacuous:
        rhs = math.inf
    else:
        summary, trace_norm = pair.summary, pair.distances["trace_norm"]
        if variant == "general":
            factor = (_ceil_snap(q) - 1.0) / (q - 1.0)
            extras["ceiling_factor"] = factor
            rhs = factor * (summary.lambda1 / summary.b0) ** (q - 1.0) * trace_norm
        else:
            rhs = (summary.a1 / summary.b0) ** (q - 1.0) / (q - 1.0) * trace_norm
    name = "thm3_rhs" if variant == "general" else "thm3q2_rhs"
    return _report(pair, name, lhs, rhs, tol_bound, vacuous, extras)


def lower_bounds(
    pair: PairEval,
    q: float,
    p: float,
    tol_bound: float = TOL_BOUND,
) -> list[BoundReport]:
    """Lower-bound chains for 1 < q <= 2 and 0 <= p < 1.

    Chain report:    D_p <= D_1 <= D_q.
    Pinsker report:  ||Delta||_1^2 / 2 <= D_1 <= D_q.
    """
    q = _gate_q(q, 2.0)
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise PreconditionFailed(f"requires 0 <= p < 1, got {p}")
    d1f, dqf = pair.d1.as_float(), pair.dq(q).as_float()
    dp = quantum_relative_q_low(pair.rho, pair.sigma, p)
    pinsker_lhs = 0.5 * pair.distances["trace_norm"] ** 2
    reports = []
    for name, low, extras in (("lower_chain", dp, {"q": q, "p": p, "D1": d1f}),
                              ("pinsker", pinsker_lhs, {"q": q, "D1": d1f})):
        slack = dqf - low if math.isfinite(dqf) else None
        holds = _chain_holds(low, d1f, dqf, tol=tol_bound)
        reports.append(BoundReport(name, ExtendedReal.finite(low), dqf, slack, holds,
                                   False, pair.summary, pair.distances, extras))
    return reports


@dataclass(frozen=True)
class BoundSpec:
    """One registry row: a D_q bound evaluator and where it applies.

    ``name`` labels the bound in the sweep's ``vacuous`` column, the bound
    applies for 1 < q <= ``q_max``, and ``columns`` are the names of the
    reports ``rhs(pair, q, variant, tol_bound)`` returns, in order.
    """

    name: str
    q_max: float
    variant: str | None
    columns: tuple[str, ...]
    rhs: Callable[[PairEval, float, str | None, float], list[BoundReport]]

    def applies(self, q: float) -> bool:
        return 1.0 < q <= self.q_max

    def evaluate(self, pair: PairEval, q: float, tol_bound: float) -> list[BoundReport]:
        return self.rhs(pair, q, self.variant, tol_bound)


#: lower order p of the chain D_p <= D_1 <= D_q in registry reports
REGISTRY_P = 0.5

# The evaluators are looked up by name when a row is evaluated, so a wrapper
# installed on the module attribute (a profiler, a test counter) sees the call.
#: upper bounds on D_q, in sweep column order
UPPER_BOUNDS = (
    BoundSpec("thm1", 2.0, None, ("thm1_rhs1", "thm1_rhs2", "thm1_rhs3"),
              lambda pair, q, variant, tol: thm1_bounds(pair, q, tol)),
    BoundSpec("thm2", 2.0, "general", ("thm2_rhs",),
              lambda pair, q, variant, tol: [thm2_bound(pair, q, variant, tol)]),
    BoundSpec("thm2tl", 2.0, "traceless", ("thm2tl_rhs",),
              lambda pair, q, variant, tol: [thm2_bound(pair, q, variant, tol)]),
    BoundSpec("thm3", math.inf, "general", ("thm3_rhs",),
              lambda pair, q, variant, tol: [thm3_bound(pair, q, variant, tol)]),
    BoundSpec("thm3q2", 2.0, "q2", ("thm3q2_rhs",),
              lambda pair, q, variant, tol: [thm3_bound(pair, q, variant, tol)]),
)
#: every D_q bound: the upper bounds and the lower-bound chains
BOUNDS = UPPER_BOUNDS + (
    BoundSpec("lower", 2.0, None, ("lower_chain", "pinsker"),
              lambda pair, q, variant, tol: lower_bounds(pair, q, REGISTRY_P, tol)),
)


def power_diff_bound(
    X,
    Y,
    n: int,
    p: float,
    mode: str = "spectral",
    tol_bound: float = TOL_BOUND,
) -> BoundReport:
    """||X^n - Y^n||_p <= n * c^(n-1) * ||X - Y||_p.

    mode="spectral" uses c = max(||X||_inf, ||Y||_inf); mode="submultiplicative"
    uses c = max(||X||_p, ||Y||_p), valid for any submultiplicative norm.
    """
    X = as_herm(X)
    Y = as_herm(Y)
    n = int(n)
    if n < 1:
        raise PreconditionFailed(f"requires integer n >= 1, got {n}")
    if mode not in ("spectral", "submultiplicative"):
        raise PreconditionFailed(f"unknown mode {mode!r}")
    diff_pow = np.linalg.matrix_power(X.matrix, n) - np.linalg.matrix_power(Y.matrix, n)
    lhs_val = schatten_norm(diff_pow, p)
    dist_p = schatten_norm(X.matrix - Y.matrix, p)
    if mode == "spectral":
        base = max(schatten_norm(X, math.inf), schatten_norm(Y, math.inf))
    else:
        base = max(schatten_norm(X, p), schatten_norm(Y, p))
    rhs = n * base ** (n - 1) * dist_p
    lhs = ExtendedReal.finite(lhs_val)
    holds, slack = _verdict(lhs, rhs, tol_bound, False)
    dist = _distances(X.matrix, Y.matrix)
    return BoundReport(
        "power_diff", lhs, rhs, slack, holds, False, None, dist,
        {"n": float(n), "p": float(p), "base_norm": base},
    )


def lemma3_bound(
    A,
    B,
    s: float,
    tol_bound: float = TOL_BOUND,
) -> BoundReport:
    """|tr(B^(1-s) A^s) - tau| <= (a1/b0)^s * ||A - B||_1 for trace-matched
    A >= 0 and B > 0 with common trace tau, and 0 < s < 1."""
    A = as_herm(A)
    B = as_herm(B)
    s = float(s)
    if not 0.0 < s < 1.0:
        raise PreconditionFailed(f"requires 0 < s < 1, got {s}")
    tau_a, tau_b = A.trace(), B.trace()
    if abs(tau_a - tau_b) > 1e-10:
        raise PreconditionFailed(f"trace mismatch: {tau_a!r} vs {tau_b!r}")
    b_eigs = B.eigenvalues()
    if float(b_eigs[0]) <= zero_threshold(b_eigs):
        raise PreconditionFailed("second operand must be strictly positive")
    a_eigs = A.eigenvalues()
    mixed = herm_power(B, 1.0 - s).matrix @ herm_power(A, s).matrix
    lhs_val = abs(float(np.trace(mixed).real) - tau_a)
    a1 = float(a_eigs[-1])
    b0 = float(b_eigs[0])
    dist = _distances(A.matrix, B.matrix)
    rhs = (a1 / b0) ** s * dist["trace_norm"]
    lhs = ExtendedReal.finite(lhs_val)
    holds, slack = _verdict(lhs, rhs, tol_bound, False)
    return BoundReport(
        "lemma3", lhs, rhs, slack, holds, False, None, dist,
        {"s": s, "tau": tau_a, "a1": a1, "b0": b0},
    )


def frechet_check(
    A,
    B,
    r: float,
    rule: QuadratureRule | None = None,
    tol_psd: float = PSD_TOL,
) -> BoundReport:
    """Operator-order check A^(-r) - B^(-r) <= directional-derivative integral.

    The left side is evaluated by spectral calculus, the right side by
    resolvent quadrature in the direction B - A; the report's rhs is the
    minimum eigenvalue of (right - left), which must not drop below
    -(tol_psd + quadrature allowance).
    """
    A = as_herm(A)
    B = as_herm(B)
    if A.dim != B.dim:
        raise PreconditionFailed(f"dimension mismatch: {A.dim} vs {B.dim}")
    if not 0.0 < r < 1.0:
        raise PreconditionFailed(f"requires 0 < r < 1, got {r}")
    for op, side in ((A, "first"), (B, "second")):
        w = op.eigenvalues()
        if float(w[0]) <= zero_threshold(w):
            raise PreconditionFailed(f"{side} operand must be strictly positive")
    lhs_op = herm_power(A, -r) - herm_power(B, -r)
    rhs_op = frechet_integral_rhs(A, B - A, r, rule)
    gap = psd_gap(lhs_op, rhs_op)
    allowance = tol_psd + FRECHET_QUAD_ALLOWANCE
    holds = gap >= -allowance
    dist = _distances(A.matrix, B.matrix)
    return BoundReport(
        "frechet_gap", ExtendedReal.finite(0.0), gap, gap, holds, False, None, dist,
        {"r": r, "allowance": allowance},
    )
