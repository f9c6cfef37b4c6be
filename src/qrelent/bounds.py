"""Bound evaluators: each computes the right-hand side of one continuity
inequality, compares it against the directly evaluated left-hand side, and
reports the verdict.

The lemma checks are functions of an ``OperatorPair`` (from the linear
algebra layer), which computes the singular values of two operands once and
shares them.  The D_q bounds and the lower-bound chains are functions of
the ``PairEval`` of a state pair (from the entropy layer): the OperatorPair
of (rho, sigma), which also computes the spectral summary and divergences
they share once per pair.  The ``BOUNDS`` registry lists them with their q
gates for the sweep and eval commands.  A report holds only its own values;
the summary and distances stay on the context.

Every verdict, here and in the verify suites, applies one rule, ``margin``:
lhs <= rhs holds within an allowance iff rhs + allowance - lhs >= 0.

A report is *vacuous* when the hypotheses of the inequality fail for the
given states (for example a rank-deficient state where strict positivity is
required); the right-hand side is then +inf and ``holds`` is true by
vacuity, so sweeps over mixed instance families can proceed.  Both sides of
a report are plain floats, with math.inf for +inf, as divergences are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InternalInconsistency, PreconditionFailed
from .linalg import (
    HermitianOperator,
    OperatorPair,
    herm_power,
    psd_gap,
    schatten_norm,
    zero_threshold,
)
from .quadrature import frechet_integral_rhs
from .entropy import Q_MAX, PairEval, q_log

#: relative slack allowed by the ``holds`` verdict: lhs <= rhs + tol*(1+rhs)
TOL_BOUND = 1e-9

#: allowance of the Lemma 1 PSD-gap check, for eigenvalue rounding and
#: quadrature error together
FRECHET_ALLOWANCE = 1e-7


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check.

    ``lhs`` and ``rhs`` are plain floats, math.inf where a side is +inf.
    ``holds`` is ``margin(lhs, rhs, allowance) >= 0``, except in the
    lower-bound chains, which apply the rule to each link of the chain.
    """

    name: str
    lhs: float
    rhs: float
    holds: bool
    vacuous: bool = False
    allowance: float = 0.0

    @property
    def slack(self) -> float | None:
        """rhs - lhs; None when vacuous or rhs is infinite."""
        if self.vacuous or math.isinf(self.rhs):
            return None
        return self.rhs - self.lhs


def margin(lhs: float, rhs: float, allowance: float) -> float:
    """The rule of every verdict: lhs <= rhs holds within ``allowance`` iff the
    margin rhs + allowance - lhs, computed in that order, is at least 0.

    A +inf rhs holds against any lhs but NaN, with margin +inf.  A NaN
    anywhere else gives a NaN margin, which fails, since NaN >= 0 is false.
    """
    if rhs == math.inf and not math.isnan(lhs):
        return math.inf
    return rhs + allowance - lhs


def _report(name: str, lhs: float, rhs: float, vacuous: bool) -> BoundReport:
    """An upper-bound report: lhs <= rhs within TOL_BOUND*(1 + rhs)."""
    if math.isnan(lhs):
        raise InternalInconsistency(f"{name}: the left-hand side is NaN")
    if math.isinf(lhs) and math.isfinite(rhs):
        raise InternalInconsistency(
            "infinite divergence against a finite bound while hypotheses hold; "
            "kernel-inclusion tolerances are inconsistent"
        )
    allowance = TOL_BOUND * (1.0 + rhs)
    return BoundReport(name, lhs, rhs, margin(lhs, rhs, allowance) >= 0.0, vacuous, allowance)


def _chain_holds(*links: float) -> bool:
    """Monotone chain check with the relative tolerance at every link."""
    return all(margin(low, high, TOL_BOUND * (1.0 + abs(high))) >= 0.0
               for low, high in zip(links, links[1:]))


def _gate_q(q: float, q_max: float) -> float:
    q = float(q)
    if not 1.0 < q <= q_max:
        raise PreconditionFailed(f"requires 1 < q <= {q_max}, got {q}")
    return q


def thm1_bounds(pair: PairEval, q: float) -> list[BoundReport]:
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
        a1, lam0 = summary["a1"], summary["lambda0"]
        coeff = a1 ** (q - 1.0) / lam0**q / (q - 1.0)
        rhs_vals = (
            coeff * dist["spectral_norm"],
            coeff * dist["trace_norm"] / 2.0,
            a1**q / lam0**q / (q - 1.0) * dist["trace_norm"],
        )
    return [
        _report(name, lhs, rhs, vacuous)
        for name, rhs in zip(("thm1_rhs1", "thm1_rhs2", "thm1_rhs3"), rhs_vals)
    ]


def thm2_bound(pair: PairEval, q: float, variant: str = "general") -> BoundReport:
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
    if vacuous:
        rhs = math.inf
    else:
        summary, dist = pair.summary, pair.distances
        b0, b1, a1 = summary["b0"], summary["b1"], summary["a1"]
        ratio = b1 / b0
        if abs(ratio - 1.0) < 1e-8:
            prefactor = 1.0
        else:
            prefactor = q_log(ratio, q) / (1.0 - b0 / b1)
        first = prefactor * a1 ** (q - 1.0) / b0 ** (q - 1.0) * dist["trace_norm"]
        if variant == "general":
            second = a1 ** (q - 1.0) / b0**q * dist["spectral_norm"] * dist["trace_norm"]
        else:
            second = a1 ** (q - 1.0) / (2.0 * b0**q) * dist["trace_norm"] ** 2
        rhs = first + second
    name = "thm2_rhs" if variant == "general" else "thm2tl_rhs"
    return _report(name, lhs, rhs, vacuous)


def ceiling_factor(q: float) -> float:
    """(ceil(q) - 1)/(q - 1) of the general thm3 bound, for q > 1; a q within
    1e-12 of an integer n >= 2 takes ceil(q) = n."""
    nearest = round(q)
    ceil = nearest if abs(q - nearest) <= 1e-12 and nearest >= 2 else math.ceil(q)
    return (ceil - 1.0) / (q - 1.0)


def thm3_bound(pair: PairEval, q: float, variant: str = "general") -> BoundReport:
    """Bound with the b0^(1-q) dependence.

    general (1 < q <= Q_MAX):  rhs = (ceil(q)-1)/(q-1) * (lambda1/b0)^(q-1) * ||Delta||_1
    q2 (1 < q <= 2):           rhs = (a1/b0)^(q-1) * ||Delta||_1 / (q-1)

    Integer q uses ceil(q) = q, the limit of the ceiling from below.  A
    general rhs whose power overflows float64 is +inf.
    """
    if variant not in ("general", "q2"):
        raise PreconditionFailed(f"unknown variant {variant!r}")
    q = _gate_q(q, Q_MAX if variant == "general" else 2.0)
    lhs = pair.dq(q)
    vacuous = not pair.kernel_included
    if vacuous:
        rhs = math.inf
    else:
        summary, trace_norm = pair.summary, pair.distances["trace_norm"]
        if variant == "general":
            try:
                rhs = (ceiling_factor(q) * (summary["lambda1"] / summary["b0"]) ** (q - 1.0)
                       * trace_norm)
            except OverflowError:  # past the float range, so above any finite D_q
                rhs = math.inf
        else:
            rhs = (summary["a1"] / summary["b0"]) ** (q - 1.0) / (q - 1.0) * trace_norm
    name = "thm3_rhs" if variant == "general" else "thm3q2_rhs"
    return _report(name, lhs, rhs, vacuous)


def lower_bounds(pair: PairEval, q: float, p: float) -> list[BoundReport]:
    """Lower-bound chains for 1 < q <= 2 and 0 <= p < 1.

    Chain report:    D_p <= D_1 <= D_q.
    Pinsker report:  ||Delta||_1^2 / 2 <= D_1 <= D_q.
    """
    q = _gate_q(q, 2.0)
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise PreconditionFailed(f"requires 0 <= p < 1, got {p}")
    d1, dq, dp = pair.d1, pair.dq(q), pair.dp(p)
    pinsker_lhs = 0.5 * pair.distances["trace_norm"] ** 2
    return [
        BoundReport(name, low, dq, _chain_holds(low, d1, dq))
        for name, low in (("lower_chain", dp), ("pinsker", pinsker_lhs))
    ]


@dataclass(frozen=True)
class BoundSpec:
    """One registry row: a D_q bound evaluator and where it applies.

    ``name`` labels the bound in the sweep's ``vacuous`` column, the bound
    applies for 1 < q <= ``q_max``, and ``columns`` are the names of the
    reports ``evaluate(pair, q)`` returns, in order.
    """

    name: str
    q_max: float
    columns: tuple[str, ...]
    evaluate: Callable[[PairEval, float], list[BoundReport]]

    def applies(self, q: float) -> bool:
        return 1.0 < q <= self.q_max


#: lower order p of the chain D_p <= D_1 <= D_q in registry reports
REGISTRY_P = 0.5

# The evaluators are looked up by name when a row is evaluated, so a wrapper
# installed on the module attribute (a profiler, a test counter) sees the call.
#: upper bounds on D_q, in sweep column order
UPPER_BOUNDS = (
    BoundSpec("thm1", 2.0, ("thm1_rhs1", "thm1_rhs2", "thm1_rhs3"),
              lambda pair, q: thm1_bounds(pair, q)),
    BoundSpec("thm2", 2.0, ("thm2_rhs",),
              lambda pair, q: [thm2_bound(pair, q, "general")]),
    BoundSpec("thm2tl", 2.0, ("thm2tl_rhs",),
              lambda pair, q: [thm2_bound(pair, q, "traceless")]),
    BoundSpec("thm3", Q_MAX, ("thm3_rhs",),
              lambda pair, q: [thm3_bound(pair, q, "general")]),
    BoundSpec("thm3q2", 2.0, ("thm3q2_rhs",),
              lambda pair, q: [thm3_bound(pair, q, "q2")]),
)
#: every D_q bound: the upper bounds and the lower-bound chains
BOUNDS = UPPER_BOUNDS + (
    BoundSpec("lower", 2.0, ("lower_chain", "pinsker"),
              lambda pair, q: lower_bounds(pair, q, REGISTRY_P)),
)


def power_diff_bound(ops: OperatorPair, n: int, p: float) -> BoundReport:
    """||X^n - Y^n||_p <= n * c^(n-1) * ||X - Y||_p with c = max(||X||_inf, ||Y||_inf)
    for the operands (X, Y) of ``ops``."""
    n = int(n)
    if n < 1:
        raise PreconditionFailed(f"requires integer n >= 1, got {n}")
    lhs_val = schatten_norm(ops.power_diff_singular_values(n), p)
    dist_p = schatten_norm(ops.diff_singular_values, p)
    base = max(schatten_norm(s, math.inf) for s in ops.operand_singular_values)
    rhs = n * base ** (n - 1) * dist_p
    return _report("power_diff", lhs_val, rhs, False)


def _positive_eigenvalues(op: HermitianOperator, side: str) -> np.ndarray:
    """The eigenvalues of a lemma check's ``side`` ("first" or "second")
    operand; PreconditionFailed unless they are above the zero threshold."""
    w = op.eigenvalues()
    if float(w[0]) <= zero_threshold(w):
        raise PreconditionFailed(f"{side} operand must be strictly positive")
    return w


def lemma3_bound(ops: OperatorPair, s: float) -> BoundReport:
    """|tr(B^(1-s) A^s) - tau| <= (a1/b0)^s * ||A - B||_1 for the operands
    (A, B) of ``ops``: trace-matched A >= 0 and B > 0 with common trace tau,
    and 0 < s < 1."""
    A, B = ops.a, ops.b
    s = float(s)
    if not 0.0 < s < 1.0:
        raise PreconditionFailed(f"requires 0 < s < 1, got {s}")
    tau_a, tau_b = A.trace(), B.trace()
    if abs(tau_a - tau_b) > 1e-10:
        raise PreconditionFailed(f"trace mismatch: {tau_a!r} vs {tau_b!r}")
    b_eigs = _positive_eigenvalues(B, "second")
    a_eigs = A.eigenvalues()
    mixed = herm_power(B, 1.0 - s).matrix @ herm_power(A, s).matrix
    lhs_val = abs(float(np.trace(mixed).real) - tau_a)
    a1 = float(a_eigs[-1])
    b0 = float(b_eigs[0])
    rhs = (a1 / b0) ** s * ops.distances["trace_norm"]
    return _report("lemma3", lhs_val, rhs, False)


def frechet_check(ops: OperatorPair, rs) -> tuple[BoundReport, ...]:
    """Operator-order check A^(-r) - B^(-r) <= directional-derivative integral
    for the operands (A, B) of ``ops``, one report for each exponent r in the
    tuple ``rs``.

    The left side is evaluated by spectral calculus, the right side by
    resolvent quadrature in the direction B - A, one stack of solves for
    every r; each report's rhs is the minimum eigenvalue of (right - left),
    which must not drop below -FRECHET_ALLOWANCE.
    """
    A, B = ops.a, ops.b
    rs = tuple(float(r) for r in rs)
    for r in rs:
        if not 0.0 < r < 1.0:
            raise PreconditionFailed(f"requires 0 < r < 1, got {r}")
    for op, side in ((A, "first"), (B, "second")):
        _positive_eigenvalues(op, side)
    reports = []
    for r, rhs_op in zip(rs, frechet_integral_rhs(A, B - A, rs)):
        gap = psd_gap(herm_power(A, -r) - herm_power(B, -r), rhs_op)
        holds = margin(0.0, gap, FRECHET_ALLOWANCE) >= 0.0
        reports.append(BoundReport("frechet_gap", 0.0, gap, holds, False, FRECHET_ALLOWANCE))
    return tuple(reports)
