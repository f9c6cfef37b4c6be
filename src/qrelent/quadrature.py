"""Fractional powers and resolvent integrals by weighted Gauss quadrature.

Everything here reduces to integrals of the form

    I[f] = int_0^inf y^e f(y) dy,    e in (-1, 0),

with f analytic in a neighbourhood of [0, inf) and y*f(y) bounded.  The
half-line is split into panels: a Gauss-Jacobi head panel absorbs the
algebraic singularity y^e at the origin, geometric interior panels use
Gauss-Legendre, and the tail (c, inf) is mapped to (0, 1] by y -> c/u where
a second Gauss-Jacobi rule absorbs the endpoint weight produced by the decay
of f.  Interior split points form a geometric ladder spanning the scales of
the integrand's poles, which keeps every pole a fixed relative distance from
its nearest panel and gives spectral accuracy uniformly in the conditioning.

``nodes_weights`` lays every node and weight of that rule out as two arrays.
Scalar integrands are evaluated once on the node array and summed with an
exact fsum.  Operator integrands are resolvents of the shifted matrices
alpha_k A + beta_k I: one kernel stacks them over the nodes, rejects the stack
unless a batched Cholesky factorization shows every member positive definite,
solves the whole stack at once and adds the weighted solutions in node order.
The operator functions take a tuple of exponents: their rules share the
interior nodes of the operand's ladder (``shared_nodes_weights``), so one
stack of solves serves every exponent.  No eigendecomposition is involved,
so results from this module can serve as an independent cross-check for
spectral calculus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy.special import roots_jacobi, roots_legendre

from .errors import ConfigError, DimensionMismatch, DomainViolation
from .linalg import HermitianOperator, as_herm

#: geometric ratio between consecutive interior split points
LADDER_RATIO = 10.0
#: default Gauss nodes per panel: scripts/quadrature_budget.py measures the
#: operator powers and Frechet integrals at the float64 floor from 24 nodes on
NODES_PER_PANEL = 24
#: memory cap for one chunk of the stacked node matrices (8 nodes at d=256)
_CHUNK_BYTES = 1 << 23


@dataclass(frozen=True)
class QuadratureRule:
    """Node budget and panel layout of one quadrature.

    ``splits`` is the ascending tuple of breakpoints of (0, inf); when None
    the evaluator derives a geometric ladder from cheap norm bounds of its
    operand (no eigendecomposition involved).  Every function that takes a
    rule also takes, and checks, its own exponent r.
    """

    nodes_per_panel: int = NODES_PER_PANEL
    splits: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.nodes_per_panel < 4:
            raise DomainViolation("nodes_per_panel must be at least 4")
        if self.splits is not None:
            s = tuple(float(x) for x in self.splits)
            if len(s) < 1 or any(x <= 0.0 for x in s) or list(s) != sorted(s):
                raise DomainViolation("splits must be positive and ascending")
            object.__setattr__(self, "splits", s)


@lru_cache(maxsize=256)
def _jacobi(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    # weight (1+t)^beta on [-1, 1]
    t, w = roots_jacobi(n, 0.0, beta)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


@lru_cache(maxsize=32)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    t, w = roots_legendre(n)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def geometric_splits(scale_low: float, scale_high: float) -> tuple[float, ...]:
    """Ascending breakpoints scale_low * LADDER_RATIO^k covering [scale_low, scale_high]."""
    if not (scale_low > 0.0 and scale_high >= scale_low):
        raise DomainViolation("scales must satisfy 0 < low <= high")
    count = max(1, math.ceil(round(math.log(scale_high / scale_low) / math.log(LADDER_RATIO), 12)))
    return tuple(scale_low * LADDER_RATIO**k for k in range(count + 1))


def shared_nodes_weights(exponents, splits: tuple[float, ...], n: int
                         ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """One node array y for the rules of several weight exponents on one ladder,
    and per exponent its (index, weights) with sum_k w_k f(y[index_k]) ~
    int_0^inf y^exponent f(y) dy.

    Every exponent must lie in (-1, 0).  The Gauss-Legendre interior nodes
    depend only on the splits, so the rules share them; each exponent adds
    its own Gauss-Jacobi head and tail panel of n nodes.  y holds every head
    (in exponent order), the interior, then every tail, so each index
    ascends and y[index] is the exponent's rule in head, interior, tail order.
    """
    es = tuple(float(e) for e in exponents)
    for e in es:
        if not -1.0 < e < 0.0:
            raise DomainViolation(f"weight exponent must lie in (-1, 0), got {e}")
    c0, ck = splits[0], splits[-1]
    tl, wl = _legendre(n)
    panels = [((b - a) / 2.0, (a + b) / 2.0) for a, b in zip(splits[:-1], splits[1:])]
    interior = [mid + half * tl for half, mid in panels]
    heads, tails, weights = [], [], []
    for e in es:
        t, w = _jacobi(n, e)
        heads.append(c0 * (1.0 + t) / 2.0)
        ws = [(c0 / 2.0) ** (e + 1.0) * w]
        ws.extend(half * wl * y**e for (half, _), y in zip(panels, interior))
        # tail: y = ck/u turns the decay of f into the Jacobi weight u^(-e-2+1);
        # reversed so that y ascends
        t2, w2 = _jacobi(n, -e - 1.0)
        u = (1.0 + t2[::-1]) / 2.0
        tails.append(ck / u)
        ws.append(ck ** (e + 1.0) * 2.0**e * w2[::-1] / u)
        weights.append(np.concatenate(ws))
    k, m = len(es), n * len(panels)
    panel, shared = np.arange(n), np.arange(k * n, k * n + m)
    index = [np.concatenate([panel + i * n, shared, panel + (k * n + m + i * n)])
             for i in range(k)]
    return np.concatenate(heads + interior + tails), list(zip(index, weights))


def nodes_weights(exponent: float, splits: tuple[float, ...],
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y and weights w with sum_k w_k f(y_k) ~ int_0^inf y^exponent f(y) dy.

    ``exponent`` must lie in (-1, 0).  There are n nodes per panel and
    len(splits) + 1 panels; the nodes ascend, so head, interior and tail
    terms are always accumulated in the same order.
    """
    y, ((_, w),) = shared_nodes_weights((exponent,), splits, n)
    return y, w


def _scalar_integral(f, exponent: float, splits: tuple[float, ...], n: int) -> float:
    """Exact fsum of w_k f(y_k); f is evaluated once on the node array."""
    y, w = nodes_weights(exponent, splits, n)
    return math.fsum(w * f(y))


def _resolvent_sum(mat: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
                   rules: list[tuple[np.ndarray, np.ndarray]], rhs: np.ndarray,
                   middle: np.ndarray | None = None) -> list[np.ndarray]:
    """Per rule (index, w), sum_k w_k X_(index_k) with X_j = (alpha_j A +
    beta_j I)^(-1) rhs, or X_j D X_j when ``middle`` = D is given.

    Every shifted matrix must be positive definite: each chunk of the stack
    is Cholesky-checked before it is solved, and DomainViolation is raised
    otherwise.  Nodes are taken in consecutive chunks of at most
    _CHUNK_BYTES of matrices, each node is solved once for every rule that
    uses it, and each rule's part of a chunk is summed by einsum in its
    (ascending) index order.  The result is bit-reproducible, and with one
    chunk it is bit-identical to summing each rule on its own stack.
    """
    d = mat.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    step = max(1, _CHUNK_BYTES // (16 * d * d))
    totals = [np.zeros((d, d), dtype=np.complex128) for _ in rules]
    for k in range(0, len(alpha), step):
        part = slice(k, k + step)
        stack = alpha[part, None, None] * mat + beta[part, None, None] * eye
        try:
            np.linalg.cholesky(stack)
            x = np.linalg.solve(stack, rhs)
        except np.linalg.LinAlgError as exc:
            raise DomainViolation(f"matrix is not strictly positive definite: {exc}") from exc
        if middle is not None:
            x = x @ middle @ x
        for total, (index, w) in zip(totals, rules):
            lo, hi = np.searchsorted(index, (k, k + step))
            if lo < hi:
                total += np.einsum("k,kij->ij", w[lo:hi], x[index[lo:hi] - k])
    return totals


def _exponents(rs) -> tuple[float, ...]:
    """The exponents of an operator integral as floats, each in (0, 1)."""
    rs = tuple(float(r) for r in rs)
    if not rs:
        raise DomainViolation("at least one exponent is required")
    for r in rs:
        if not 0.0 < r < 1.0:
            raise DomainViolation(f"exponent must lie in (0, 1), got {r}")
    return rs


def _scaled_hermitian(rs: tuple[float, ...], totals: list[np.ndarray]
                      ) -> tuple[HermitianOperator, ...]:
    """(sin(r pi)/pi) * total per exponent, symmetrized."""
    results = []
    for r, total in zip(rs, totals):
        result = math.sin(r * math.pi) / math.pi * total
        results.append(HermitianOperator((result + result.conj().T) / 2.0))
    return tuple(results)


def frac_power_scalar(a: float, r: float, form: str = "first") -> float:
    """a^r for a > 0 and r in (0, 1) via an integral representation, with
    NODES_PER_PANEL nodes on the one-point ladder at the integrand's pole.

    form="first":   (sin(r pi)/pi) int_0^inf x^(r-1) a/(a+x) dx
    form="second":  (sin(r pi)/pi) int_0^inf y^(-r) (y + 1/a)^(-1) dy
    """
    a = float(a)
    if not a > 0.0:
        raise DomainViolation(f"base must be positive, got {a}")
    if not 0.0 < r < 1.0:
        raise DomainViolation(f"exponent must lie in (0, 1), got {r}")
    if form == "first":
        splits = geometric_splits(a, a)
        val = _scalar_integral(lambda x: a / (a + x), r - 1.0, splits, NODES_PER_PANEL)
    elif form == "second":
        splits = geometric_splits(1.0 / a, 1.0 / a)
        val = _scalar_integral(lambda y: 1.0 / (y + 1.0 / a), -r, splits, NODES_PER_PANEL)
    else:
        raise DomainViolation(f"unknown form {form!r}")
    return math.sin(r * math.pi) / math.pi * val


def _pd_scales(h: HermitianOperator) -> tuple[float, float]:
    """Bounds (lo <= lambda_min, hi >= lambda_max) from SPD solves, no eigh."""
    mat = h.matrix
    try:
        chol = scipy.linalg.cho_factor(mat, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise DomainViolation(f"matrix is not strictly positive definite: {exc}") from exc
    inv = scipy.linalg.cho_solve(chol, np.eye(h.dim, dtype=np.complex128), check_finite=False)
    hi = float(np.linalg.norm(mat, "fro"))
    inv_norm = float(np.linalg.norm(inv, "fro"))
    lo = 1.0 / inv_norm
    cut = h.dim * np.finfo(np.float64).eps * max(1.0, hi)
    if lo <= cut:
        raise DomainViolation("matrix is numerically singular")
    return lo, hi


def frac_power_operator(A, rs, rule: QuadratureRule | None = None,
                        form: str = "first") -> tuple[HermitianOperator, ...]:
    """A^r for strictly positive A and each exponent r in the tuple ``rs``, by
    resolvent quadrature; one stack of solves serves every exponent.

    form="first" integrates x^(r-1) A (A + x I)^(-1); form="second" integrates
    y^(-r) (y I + A^(-1))^(-1), evaluated as A (y A + I)^(-1) so that only
    positive-definite solves are needed.
    """
    A = as_herm(A)
    rs = _exponents(rs)
    rule = rule or QuadratureRule()
    n = rule.nodes_per_panel
    lo, hi = _pd_scales(A)
    mat = A.matrix

    if form == "first":
        y, rules = shared_nodes_weights([r - 1.0 for r in rs],
                                        rule.splits or geometric_splits(lo, hi), n)
        alpha, beta = np.ones_like(y), y
    elif form == "second":
        y, rules = shared_nodes_weights([-r for r in rs],
                                        rule.splits or geometric_splits(1.0 / hi, 1.0 / lo), n)
        alpha, beta = y, np.ones_like(y)
    else:
        raise DomainViolation(f"unknown form {form!r}")
    return _scaled_hermitian(rs, _resolvent_sum(mat, alpha, beta, rules, mat))


def frechet_integral_rhs(A, D, rs, rule: QuadratureRule | None = None
                         ) -> tuple[HermitianOperator, ...]:
    """(sin(r pi)/pi) int_0^inf y^(-r) (yI+A)^(-1) D (yI+A)^(-1) dy for each
    exponent r in the tuple ``rs``; one stack of solves serves every exponent.

    For D commuting with A this acts eigenvalue-wise as d * r * a^(-r-1); in
    general it is the derivative of t -> -t^(-r) at A in the direction D.
    """
    A = as_herm(A)
    D = as_herm(D)
    if A.dim != D.dim:
        raise DimensionMismatch(f"dimension mismatch: {A.dim} vs {D.dim}")
    rs = _exponents(rs)
    rule = rule or QuadratureRule()
    lo, hi = _pd_scales(A)
    y, rules = shared_nodes_weights([-r for r in rs], rule.splits or geometric_splits(lo, hi),
                                    rule.nodes_per_panel)
    eye = np.eye(A.dim, dtype=np.complex128)
    totals = _resolvent_sum(A.matrix, np.ones_like(y), y, rules, eye, middle=D.matrix)
    return _scaled_hermitian(rs, totals)


def resolvent_pair_integral(a0: float, b0: float, r: float) -> float:
    """(sin(r pi)/pi) int_0^inf y^(-r) ((y+a0)(y+b0))^(-1) dy, with
    NODES_PER_PANEL nodes per panel of the ladder from min(a0, b0) to max(a0, b0)."""
    if not (a0 > 0.0 and b0 > 0.0):
        raise DomainViolation("both scalars must be positive")
    if not 0.0 < r < 1.0:
        raise DomainViolation(f"exponent must lie in (0, 1), got {r}")
    splits = geometric_splits(min(a0, b0), max(a0, b0))
    val = _scalar_integral(lambda y: 1.0 / ((y + a0) * (y + b0)), -r, splits, NODES_PER_PANEL)
    return math.sin(r * math.pi) / math.pi * val


def resolvent_pair_closed_form(a0: float, b0: float, r: float) -> float:
    """Closed form (b0^-r - a0^-r)/(a0 - b0), with the limit r*b0^(-r-1) at a0=b0.

    Switches to the limit when |a0-b0| is below 1e-8 of the scale, where the
    difference quotient loses all significant digits.
    """
    if not (a0 > 0.0 and b0 > 0.0):
        raise DomainViolation("both scalars must be positive")
    if not 0.0 < r < 1.0:
        raise DomainViolation(f"exponent must lie in (0, 1), got {r}")
    if abs(a0 - b0) <= 1e-8 * max(a0, b0):
        mid = (a0 + b0) / 2.0
        return r * mid ** (-r - 1.0)
    return (b0**-r - a0**-r) / (a0 - b0)


def self_test() -> float:
    """Scalar sanity check 4^0.5 = 2 under the default rule; raises
    ConfigError when the rule misses it by more than 1e-9."""
    err = abs(frac_power_scalar(4.0, 0.5) - 2.0)
    if err > 1e-9:
        raise ConfigError(
            f"quadrature self-test error {err:.3e} exceeds 1e-9 "
            f"at {NODES_PER_PANEL} nodes per panel"
        )
    return err
