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

``shared_nodes_weights`` lays every node and weight of that rule out as
arrays.  Every integral here takes NODES_PER_PANEL nodes per panel on the
ladder of its own operand.  Scalar integrands are evaluated once on the node
array and summed correctly rounded by ``exact_sum``.  Operator integrands are
resolvents of the shifted matrices alpha_k A + beta_k I: one kernel stacks
them over the nodes, rejects the stack unless a batched Cholesky
factorization shows every member positive definite, solves the whole stack
at once and adds the weighted solutions in node order.
The operator functions take a tuple of exponents: their rules share the
interior nodes of the operand's ladder, so one stack of solves serves every
exponent.  No eigendecomposition is involved, so results from this module
can serve as an independent cross-check for spectral calculus.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ConvergenceFailure, DimensionMismatch, DomainViolation
from .linalg import HermitianOperator, as_herm, exact_sum

#: geometric ratio between consecutive interior split points
LADDER_RATIO = 10.0
#: Gauss nodes per panel of every integral, read at call time:
#: scripts/quadrature_budget.py measures the operator powers and Frechet
#: integrals at the float64 floor from 24 nodes on
NODES_PER_PANEL = 24
#: memory cap for one chunk of the stacked node matrices (8 nodes at d=256)
_CHUNK_BYTES = 1 << 23
#: Newton steps on the Gauss nodes stop once every step is at most
#: _NEWTON_TOL; from the asymptotic seeds they take 3 or 4
_NEWTON_STEPS = 20
_NEWTON_TOL = 1e-15
#: closed range of a scalar operand: inside it the integrands and tail nodes
#: stay far inside float64 and a^r keeps 1e-9 relative accuracy; outside it
#: they can overflow or underflow, and values go wrong without an error
SCALAR_RANGE = (1e-100, 1e100)


def _jacobi_pair(n: int, a, b, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_(n-1)(t) and P_n(t), n >= 1, of the Jacobi polynomials P_k^(a,b) of
    weight (1-t)^a (1+t)^b with P_k(1) = binom(k+a, k), by their three-term
    recurrence (Szego, eq. 4.5.1) in the precision of t, a and b."""
    p0, p1 = np.ones_like(t), ((a - b) + (a + b + 2.0) * t) / 2.0
    # P_k = (slope_k t + shift_k) P_(k-1) - lag_k P_(k-2) for k = 2..n
    k = np.arange(2, n + 1, dtype=t.dtype)
    c = 2.0 * k + a + b
    den = 2.0 * k * (k + a + b) * (c - 2.0)
    slope, shift = (c - 1.0) * c * (c - 2.0) / den, (c - 1.0) * (a * a - b * b) / den
    lag = 2.0 * (k + a - 1.0) * (k + b - 1.0) * c / den
    for i in range(n - 1):
        p0, p1 = p1, (slope[i] * t + shift[i]) * p1 - lag[i] * p0
    return p0, p1


@lru_cache(maxsize=256)
def _jacobi(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the n-point Gauss rule for the weight
    (1+t)^beta on [-1, 1], beta > -1; beta = 0 is Gauss-Legendre.

    The nodes are the zeros of P_n = P_n^(0,beta), found by Newton's method on
    the recurrence (Hale and Townsend, SIAM J. Sci. Comput. 35, A652 (2013))
    from the asymptotic seeds cos((k - 1/4) pi / (n + (beta+1)/2)), with
    (2n+beta) (1-t^2) P_n' = n (-beta - (2n+beta) t) P_n + 2n(n+beta) P_(n-1).
    The weights are 2^(beta+1) / ((1-t^2) P_n'^2), since the Gamma-function
    ratio of the Gauss-Jacobi weights, Gamma(n+a+1) Gamma(n+b+1) /
    (Gamma(n+a+b+1) n!), is 1 at a = 0; for them P_n' is taken as
    (n+beta+1)/2 P_(n-1)^(1,beta+1), whose recurrence keeps its relative
    accuracy near t = -1 when beta is near -1 (that of P_(n-1)^(0,beta) does
    not).  Only elementwise arithmetic is involved, no eigensolve.

    It all runs in long double and rounds once at the end.  An end node sits
    within 1e-5 of -1 at n = 64, beta = -0.99, and the weight there moves by
    about 1/(1+t) relative per unit of t: float64 rounding of the node and of
    the recurrence's coefficients would cost 2.6e-11 of it.  Where long double
    is float64 (some platforms), the rule keeps only that accuracy.
    """
    a, b = np.longdouble(0.0), np.longdouble(beta)
    k = np.arange(n, 0, -1, dtype=np.longdouble)
    t = np.cos((k - 0.25) * np.pi / (n + (b + 1.0) / 2.0))
    c = 2.0 * n + b
    for _ in range(_NEWTON_STEPS):
        lower, p = _jacobi_pair(n, a, b, t)
        step = c * (1.0 - t) * (1.0 + t) * p / (n * (-b - c * t) * p + 2.0 * n * (n + b) * lower)
        t = t - step
        if np.abs(step).max() <= _NEWTON_TOL:
            break
    else:
        raise ConvergenceFailure(f"Gauss-Jacobi nodes did not converge at n={n}, beta={beta}")
    dp = (n + b + 1.0) / 2.0 * _jacobi_pair(n, a + 1.0, b + 1.0, t)[0]
    w = (2.0 ** (b + 1.0) / ((1.0 - t) * (1.0 + t) * dp * dp)).astype(float)
    t = t.astype(float)
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
    tl, wl = _jacobi(n, 0.0)
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


def _scalar_integral(f, exponent: float, splits: tuple[float, ...]) -> float:
    """Correctly rounded sum of w_k f(y_k) over the rule of one exponent on
    ``splits``; f is evaluated once on the node array."""
    y, ((_, w),) = shared_nodes_weights((exponent,), splits, NODES_PER_PANEL)
    return exact_sum(w * f(y))


def _resolvent_sum(mat: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
                   rules: list[tuple[np.ndarray, np.ndarray]], rhs: np.ndarray,
                   middle: np.ndarray | None) -> list[np.ndarray]:
    """Per rule (index, w), sum_k w_k X_(index_k) with X_j = (alpha_j A +
    beta_j I)^(-1) rhs, or X_j D X_j when ``middle`` = D is not None.

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


def _exponent(r: float) -> float:
    """An exponent r as a float; DomainViolation unless 0 < r < 1."""
    r = float(r)
    if not 0.0 < r < 1.0:
        raise DomainViolation(f"exponent must lie in (0, 1), got {r}")
    return r


def _positive(x: float) -> float:
    """A scalar operand as a float; DomainViolation unless it lies in SCALAR_RANGE."""
    x = float(x)
    low, high = SCALAR_RANGE
    if not low <= x <= high:
        raise DomainViolation(f"scalar must lie in [{low:g}, {high:g}], got {x}")
    return x


def _exponents(rs) -> tuple[float, ...]:
    """The exponents of an operator integral as floats, each in (0, 1)."""
    rs = tuple(_exponent(r) for r in rs)
    if not rs:
        raise DomainViolation("at least one exponent is required")
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
    """a^r for a in SCALAR_RANGE and r in (0, 1) via an integral representation,
    with NODES_PER_PANEL nodes on the one-point ladder at the integrand's pole.

    form="first":   (sin(r pi)/pi) int_0^inf x^(r-1) a/(a+x) dx
    form="second":  (sin(r pi)/pi) int_0^inf y^(-r) (y + 1/a)^(-1) dy
    """
    a, r = _positive(a), _exponent(r)
    if form == "first":
        splits = geometric_splits(a, a)
        val = _scalar_integral(lambda x: a / (a + x), r - 1.0, splits)
    elif form == "second":
        splits = geometric_splits(1.0 / a, 1.0 / a)
        val = _scalar_integral(lambda y: 1.0 / (y + 1.0 / a), -r, splits)
    else:
        raise DomainViolation(f"unknown form {form!r}")
    return math.sin(r * math.pi) / math.pi * val


def _pd_scales(h: HermitianOperator) -> tuple[float, float]:
    """Bounds (lo <= lambda_min, hi >= lambda_max) from SPD solves, no eigh."""
    # scipy is imported here, not at module level: of the commands only
    # verify factors an operator, and the import costs more than a command
    import scipy.linalg

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


def frac_power_operator(A, rs, form: str = "first") -> tuple[HermitianOperator, ...]:
    """A^r for strictly positive A and each exponent r in the tuple ``rs``: the
    ``_power_rule`` of either ``form`` on the ladder of A's scales; one stack
    of solves serves every exponent."""
    A = as_herm(A)
    rs = _exponents(rs)
    lo, hi = _pd_scales(A)
    if form not in ("first", "second"):
        raise DomainViolation(f"unknown form {form!r}")
    splits = geometric_splits(lo, hi) if form == "first" else geometric_splits(1.0 / hi, 1.0 / lo)
    return _power_rule(A.matrix, rs, form, splits, NODES_PER_PANEL)


def _power_rule(mat: np.ndarray, rs: tuple[float, ...], form: str, splits: tuple[float, ...],
                n: int) -> tuple[HermitianOperator, ...]:
    """A^r of the positive definite ``mat`` per exponent of ``rs``, n nodes per
    panel of ``splits``.  form="first" integrates x^(r-1) A (A + x I)^(-1);
    form="second" integrates y^(-r) (y I + A^(-1))^(-1) as A (y A + I)^(-1),
    so that only positive-definite solves are needed."""
    first = form == "first"
    y, rules = shared_nodes_weights([r - 1.0 if first else -r for r in rs], splits, n)
    alpha, beta = (np.ones_like(y), y) if first else (y, np.ones_like(y))
    return _scaled_hermitian(rs, _resolvent_sum(mat, alpha, beta, rules, mat, None))


def frechet_integral_rhs(A, D, rs) -> tuple[HermitianOperator, ...]:
    """(sin(r pi)/pi) int_0^inf y^(-r) (yI+A)^(-1) D (yI+A)^(-1) dy for each
    exponent r in the tuple ``rs``: the ``_frechet_rule`` on the ladder of A's
    scales; one stack of solves serves every exponent.

    For D commuting with A this acts eigenvalue-wise as d * r * a^(-r-1); in
    general it is the derivative of t -> -t^(-r) at A in the direction D.
    """
    A = as_herm(A)
    D = as_herm(D)
    if A.dim != D.dim:
        raise DimensionMismatch(f"dimension mismatch: {A.dim} vs {D.dim}")
    rs = _exponents(rs)
    lo, hi = _pd_scales(A)
    return _frechet_rule(A.matrix, D.matrix, rs, geometric_splits(lo, hi), NODES_PER_PANEL)


def _frechet_rule(mat: np.ndarray, direction: np.ndarray, rs: tuple[float, ...],
                  splits: tuple[float, ...], n: int) -> tuple[HermitianOperator, ...]:
    """The integral of ``frechet_integral_rhs`` at the positive definite ``mat``
    in ``direction`` per exponent of ``rs``, n nodes per panel of ``splits``."""
    y, rules = shared_nodes_weights([-r for r in rs], splits, n)
    eye = np.eye(len(mat), dtype=np.complex128)
    totals = _resolvent_sum(mat, np.ones_like(y), y, rules, eye, direction)
    return _scaled_hermitian(rs, totals)


def resolvent_pair_integral(a0: float, b0: float, r: float) -> float:
    """(sin(r pi)/pi) int_0^inf y^(-r) ((y+a0)(y+b0))^(-1) dy for a0, b0 in
    SCALAR_RANGE, with NODES_PER_PANEL nodes per panel of the ladder from
    min(a0, b0) to max(a0, b0)."""
    a0, b0, r = _positive(a0), _positive(b0), _exponent(r)
    splits = geometric_splits(min(a0, b0), max(a0, b0))
    val = _scalar_integral(lambda y: 1.0 / ((y + a0) * (y + b0)), -r, splits)
    return math.sin(r * math.pi) / math.pi * val


def resolvent_pair_closed_form(a0: float, b0: float, r: float) -> float:
    """Closed form (b0^-r - a0^-r)/(a0 - b0), with the limit r*b0^(-r-1) at a0=b0.

    Switches to the limit when |a0-b0| is below 1e-8 of the scale, where the
    difference quotient loses all significant digits.
    """
    a0, b0, r = _positive(a0), _positive(b0), _exponent(r)
    if abs(a0 - b0) <= 1e-8 * max(a0, b0):
        mid = (a0 + b0) / 2.0
        return r * mid ** (-r - 1.0)
    return (b0**-r - a0**-r) / (a0 - b0)


def self_test() -> float:
    """Scalar sanity check 4^0.5 = 2 at NODES_PER_PANEL nodes per panel;
    raises ConfigError when the rule misses it by more than 1e-9."""
    err = abs(frac_power_scalar(4.0, 0.5) - 2.0)
    if err > 1e-9:
        raise ConfigError(
            f"quadrature self-test error {err:.3e} exceeds 1e-9 "
            f"at {NODES_PER_PANEL} nodes per panel"
        )
    return err
