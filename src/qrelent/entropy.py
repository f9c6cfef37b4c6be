"""q-deformed logarithm, the classical and quantum relative q-entropies, and
the standard relative entropy as the q -> 1 anchor.

Every divergence is a plain float, math.inf where it is +inf, and never NaN.

The quantum relative q-entropy for q > 1 is

    D_q(rho||sigma) = (1 - tr(rho^q sigma^(1-q))) / (1 - q)

when ker(sigma) is contained in ker(rho), and +inf otherwise.  The finite
branch is taken over the support of sigma,

    D_q = (tr_supp(rho^q sigma^(1-q)) - tr_supp(rho)) / (q - 1)
        = sum_{a>0} sum_{b>0} |<a|b>|^2 a expm1((q-1)(ln a - ln b)) / (q - 1),

which equals the form above whenever tr rho = 1: rho's weight on ker(sigma),
which the inclusion verdict accepts up to ``TOL_INCL``, counts as zero.  This
one divergence sum, free of the 1 - tr cancellation, also gives D_1 (its
q -> 1 limit) and D_p for p < 1, and every D_q cross-checks it against an
independent operator route (spectral calculus compressed to the support of
sigma).  Its d^2 terms are added correctly rounded by ``linalg.exact_sum``:
math.fsum below 1024 terms, error-free folding in numpy above, the same
bits either side.

``PairEval``, the OperatorPair of (rho, sigma), is the one evaluation context
of a state pair: it keeps what the entropy calls and the bound evaluators
share, each computed once.  Its constructor solves the q-independent work;
the contexts of a block of pairs, made together by ``PairEval.stack``, solve
it with stacked calls.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainViolation,
    InternalInconsistency,
    PreconditionFailed,
    QOutOfRange,
)
from .linalg import (
    OperatorPair,
    basis_rows,
    diff_singular_values,
    exact_sum,
    grouped,
    lapack_eigh,
    stacked,
)
from .states import DensityMatrix, kernel_included, probability_vector

#: largest accepted entropy order; beyond this a^q underflows for typical spectra
Q_MAX = 40.0

#: relative agreement required between the double-sum and operator routes
CROSS_CHECK_TOL = 1e-9


def q_log(x: float, q: float) -> float:
    """Deformed logarithm ln_q(x) = (x^(1-q) - 1)/(1-q) for x > 0 and finite
    q != 1.

    Evaluated as expm1((1-q) ln x)/(1-q), which does not cancel as q -> 1.
    """
    x = float(x)
    q = float(q)
    if not x > 0.0:
        raise DomainViolation(f"q_log requires x > 0, got {x}")
    if not math.isfinite(q):
        raise DomainViolation(f"q_log requires a finite q, got {q}")
    if q == 1.0:
        raise DomainViolation("q_log requires q != 1; ln_1 is the natural logarithm")
    return math.expm1((1.0 - q) * math.log(x)) / (1.0 - q)


def _order(q: float) -> float:
    """The order of a D_q as a float; QOutOfRange unless 1 < q <= Q_MAX."""
    q = float(q)
    if not 1.0 < q <= Q_MAX:
        raise QOutOfRange(f"requires 1 < q <= {Q_MAX}, got {q}")
    return q


def classical_relative_q(a, b, q: float) -> float:
    """Relative q-entropy of probability vectors for q in (1, Q_MAX].

    Infinite whenever some outcome has a_i > 0 but b_i = 0; otherwise
    (1 - sum_{a_i>0} a_i^q b_i^(1-q)) / (1-q), evaluated as the divergence
    sum over a_i > 0 with a diagonal overlap,
    (sum a_i^q b_i^(1-q) - sum a_i)/(q - 1), which does not cancel as q -> 1,
    and +inf past the float range.
    """
    va = probability_vector(a)
    vb = probability_vector(b)
    if va.size != vb.size:
        raise DimensionMismatch(f"length mismatch: {va.size} vs {vb.size}")
    q = _order(q)
    if any(ai > 0.0 and bi == 0.0 for ai, bi in zip(va, vb)):
        return math.inf
    support = va > 0.0
    a, b = va[support], vb[support]
    return _divergence_sum(np.eye(a.size), a, _log(a), _log(b), q)


def _overlap(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|<a_i|b_j>|^2 between the eigenbases u of rho (rows) and v of sigma
    (columns), for each basis pair of two stacks.  Where every v is a
    standard basis (``basis_rows``), <a_i|b_j> is the conjugate of u's entry
    in the row of b_j's 1 and column i, so the moduli are gathered with the
    bits of the product."""
    rows = basis_rows(v)
    if rows is None:
        return np.abs(u.conj().swapaxes(-1, -2) @ v) ** 2
    return (np.abs(u[np.arange(len(rows))[:, None], rows]) ** 2).swapaxes(-1, -2)


def _compress(support: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """V^dag rho V, symmetrized, for each support basis V (d x r) and matrix
    rho of two stacks.  Where every V is a standard basis (``basis_rows``),
    it is the block of rho at V's rows, with the bits of the symmetrized
    product: rho's matrix is exactly Hermitian, and so is the block."""
    rows = basis_rows(support)
    if rows is None:
        compressed = support.conj().swapaxes(-1, -2) @ rhos @ support
        return (compressed + compressed.conj().swapaxes(-1, -2)) / 2.0
    return rhos[np.arange(len(rows))[:, None, None], rows[:, :, None], rows[:, None, :]]


def _log(x: np.ndarray) -> np.ndarray:
    """ln x entrywise by the C library, for the same reason as ``_power``."""
    return np.array([math.log(v) for v in x.tolist()])


def _solve(pairs: list[PairEval]) -> None:
    """Solve the q-independent quantities of the contexts ``pairs`` together,
    each pair with the bits it gets alone:

    - ``kernel_included``, the verdict ker(sigma) in ker(rho);
    - ``overlap``, the double-sum route: |<a|b>|^2 between the nonzero
      eigenvalues of rho (rows) and of sigma (columns), with rho's nonzero
      spectrum and its logarithms; and ``log_b``, the logarithms of sigma's
      nonzero spectrum, which both routes read;
    - ``diff_singular_values`` of rho - sigma, as a lone OperatorPair gets them;
    - ``compressed``, the operator route, None unless the kernel is included:
      the squared eigenvector moduli of rho compressed to sigma's support
      (rows: its nonzero eigenvalues; columns: sigma's support eigenvectors,
      on which sigma is diagonal), those eigenvalues and their logarithms.
      Only rho's matrix and sigma's eigensystem enter, so the route stays
      independent of the double sum.

    Spectra ascend with their exact zeros first, so each restriction is a
    slice.  Per dimension one product gives the overlaps and one eigvalsh the
    differences; per (dimension, rank of sigma) one eigh gives the
    compressions, the first of which with an eigenvalue below -1e-10 raises
    InternalInconsistency.  Where every sigma of a stack has a standard
    basis, as the diagonal sigma_family does, ``_overlap`` and ``_compress``
    gather entries in place of their d^3 products, with the same bits.
    """
    for group in grouped(pairs, lambda p: p.rho.dim):
        w = _overlap(stacked([p.rho.eigenvectors for p in group]),
                     stacked([p.sigma.eigenvectors for p in group]))
        s = diff_singular_values(stacked([p.rho.matrix for p in group]),
                                 stacked([p.sigma.matrix for p in group]))
        for p, w_k, s_k in zip(group, w, s):
            i, j = p.rho.dim - p.rho.rank, p.sigma.dim - p.sigma.rank
            a = p.rho.spectrum[i:]
            p.overlap = w_k[i:, j:], a, _log(a)
            p.log_b = _log(p.sigma.spectrum[j:])
            p.diff_singular_values = s_k
            p.kernel_included = kernel_included(p.sigma, p.rho)
            p.compressed = None
    included = [p for p in pairs if p.kernel_included]
    for group in grouped(included, lambda p: (p.rho.dim, p.sigma.rank)):
        # sliced from the stacked whole bases, each support has the strides of
        # a lone pair's: matmul rounds a rank-1 compression by its operands' strides
        j = group[0].sigma.dim - group[0].sigma.rank
        support = stacked([p.sigma.eigenvectors for p in group])[..., j:]
        lam, w = lapack_eigh(_compress(support, stacked([p.rho.matrix for p in group])))
        for p, lam_k, weights in zip(group, lam, np.abs(w.swapaxes(-1, -2)) ** 2):
            if lam_k[0] < -1e-10:
                raise InternalInconsistency(f"compression has eigenvalue {float(lam_k[0])!r}")
            if lam_k[0] <= 0.0:  # ascending, so the eigenvalues at or below 0 come first
                n = int(np.searchsorted(lam_k, 0.0, side="right"))
                lam_k, weights = lam_k[n:], weights[n:]
            p.compressed = weights, lam_k, _log(lam_k)


class PairEval(OperatorPair):
    """Evaluation context of one state pair: the OperatorPair of (rho, sigma).

    Its constructor checks the dimensions and solves the q-independent
    quantities that the D_q and the bounds read (``_solve``), so a failed
    compression check raises from it; ``PairEval.stack`` makes the contexts
    of a block of pairs with stacked solves, each with the bits it gets
    alone.  The spectral summary, D_1, D_q for every q and D_p for every p
    asked for are computed on first use and kept.  Pass one instance to
    every entropy call and bound evaluator on the pair; each entropy call
    still runs its own checks, the cross-route check included.
    """

    def __init__(self, rho: DensityMatrix, sigma: DensityMatrix) -> None:
        self._open(rho, sigma)
        _solve([self])

    @classmethod
    def stack(cls, operands) -> list[PairEval]:
        """One context per (rho, sigma) of ``operands``, in order, solved together."""
        pairs = [cls.__new__(cls)._open(rho, sigma) for rho, sigma in operands]
        _solve(pairs)
        return pairs

    def _open(self, rho: DensityMatrix, sigma: DensityMatrix) -> PairEval:
        """The context with its operands checked and nothing solved; returns self."""
        super().__init__(rho, sigma)
        self.rho, self.sigma = self.a, self.b
        self._dq: dict[float, float] = {}
        self._dp: dict[float, float] = {}
        return self

    @cached_property
    def summary(self) -> dict[str, float]:
        """Extremal eigenvalues read by the bound evaluators: a1 and b1 the
        largest of rho and sigma, b0 the smallest nonzero one of sigma, and
        lambda0 and lambda1 the extremes over both spectra."""
        a, b = self.rho.spectrum, self.sigma.spectrum
        a1, b1, b0 = float(a[-1]), float(b[-1]), float(b[self.sigma.dim - self.sigma.rank])
        return {"a1": a1, "b1": b1, "b0": b0, "lambda0": float(min(a[0], b[0])),
                "lambda1": max(a1, b1)}

    # the entropy functions are looked up by name at each call, so a wrapper
    # installed on the module attribute (a profiler, a test counter) sees it
    @cached_property
    def d1(self) -> float:
        return relative_entropy_vn(self.rho, self.sigma, self)

    def dq(self, q: float) -> float:
        q = float(q)
        if q not in self._dq:
            self._dq[q] = quantum_relative_q(self.rho, self.sigma, q, self)
        return self._dq[q]

    def dp(self, p: float) -> float:
        p = float(p)
        if p not in self._dp:
            self._dp[p] = quantum_relative_q_low(self.rho, self.sigma, p, self)
        return self._dp[p]

    def scaled_dq(self, q: float, b0: float) -> float:
        """D_q * b0^(q-1) for b0 > 0, finite wherever that product is, and +inf
        where the kernel is not included.  It is the plain product where
        b0^(q-1) is a normal float and D_q finite.  Elsewhere the product would
        read 0, NaN or +inf, or carry a subnormal scale's few bits, and the
        divergence sum of both routes takes (q-1) ln b0 into each term's
        exponent, under the cross-route check of D_q."""
        q = float(q)
        dq = self.dq(q)
        scale = b0 ** (q - 1.0)
        if scale >= sys.float_info.min and dq < math.inf:
            return dq * scale
        if not self.kernel_included:
            return math.inf
        t = q - 1.0
        s = t * math.log(b0)
        return _agreed(_term_sum(*self.overlap, self.log_b, t, s),
                       _term_sum(*self.compressed, self.log_b, t, s), scale)


def _state_pair(rho: DensityMatrix, sigma: DensityMatrix, pair: PairEval | None) -> PairEval:
    if pair is None:
        return PairEval(rho, sigma)
    if pair.rho is not rho or pair.sigma is not sigma:
        raise PreconditionFailed("evaluation context belongs to another state pair")
    return pair


def _power(x: np.ndarray, e: float) -> np.ndarray:
    """x**e entrywise by the C library's pow, as scalar code computes it.

    numpy's array pow uses SIMD kernels that differ from it in the last bit
    on some CPUs; looping over the d eigenvalues keeps the d^2 terms exact
    and machine-independent.
    """
    return np.array([v**e for v in x.tolist()])


def _divergence_sum(
    w: np.ndarray, a: np.ndarray, log_a: np.ndarray, log_b: np.ndarray, r: float
) -> float:
    """sum_ab w_ab (a^r b^(1-r) - a)/(r - 1) over nonzero a (rows of w) and
    nonzero b (columns); at r = 1 its limit sum_ab w_ab a (ln a - ln b).  The
    terms are added correctly rounded by ``exact_sum``, which folds them in
    numpy from 1024 terms on and returns math.fsum's bits on either side.

    Each term a expm1((r-1)(ln a - ln b)) is evaluated as a X + a^r Y with
    X = expm1((r-1) ln a) and Y = expm1((1-r) ln b), one C-library call per
    eigenvalue; nothing cancels as r -> 1.  Where some Y overflows, the sum
    is ``_term_sum``'s.
    """
    if r == 1.0:
        return exact_sum(w * a[:, None] * (log_a[:, None] - log_b))
    t = r - 1.0
    try:
        ax = np.array([v * math.expm1(t * u) for v, u in zip(a.tolist(), log_a.tolist())])
        y = np.array([math.expm1(-t * u) for u in log_b.tolist()])
        return exact_sum(w * (ax[:, None] + _power(a, r)[:, None] * y)) / t
    except OverflowError:
        return _term_sum(w, a, log_a, log_b, t, 0.0)


def _term_sum(
    w: np.ndarray, a: np.ndarray, log_a: np.ndarray, log_b: np.ndarray, t: float, s: float
) -> float:
    """The divergence sum of order r = 1 + t != 1 times e^s, added term by
    term (``_term``) over the nonzero entries of w, so a column of w that is
    all zero contributes nothing; a sum past the float range is +inf."""
    i, j = np.nonzero(w)
    try:
        return math.fsum(
            _term(wij, v, u, x, s)
            for wij, v, u, x in zip(w[i, j].tolist(), a[i].tolist(), log_a[i].tolist(),
                                    (t * (log_a[i] - log_b[j])).tolist())
        ) / t
    except OverflowError:
        return math.inf


def _term(w: float, a: float, log_a: float, x: float, s: float) -> float:
    """w a expm1(x) e^s.  From x = 709 on, a expm1(x) = a e^x - a rounds to
    a e^x, and the term is exp(ln w + ln a + x + s): e^x alone may overflow
    where w a e^x does not.  A scale s != 0, whose e^s alone may underflow,
    enters the same exponent, with ln|expm1(x)| below x = 709."""
    if x < 709.0 and not s:
        return w * a * math.expm1(x)
    if x == 0.0:
        return 0.0
    log_expm1 = x if x >= 709.0 else math.log(abs(math.expm1(x)))
    return math.copysign(math.exp(math.log(w) + log_a + s + log_expm1), x)


def _agreed(value: float, value_op: float, unit: float) -> float:
    """A divergence sum from the double-sum route, checked against the
    operator route's value_op: +inf where both pass the float range, else
    value, which must be finite and within CROSS_CHECK_TOL * (unit + |value|)
    of value_op, or an InternalInconsistency aborts.  ``unit`` is 1 for D_q,
    and b0^(q-1) for D_q * b0^(q-1): D_q's test on the scaled values.  Where
    b0^(q-1) underflows to 0, 1e-9 times its true value lies below the
    smallest nonzero difference of two floats, so dropping it changes no
    verdict."""
    if value == value_op == math.inf:  # both routes past the float range
        return math.inf
    # an infinite value passes the relative test against any finite value_op
    if not (math.isfinite(value)
            and abs(value - value_op) <= CROSS_CHECK_TOL * (unit + abs(value))):
        raise InternalInconsistency(
            f"double-sum route {value!r} disagrees with operator route {value_op!r}"
        )
    return value


def quantum_relative_q(
    rho: DensityMatrix, sigma: DensityMatrix, q: float, pair: PairEval | None = None
) -> float:
    """Quantum relative q-entropy for q in (1, Q_MAX].

    Returns +inf unless rho is supported inside the support of sigma (weight
    on the kernel at most ``TOL_INCL``).  The finite branch is the divergence
    sum of the restricted double sum; it must be finite and agree with the
    same sum on the operator route within 1e-9 relative, or an
    InternalInconsistency aborts; a sum past the float range on both routes
    is +inf.
    ``pair``, the PairEval of (rho, sigma), carries the q-independent work
    over from earlier calls.
    """
    pair = _state_pair(rho, sigma, pair)
    q = _order(q)
    if not pair.kernel_included:
        return math.inf
    return _agreed(_divergence_sum(*pair.overlap, pair.log_b, q),
                   _divergence_sum(*pair.compressed, pair.log_b, q), 1.0)


def quantum_relative_q_low(
    rho: DensityMatrix, sigma: DensityMatrix, p: float, pair: PairEval | None = None
) -> float:
    """Relative p-entropy (1 - tr(rho^p sigma^(1-p)))/(1 - p) for order p in
    [0, 1): always finite.

    The divergence sum of the restricted double sum plus kappa/(1 - p), where
    kappa = 1 - sum_ab w_ab a is rho's weight off the support of sigma; no
    singular branch is needed because b^(1-p) vanishes on the kernel of sigma.
    """
    pair = _state_pair(rho, sigma, pair)
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise QOutOfRange(f"requires 0 <= p < 1, got {p}")
    w, a, log_a = pair.overlap
    kappa = 1.0 - exact_sum(w * a[:, None])
    return _divergence_sum(w, a, log_a, pair.log_b, p) + kappa / (1.0 - p)


def relative_entropy_vn(
    rho: DensityMatrix, sigma: DensityMatrix, pair: PairEval | None = None
) -> float:
    """Standard quantum relative entropy tr(rho ln rho - rho ln sigma).

    The divergence sum at order 1, sum_{a>0,b>0} |<a|b>|^2 a (ln a - ln b);
    +inf when rho has weight on the kernel of sigma.
    """
    pair = _state_pair(rho, sigma, pair)
    if not pair.kernel_included:
        return math.inf
    return _divergence_sum(*pair.overlap, pair.log_b, 1.0)
