"""q-deformed logarithm, Tsallis entropy, and the classical and quantum
relative q-entropies (extended-real valued), plus the standard relative
entropy as the q -> 1 anchor.

The quantum relative q-entropy for q > 1 is

    D_q(rho||sigma) = (1 - tr(rho^q sigma^(1-q))) / (1 - q)

when ker(sigma) is contained in ker(rho), and +inf otherwise.  The trace in
the finite branch is taken over the support of sigma: it is evaluated as the
restricted double sum over nonzero eigenvalues

    tr(rho^q sigma^(1-q)) = sum_{a>0} sum_{b>0} |<a|b>|^2 a^q b^(1-q),

and every call cross-checks this against an independent operator route
(spectral calculus compressed to the support of sigma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadSpectrum,
    DimensionMismatch,
    DomainViolation,
    InternalInconsistency,
    QOutOfRange,
)
from .states import DensityMatrix, kernel_included, TOL_INCL

#: largest accepted entropy order; beyond this a^q underflows for typical spectra
Q_MAX = 40.0

#: relative agreement required between the double-sum and operator routes
CROSS_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class ExtendedReal:
    """A finite real value or positive infinity; never NaN."""

    is_finite: bool
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.is_finite:
            if not math.isfinite(self.value):
                raise InternalInconsistency(f"non-finite value {self.value!r} tagged finite")
        else:
            object.__setattr__(self, "value", math.inf)

    @classmethod
    def finite(cls, value: float) -> "ExtendedReal":
        return cls(True, float(value))

    def as_float(self) -> float:
        return self.value

    def __float__(self) -> float:
        return self.value


POSITIVE_INFINITY = ExtendedReal(is_finite=False)


def extended_to_json(x: ExtendedReal):
    """Serialize as a plain number, or the string "inf"."""
    return x.value if x.is_finite else "inf"


def q_log(x: float, q: float, allow_q1: bool = False) -> float:
    """Deformed logarithm ln_q(x) = (x^(1-q) - 1)/(1-q) for x > 0.

    Near q = 1 the difference quotient cancels catastrophically, so for
    |q - 1| < 1e-6 it is evaluated as expm1((1-q) ln x)/(1-q).  q = 1 itself
    returns the natural logarithm only with ``allow_q1=True``.
    """
    x = float(x)
    q = float(q)
    if not x > 0.0:
        raise DomainViolation(f"q_log requires x > 0, got {x}")
    if q == 1.0:
        if allow_q1:
            return math.log(x)
        raise DomainViolation("q = 1 requires allow_q1=True (natural logarithm)")
    if abs(q - 1.0) < 1e-6:
        return math.expm1((1.0 - q) * math.log(x)) / (1.0 - q)
    return (x ** (1.0 - q) - 1.0) / (1.0 - q)


def _as_prob_vector(p) -> np.ndarray:
    v = np.asarray(p, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise BadSpectrum("probability vector must be a nonempty 1-d array")
    if np.any(v < 0.0):
        raise BadSpectrum(f"negative probability {float(v.min())!r}")
    if abs(math.fsum(v) - 1.0) > 1e-12:
        raise BadSpectrum(f"probabilities sum to {math.fsum(v)!r}, not 1")
    return v


def tsallis_entropy(p, q: float) -> float:
    """S_q(p) = (sum_i p_i^q - 1)/(1-q) with the convention 0^q = 0."""
    v = _as_prob_vector(p)
    q = float(q)
    if q == 1.0:
        raise QOutOfRange("q = 1 is excluded; use the Shannon entropy directly")
    power_sum = math.fsum(x**q for x in v if x > 0.0)
    return (power_sum - 1.0) / (1.0 - q)


def classical_relative_q(a, b, q: float) -> ExtendedReal:
    """Relative q-entropy of probability vectors for q > 1.

    Infinite whenever some outcome has a_i > 0 but b_i = 0; otherwise
    (1 - sum_{a_i>0} a_i^q b_i^(1-q)) / (1-q).
    """
    va = _as_prob_vector(a)
    vb = _as_prob_vector(b)
    if va.size != vb.size:
        raise DimensionMismatch(f"length mismatch: {va.size} vs {vb.size}")
    q = float(q)
    if not q > 1.0:
        raise QOutOfRange(f"requires q > 1, got {q}")
    if any(ai > 0.0 and bi == 0.0 for ai, bi in zip(va, vb)):
        return POSITIVE_INFINITY
    s = math.fsum(ai**q * bi ** (1.0 - q) for ai, bi in zip(va, vb) if ai > 0.0)
    return ExtendedReal.finite((1.0 - s) / (1.0 - q))


def _overlap(rho: DensityMatrix, sigma: DensityMatrix) -> np.ndarray:
    """|<a_i|b_j>|^2 between the eigenbases of rho (rows) and sigma (columns)."""
    return np.abs(rho.eigenvectors.conj().T @ sigma.eigenvectors) ** 2


def _restricted_overlap(
    rho: DensityMatrix, sigma: DensityMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Overlaps and the two spectra restricted to the nonzero eigenvalues.

    Spectra are ascending with their exact zeros first, so the restriction
    is a slice, taken only when a state is rank-deficient.
    """
    overlaps, a, b = _overlap(rho, sigma), rho.spectrum, sigma.spectrum
    if rho.rank < a.size or sigma.rank < b.size:
        i, j = a.size - rho.rank, b.size - sigma.rank
        return overlaps[i:, j:], a[i:], b[j:]
    return overlaps, a, b


def _power(x: np.ndarray, e: float) -> np.ndarray:
    """x**e entrywise by the C library's pow, as scalar code computes it.

    numpy's array pow uses SIMD kernels that differ from it in the last bit
    on some CPUs; looping over the d eigenvalues keeps the d^2 terms exact
    and machine-independent.  A power beyond the float range is an
    InternalInconsistency, as its inf would make the two routes disagree.
    """
    try:
        return np.array([v**e for v in x.tolist()])
    except OverflowError as exc:
        raise InternalInconsistency(
            f"eigenvalue power with exponent {e!r} overflows float64"
        ) from exc


def _restricted_trace_sum(rho: DensityMatrix, sigma: DensityMatrix, q: float) -> float:
    """sum over a>0, b>0 of |<a|b>|^2 a^q b^(1-q), exactly rounded by fsum."""
    overlaps, a, b = _restricted_overlap(rho, sigma)
    terms = overlaps * _power(a, q)[:, None] * _power(b, 1.0 - q)
    return math.fsum(terms.flat)


def _operator_route_sum(rho: DensityMatrix, sigma: DensityMatrix, q: float) -> float:
    """tr(rho^q sigma^(1-q)) on the support of sigma via spectral calculus.

    rho is compressed to the support subspace, rho^q computed from the
    compressed eigensystem, and sigma^(1-q) is diagonal there by construction.
    """
    k = sigma.rank
    support = sigma.eigenvectors[:, sigma.dim - k :]
    b = sigma.spectrum[sigma.dim - k :]
    compressed = support.conj().T @ rho.matrix @ support
    compressed = (compressed + compressed.conj().T) / 2.0
    lam, w = np.linalg.eigh(compressed)
    if float(lam.min()) < -1e-10:
        raise InternalInconsistency(
            f"support compression produced eigenvalue {float(lam.min())!r}"
        )
    lam = np.maximum(lam, 0.0)
    # terms[j, m] = lam_m^q |w_jm|^2 b_j^(1-q); a zero lam_m adds zero terms
    terms = _power(lam, q) * np.abs(w) ** 2 * _power(b, 1.0 - q)[:, None]
    return math.fsum(terms.flat)


def quantum_relative_q(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    q: float,
    tol_incl: float = TOL_INCL,
) -> ExtendedReal:
    """Quantum relative q-entropy for q in (1, Q_MAX].

    Returns +inf unless rho is supported inside the support of sigma (weight
    on the kernel at most ``tol_incl``).  The finite branch is the restricted
    double sum; it must agree with the operator route within 1e-9 relative
    or an InternalInconsistency aborts.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    q = float(q)
    if not (1.0 < q <= Q_MAX):
        raise QOutOfRange(f"requires 1 < q <= {Q_MAX}, got {q}")
    if not kernel_included(sigma, rho, tol_incl):
        return POSITIVE_INFINITY
    s = _restricted_trace_sum(rho, sigma, q)
    value = (1.0 - s) / (1.0 - q)
    if math.isnan(value):
        raise InternalInconsistency(f"NaN in relative q-entropy (trace sum {s!r})")
    s_op = _operator_route_sum(rho, sigma, q)
    value_op = (1.0 - s_op) / (1.0 - q)
    if not abs(value - value_op) <= CROSS_CHECK_TOL * (1.0 + abs(value)):
        raise InternalInconsistency(
            f"double-sum route {value!r} disagrees with operator route {value_op!r}"
        )
    return ExtendedReal.finite(value)


def quantum_relative_q_low(rho: DensityMatrix, sigma: DensityMatrix, p: float) -> float:
    """Relative p-entropy for order p in [0, 1): always finite.

    Uses the same restricted double sum; no singular branch is needed because
    b^(1-p) vanishes on the kernel of sigma.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise QOutOfRange(f"requires 0 <= p < 1, got {p}")
    s = _restricted_trace_sum(rho, sigma, p)
    value = (1.0 - s) / (1.0 - p)
    if math.isnan(value):
        raise InternalInconsistency(f"NaN in relative p-entropy (trace sum {s!r})")
    return value


def relative_entropy_vn(
    rho: DensityMatrix, sigma: DensityMatrix, tol_incl: float = TOL_INCL
) -> ExtendedReal:
    """Standard quantum relative entropy tr(rho ln rho - rho ln sigma).

    Computed as the restricted double sum sum_{a>0,b>0} |<a|b>|^2 a (ln a - ln b);
    +inf when rho has weight on the kernel of sigma.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    if not kernel_included(sigma, rho, tol_incl):
        return POSITIVE_INFINITY
    overlaps, a, b = _restricted_overlap(rho, sigma)
    # math.log per eigenvalue for the same reason as _power
    log_a, log_b = (np.array([math.log(v) for v in x.tolist()]) for x in (a, b))
    terms = overlaps * a[:, None] * (log_a[:, None] - log_b)
    value = math.fsum(terms.flat)
    if math.isnan(value):
        raise InternalInconsistency("NaN in relative entropy")
    return ExtendedReal.finite(value)
