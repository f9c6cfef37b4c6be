"""Dense Hermitian-matrix primitives.

Eigendecomposition, spectral calculus f(H), Schatten p-norms, and
positive-semidefinite order comparison for matrices at desk scale
(dimension capped at 256).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    DomainViolation,
    NonFiniteInput,
    NonHermitianInput,
)

MAX_DIM = 256

#: relative asymmetry budget accepted by constructors
HERM_TOL = 1e-10
#: reconstruction / unitarity budget for eigendecompositions
EIG_TOL = 1e-12
#: operator-order checks tolerate negative gaps of this size
PSD_TOL = 1e-8


def zero_threshold(eigenvalues: np.ndarray) -> float:
    """Cutoff below which eigenvalues are treated as exact zeros.

    Scales with the dimension and the largest eigenvalue magnitude so that
    rank decisions stay stable under round-off.
    """
    w = np.asarray(eigenvalues, dtype=float)
    lam_max = float(np.max(np.abs(w))) if w.size else 0.0
    return w.size * np.finfo(np.float64).eps * max(1.0, lam_max)


class HermitianOperator:
    """Immutable complex Hermitian matrix with a cached eigendecomposition.

    The constructor rejects inputs with a NaN or infinite entry, symmetrizes
    the input to (M + M^dag)/2, records the maximal entrywise asymmetry of M,
    and rejects inputs whose asymmetry exceeds ``tol * max(1, scale)``.  The
    eigendecomposition is computed at most once and is checked against the
    reconstruction contract
    ``||U diag(w) U^dag - H||_max <= EIG_TOL * max(1, |w|_max)``.
    """

    __slots__ = ("_mat", "_asymmetry", "_eig")

    def __init__(self, entries, tol: float = HERM_TOL) -> None:
        mat = np.array(entries, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
        d = mat.shape[0]
        if d < 1 or d > MAX_DIM:
            raise DimensionMismatch(f"dimension {d} outside [1, {MAX_DIM}]")
        if not np.isfinite(mat).all():
            raise NonFiniteInput("matrix has a NaN or infinite entry")
        herm = (mat + mat.conj().T) / 2.0
        asym = float(np.max(np.abs(mat - mat.conj().T)))
        scale = max(1.0, float(np.linalg.norm(herm, "fro")))
        if asym > tol * scale:
            raise NonHermitianInput(
                f"asymmetry {asym:.3e} exceeds tolerance {tol * scale:.3e}"
            )
        herm.setflags(write=False)
        self._mat = herm
        self._asymmetry = asym
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_eigensystem(cls, eigenvalues, eigenvectors) -> "HermitianOperator":
        """Build U diag(w) U^dag with the eigendecomposition cache pre-seeded."""
        w = np.array(eigenvalues, dtype=np.float64)
        u = np.array(eigenvectors, dtype=np.complex128)
        if w.ndim != 1 or u.shape != (w.size, w.size):
            raise DimensionMismatch("eigenvalues and eigenvectors have inconsistent shapes")
        order = np.argsort(w, kind="stable")
        w = w[order]
        u = u[:, order]
        mat = (u * w) @ u.conj().T
        mat = (mat + mat.conj().T) / 2.0
        obj = cls.__new__(cls)
        mat.setflags(write=False)
        w.setflags(write=False)
        u.setflags(write=False)
        obj._mat = mat
        obj._asymmetry = 0.0
        obj._eig = (w, u)
        return obj

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Read-only view of the symmetrized entries."""
        return self._mat

    @property
    def asymmetry(self) -> float:
        """Max |M - M^dag| recorded at construction."""
        return self._asymmetry

    def trace(self) -> float:
        return float(np.trace(self._mat).real)

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues ascending and the matching orthonormal eigenvector columns."""
        if self._eig is None:
            try:
                w, u = np.linalg.eigh(self._mat)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceFailure(f"eigh failed: {exc}") from exc
            scale = max(1.0, float(np.max(np.abs(w))))
            recon = (u * w) @ u.conj().T
            if float(np.max(np.abs(recon - self._mat))) > EIG_TOL * scale:
                raise ConvergenceFailure("eigendecomposition failed reconstruction check")
            gram = u.conj().T @ u
            if float(np.max(np.abs(gram - np.eye(self.dim)))) > EIG_TOL:
                raise ConvergenceFailure("eigenvector matrix is not unitary")
            w.setflags(write=False)
            u.setflags(write=False)
            self._eig = (w, u)
        return self._eig

    def eigenvalues(self) -> np.ndarray:
        return self.eig()[0]

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        return HermitianOperator(self._mat - as_herm(other)._mat)

    def __mul__(self, scalar: float) -> "HermitianOperator":
        return HermitianOperator(self._mat * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


def identity(d: int) -> HermitianOperator:
    return HermitianOperator.from_eigensystem(np.ones(d), np.eye(d, dtype=np.complex128))


def as_herm(x) -> HermitianOperator:
    """Coerce an array-like to HermitianOperator (no-op if it already is one)."""
    if isinstance(x, HermitianOperator):
        return x
    return HermitianOperator(x)


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix."""
    return as_herm(h).eig()


def apply_function(
    h,
    f: Callable[[float], float],
    domain_guard: Callable[[float], bool] | None = None,
) -> HermitianOperator:
    """Spectral calculus: U diag(f(w_i)) U^dag.

    Eigenvalues within the zero threshold are snapped to exactly 0 before the
    guard and before f, so rank decisions do not depend on round-off.  The
    guard, when given, must accept every (thresholded) eigenvalue or a
    DomainViolation naming the offender is raised.
    """
    h = as_herm(h)
    w, u = h.eig()
    cut = zero_threshold(w)
    w_eff = np.where(np.abs(w) <= cut, 0.0, w)
    if domain_guard is not None:
        for lam in w_eff:
            if not domain_guard(float(lam)):
                raise DomainViolation(f"eigenvalue {float(lam)!r} rejected by domain guard")
    vals = np.array([float(f(float(lam))) for lam in w_eff])
    if np.any(np.isnan(vals)):
        raise DomainViolation("function produced NaN on the spectrum")
    return HermitianOperator.from_eigensystem(vals, u)


def herm_power(h, exponent: float) -> HermitianOperator:
    """H^exponent by spectral calculus.

    Negative exponents require a strictly positive spectrum; non-integer
    positive exponents require a nonnegative one (0 maps to 0).
    """
    e = float(exponent)
    if e < 0.0:
        guard = lambda lam: lam > 0.0
    elif e != int(e):
        guard = lambda lam: lam >= 0.0
    else:
        guard = None
    return apply_function(h, lambda lam: 0.0 if lam == 0.0 else lam**e, guard)


def singular_values(x) -> np.ndarray:
    """Singular values in descending order, via eigh of X^dag X (or of X directly
    when X is Hermitian within round-off)."""
    if isinstance(x, HermitianOperator):
        return np.sort(np.abs(x.eigenvalues()))[::-1]
    mat = np.asarray(x, dtype=np.complex128)
    if mat.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {mat.shape}")
    if mat.shape[0] == mat.shape[1]:
        asym = float(np.max(np.abs(mat - mat.conj().T)))
        scale = max(1.0, float(np.linalg.norm(mat, "fro")))
        if asym <= 1e-12 * scale:
            return np.sort(np.abs(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)))[::-1]
    gram = mat.conj().T @ mat
    w = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    return np.sqrt(np.clip(w, 0.0, None))[::-1]


def schatten_norm(x, p: float) -> float:
    """Schatten p-norm: the l_p norm of the singular value vector.

    p=1 is the trace norm, p=2 the Frobenius norm, p=inf the spectral norm.
    """
    p = float(p)
    if not p >= 1.0:
        raise DomainViolation(f"Schatten index must satisfy p >= 1, got {p}")
    s = singular_values(x)
    if math.isinf(p):
        return float(s[0]) if s.size else 0.0
    if p == 1.0:
        return float(math.fsum(s))
    return float(math.fsum(si**p for si in s) ** (1.0 / p))


def psd_gap(a, b) -> float:
    """Minimum eigenvalue of B - A.

    A <= B in the positive-semidefinite order iff the gap is >= -PSD_TOL
    relative to the operand scale; this function returns the raw gap and
    leaves the tolerance decision to the caller.
    """
    a = as_herm(a)
    b = as_herm(b)
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")
    diff = b.matrix - a.matrix
    return float(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)[0])

