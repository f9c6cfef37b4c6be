"""Dense Hermitian-matrix primitives.

Eigendecomposition, spectral calculus f(H), Schatten p-norms, and
positive-semidefinite order comparison for matrices at desk scale
(dimension capped at 256), the norm context of an operator pair, and the
correctly rounded array sum that every exact sum of the package uses.
"""

from __future__ import annotations

import functools
import math
from functools import cached_property
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

_EPS = float(np.finfo(np.float64).eps)

#: arrays shorter than this go straight to math.fsum, which is faster there
_FOLD_MIN_SIZE = 1024
#: folding runs only while every |entry| lies in [2^-900, 2^900]
_FOLD_RANGE = (2.0**-900, 2.0**900)


def exact_sum(x: np.ndarray) -> float:
    """The correctly rounded sum of the entries of a float64 array: the bits
    of ``math.fsum(x.ravel().tolist())``, its inf, NaN, OverflowError and
    ValueError included.

    A correctly rounded sum is unique, so any exact method returns fsum's
    bits.  Error-free folding (Rump, Ogita and Oishi, SIAM J. Sci. Comput.
    31, 2008): with n entries of magnitude below 2^e and n < 2^k, adding and
    subtracting c = 1.5 * 2^(e+k) rounds every entry r to h, a multiple of
    g = ulp(c), and the residual r - h is exact.  The partial sums of the
    h are multiples of g below 2^53 g, so ``np.sum`` adds them exactly in
    any order.  Each pass keeps the nonzero residuals, at most g/2 each;
    once fewer than ``_FOLD_MIN_SIZE`` remain, or their magnitude leaves
    ``_FOLD_RANGE`` (a NaN or inf entry included, on the first pass), fsum
    adds the pass totals and what remains, which sum exactly to x.
    """
    r = x.ravel()
    totals = []
    while r.size >= _FOLD_MIN_SIZE:
        # max and min both propagate a NaN, which fails the range test
        m = max(float(r.max()), -float(r.min()))
        if not _FOLD_RANGE[0] <= m <= _FOLD_RANGE[1]:
            break
        c = 1.5 * math.ldexp(1.0, math.frexp(m)[1] + r.size.bit_length())
        h = r + c
        h -= c
        totals.append(float(h.sum()))
        r = r - h
        r = r[r != 0.0]
    return math.fsum(totals + r.tolist())


def zero_threshold(eigenvalues: np.ndarray) -> float:
    """Cutoff below which eigenvalues are treated as exact zeros.

    Scales with the dimension and the largest eigenvalue magnitude so that
    rank decisions stay stable under round-off.
    """
    w = np.asarray(eigenvalues, dtype=float)
    lam_max = float(np.abs(w).max()) if w.size else 0.0
    return w.size * _EPS * max(1.0, lam_max)


@functools.lru_cache(maxsize=None)
def _identity(d: int) -> np.ndarray:
    """Read-only d x d identity, shared by every unitarity check at that d
    (at most MAX_DIM of them)."""
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


def lapack_eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ascending and orthonormal, C-ordered eigenvector columns of
    a complex Hermitian matrix, or of each matrix of a stack, from the lower
    triangle.

    This is np.linalg.eigh, which runs LAPACK's zheevd once per matrix, so
    each matrix of a stack gets the bits it gets alone; a solve that does
    not converge raises ConvergenceFailure.
    """
    try:
        return np.linalg.eigh(mat, UPLO="L")
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh failed: {exc}") from exc


def checked_eigensystem(eigenvalues, eigenvectors) -> tuple[np.ndarray, np.ndarray]:
    """Copies of an eigensystem (w, U), eigenvalues ascending with the
    eigenvector columns in step; a spectrum that already ascends keeps its
    order.  DimensionMismatch unless w is a vector and U square of its size;
    NonFiniteInput for a NaN or infinite entry of either."""
    w = np.array(eigenvalues, dtype=np.float64)
    u = np.array(eigenvectors, dtype=np.complex128)
    if w.ndim != 1 or u.shape != (w.size, w.size):
        raise DimensionMismatch("eigenvalues and eigenvectors have inconsistent shapes")
    if not (np.isfinite(w).all() and np.isfinite(u).all()):
        raise NonFiniteInput("eigensystem has a NaN or infinite entry")
    if (w[1:] >= w[:-1]).all():
        return w, u
    order = np.argsort(w, kind="stable")
    return w[order], u[:, order]


def square_dim(shape: tuple[int, ...]) -> int:
    """The dimension d of a d x d shape with 1 <= d <= MAX_DIM, or DimensionMismatch."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {shape}")
    d = shape[0]
    if d < 1 or d > MAX_DIM:
        raise DimensionMismatch(f"dimension {d} outside [1, {MAX_DIM}]")
    return d


# The checks below take one matrix (d, d) or a stack of them (n, d, d) and
# check every matrix at once.  Each matrix of a result is bit-identical to
# the same matrix processed alone: the arithmetic is entrywise or one
# BLAS/LAPACK call per matrix.


def hermitian_parts(mats: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2 of a complex128 matrix, or of each matrix of a stack.

    A NaN or infinite entry is NonFiniteInput; a maximal entrywise asymmetry
    |M - M^dag| above ``HERM_TOL * max(1, ||(M + M^dag)/2||_F)`` is
    NonHermitianInput, reported for the first matrix that has it.
    """
    if not np.isfinite(mats).all():
        raise NonFiniteInput("matrix has a NaN or infinite entry")
    mats_h = mats.conj().swapaxes(-1, -2)
    asym = np.abs(mats - mats_h)
    herm = mats + mats_h
    herm *= 0.5
    # every tolerance is at least HERM_TOL, so below it no matrix can fail;
    # the Frobenius norm only scales the tolerance
    if asym.max() > HERM_TOL:
        d = mats.shape[-1]
        worst = asym.reshape(-1, d * d).max(axis=1).tolist()
        for k, h in enumerate(herm.reshape(-1, d, d)):
            tol = HERM_TOL * max(1.0, math.sqrt(np.vdot(h, h).real))
            if worst[k] > tol:
                raise NonHermitianInput(f"asymmetry {worst[k]:.3e} exceeds tolerance {tol:.3e}")
    return herm


def checked_eigh(herm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ascending and eigenvector columns of a Hermitian matrix,
    or of each matrix of a stack (shapes (n, d) and (n, d, d)): one
    lapack_eigh call for the whole stack.

    Every result is checked against the reconstruction contract
    ``||U diag(w) U^dag - H||_max <= EIG_TOL * max(1, |w|_max)`` and against
    ``||U^dag U - I||_max <= EIG_TOL``; a breach is ConvergenceFailure.
    """
    w, u = lapack_eigh(herm)
    u_h = u.conj().swapaxes(-1, -2)
    recon = (u * w[..., None, :]) @ u_h
    recon -= herm
    recon = np.abs(recon)
    # every budget is at least EIG_TOL, so below it no matrix can fail; eigh
    # returns w ascending, so its extremes are the ends
    if recon.max() > EIG_TOL:
        scale = np.maximum(1.0, np.maximum(-w[..., 0], w[..., -1]))
        if (recon.max(axis=(-2, -1)) > EIG_TOL * scale).any():
            raise ConvergenceFailure("eigendecomposition failed reconstruction check")
    gram = u_h @ u
    gram -= _identity(w.shape[-1])
    if np.abs(gram).max() > EIG_TOL:
        raise ConvergenceFailure("eigenvector matrix is not unitary")
    return w, u


def basis_rows(u: np.ndarray) -> np.ndarray | None:
    """The row of each column's 1 when every column of ``u`` (d x r, or each
    matrix of a stack) is a standard basis vector and no two columns of a
    matrix share a row; otherwise None.

    The test is on bits: each column holds one 1.0 and every other real and
    imaginary part is +0.0.  A product with such a basis only copies entries,
    signed zeros included, so an index gather at these rows gives its bits
    with no d^3 work.  Every entry of a standard basis equals 0 or 1, so a
    dense basis fails at its first entry, before any count.
    """
    if u.item(0) not in (0.0, 1.0):
        return None
    re = u.real
    columns = u.size // u.shape[-2]
    # the int64 views count the words with any bit set, -0.0 included.  One
    # real word per column on average, and a sum of 1.0 in every column,
    # leave each column one word, 1.0; a row sum above 1.0 is a shared row
    if (np.count_nonzero(re.view(np.int64)) != columns or np.count_nonzero(u.imag.view(np.int64))
            or not (re.sum(axis=-2) == 1.0).all() or re.sum(axis=-1).max() > 1.0):
        return None
    return re.argmax(axis=-2)


def compose(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """U diag(w) U^dag, symmetrized, of one eigensystem (w of shape (d,)) or
    of each of a stack (w of shape (n, d)).  Where U is a standard basis
    (:func:`basis_rows`), w is written onto the diagonal at its rows: the
    bits of the product, which only copies entries."""
    rows = basis_rows(u)
    if rows is not None:
        diag = np.zeros_like(w)
        np.put_along_axis(diag, rows, w, axis=-1)
        mat = np.zeros(u.shape, dtype=np.complex128)
        mat.reshape(*u.shape[:-2], -1)[..., :: u.shape[-1] + 1] = diag
        return mat
    mat = (u * w[..., None, :]) @ u.conj().swapaxes(-1, -2)
    mat += mat.conj().swapaxes(-1, -2)
    mat *= 0.5
    return mat


class HermitianOperator:
    """Immutable complex Hermitian matrix with a cached eigendecomposition.

    The constructor is :func:`hermitian_parts`: it rejects inputs with a NaN
    or infinite entry, symmetrizes the input to (M + M^dag)/2, and rejects
    inputs whose maximal entrywise asymmetry exceeds
    ``HERM_TOL * max(1, scale)``.  The eigendecomposition is
    :func:`checked_eigh`, computed at most once and checked against the
    reconstruction and unitarity contract.
    """

    __slots__ = ("_mat", "_eig")

    def __init__(self, entries) -> None:
        # hermitian_parts writes new arrays, so the entries need no copy
        mat = np.asarray(entries, dtype=np.complex128)
        square_dim(mat.shape)
        herm = hermitian_parts(mat)
        herm.setflags(write=False)
        self._mat = herm
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_eigensystem(cls, eigenvalues, eigenvectors) -> "HermitianOperator":
        """Build U diag(w) U^dag with the eigendecomposition cache pre-seeded;
        the eigensystem is checked and sorted by :func:`checked_eigensystem`."""
        w, u = checked_eigensystem(eigenvalues, eigenvectors)
        mat = compose(w, u)
        for a in (mat, w, u):
            a.setflags(write=False)
        return cls.__new__(cls)._adopt(mat, w, u)

    @classmethod
    def stack(cls, matrices) -> list:
        """One operator per matrix, in order; the matrices may differ in dimension.

        The construction kernel: the matrices of each dimension are stacked,
        checked and symmetrized by :func:`hermitian_parts`, and made by
        ``_made``, which here runs :func:`checked_eigh` on the stack and
        caches each operator's eigensystem.  Each operator is bit-identical to
        the same matrix built alone, its eigensystem included, and keeps its
        own read-only slice of the stacks.  A stack holding one bad matrix
        raises the error that matrix raises alone.
        """

        def made(mats: np.ndarray) -> list:
            square_dim(mats.shape[1:])
            return cls._made(hermitian_parts(mats))

        return stackwise(made, [np.asarray(m, dtype=np.complex128) for m in matrices])

    @classmethod
    def _made(cls, herm: np.ndarray) -> list:
        """The operators of a symmetrized stack of one dimension."""
        w, u = checked_eigh(herm)
        for a in (herm, w, u):
            a.setflags(write=False)
        return [cls.__new__(cls)._adopt(*parts) for parts in zip(herm, w, u)]

    def _adopt(self, mat: np.ndarray, w: np.ndarray, u: np.ndarray) -> "HermitianOperator":
        """Take a read-only symmetrized matrix and its read-only ascending
        eigensystem as given, with no checks and no copies; returns self."""
        self._mat = mat
        self._eig = (w, u)
        return self

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Read-only view of the symmetrized entries."""
        return self._mat

    def trace(self) -> float:
        return float(np.trace(self._mat).real)

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues ascending and the matching orthonormal eigenvector columns."""
        if self._eig is None:
            w, u = checked_eigh(self._mat)
            w.setflags(write=False)
            u.setflags(write=False)
            self._eig = (w, u)
        return self._eig

    def eigenvalues(self) -> np.ndarray:
        return self.eig()[0]

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        return HermitianOperator(self._mat - as_herm(other)._mat)

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


def as_herm(x) -> HermitianOperator:
    """Coerce an array-like to HermitianOperator (no-op if it already is one)."""
    if isinstance(x, HermitianOperator):
        return x
    return HermitianOperator(x)


def apply_function(
    h,
    f: Callable[[float], float],
    domain_guard: Callable[[float], bool] | None = None,
) -> HermitianOperator:
    """Spectral calculus: U diag(f(w_i)) U^dag.

    Eigenvalues within the zero threshold are snapped to exactly 0 before the
    guard and before f, so rank decisions do not depend on round-off.  The
    guard, when given, must accept every (thresholded) eigenvalue or a
    DomainViolation naming the offender is raised; so is a NaN or infinite
    value of f.
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
    if not np.isfinite(vals).all():
        raise DomainViolation("function produced a NaN or infinite value on the spectrum")
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
    """Singular values in descending order of a matrix, or of each matrix of a
    stack (the rows of the result): by eigvalsh of the Hermitian part where
    a square matrix is Hermitian within round-off, else of X^dag X.  A stack
    takes one eigvalsh for each of the two kinds, and each matrix gets the
    bits it gets alone."""
    if isinstance(x, HermitianOperator):
        return np.sort(np.abs(x.eigenvalues()))[::-1]
    mat = np.asarray(x, dtype=np.complex128)
    if mat.ndim < 2:
        raise DimensionMismatch(f"expected a matrix, got shape {mat.shape}")
    mats = mat.reshape(-1, *mat.shape[-2:])
    hermitian = np.zeros(len(mats), dtype=bool)
    if mats.shape[-1] == mats.shape[-2]:
        asym = np.abs(mats - mats.conj().swapaxes(-1, -2)).max(axis=(-2, -1)).tolist()
        # the tolerance 1e-12 * max(1, ||M||_F) is at least 1e-12, so the norm
        # is taken only above it
        hermitian[:] = [a <= 1e-12 or a <= 1e-12 * float(np.linalg.norm(m, "fro"))
                        for a, m in zip(asym, mats)]
    s = np.empty((len(mats), mats.shape[-1]))
    if hermitian.any():
        herm = mats[hermitian]
        w = np.linalg.eigvalsh((herm + herm.conj().swapaxes(-1, -2)) / 2.0)
        s[hermitian] = np.sort(np.abs(w))[..., ::-1]
    if not hermitian.all():
        general = mats[~hermitian]
        gram = general.conj().swapaxes(-1, -2) @ general
        w = np.linalg.eigvalsh((gram + gram.conj().swapaxes(-1, -2)) / 2.0)
        s[~hermitian] = np.sqrt(np.clip(w, 0.0, None))[..., ::-1]
    return s.reshape(*mat.shape[:-2], -1)


def schatten_norm(x, p: float) -> float:
    """Schatten p-norm: the l_p norm of the singular value vector.

    p=1 is the trace norm, p=2 the Frobenius norm, p=inf the spectral norm.
    ``x`` is a matrix, or a 1-d array of the singular values themselves (as
    :func:`singular_values` returns them), so that several norms of one
    matrix share a single decomposition.  A norm inside the float range is
    finite even where the p-th power of a singular value is not.
    """
    p = float(p)
    if not p >= 1.0:
        raise DomainViolation(f"Schatten index must satisfy p >= 1, got {p}")
    s = x if isinstance(x, np.ndarray) and x.ndim == 1 else singular_values(x)
    if math.isinf(p):
        return float(s.max()) if s.size else 0.0
    if p == 1.0:
        return exact_sum(s)
    values = s.tolist()
    try:  # a Python float's power raises OverflowError where numpy's is inf
        return math.fsum(si**p for si in values) ** (1.0 / p)
    except OverflowError:  # rescaled only here, so in-range norms keep their bits
        top = max(values)
        if math.isinf(top):
            return top
        return top * math.fsum((si / top) ** p for si in values) ** (1.0 / p)


def diff_singular_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Singular values of A - B, descending, for exactly Hermitian A and B or stacks."""
    return np.sort(np.abs(np.linalg.eigvalsh(a - b)))[..., ::-1]


def _solve_power_diffs(pairs: list[OperatorPair], powers) -> None:
    """Keep on each pair the singular values of A^n - B^n per n of ``powers``."""
    power = np.linalg.matrix_power
    for p, s in zip(pairs, stackwise(lambda a, b: singular_values(
            np.stack([power(a, n) - power(b, n) for n in powers], axis=1)),
            [p.a.matrix for p in pairs], [p.b.matrix for p in pairs])):
        p._power_diff.update(zip(powers, s))


def grouped(items, key) -> list[list]:
    """The items in groups of equal ``key(item)``: groups in the order of
    their first item, items in their own order within each."""
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return list(groups.values())


def stacked(arrays: list[np.ndarray]) -> np.ndarray:
    """Equal-shape arrays as one (n, ...) stack: a view of a lone array, so a
    block of one copies no operand, and a copy of several."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def stackwise(fn, *operands: list[np.ndarray]) -> list:
    """``fn`` of stacks of the arrays of ``operands``, lists of equal length:
    one call per shape of the first list's arrays, in the order of its first
    array, with the k-th array of every list in the same place of its stack.
    The entries of the results go back in the arrays' order."""
    first = operands[0]
    results: list = [None] * len(first)
    for idx in grouped(range(len(first)), lambda k: first[k].shape):
        for k, item in zip(idx, fn(*(np.array([arrays[k] for k in idx]) for arrays in operands))):
            results[k] = item
    return results


class OperatorPair:
    """Norm context of two Hermitian operands (A, B): a lemma check's or a state pair's.

    The singular values of A, B, A - B and A^n - B^n are each computed once,
    on first use, and shared by every norm and distance taken of the pair.
    Pass one instance to every check on the same (A, B).  Operands of
    different dimensions raise DimensionMismatch.
    """

    def __init__(self, a, b) -> None:
        self.a = as_herm(a)
        self.b = as_herm(b)
        if self.a.dim != self.b.dim:
            raise DimensionMismatch(f"dimension mismatch: {self.a.dim} vs {self.b.dim}")
        self._power_diff: dict[int, np.ndarray] = {}

    @classmethod
    def stack(cls, operands, powers) -> list[OperatorPair]:
        """One context per (A, B) of ``operands``, in order, with the singular
        values of A - B, and of A^n - B^n for each n in ``powers``, solved
        together: per dimension one eigvalsh for the differences and one
        :func:`singular_values` stack for every power, each pair with the
        bits it gets alone."""
        pairs = [cls(a, b) for a, b in operands]
        a, b = [p.a.matrix for p in pairs], [p.b.matrix for p in pairs]
        for p, s in zip(pairs, stackwise(diff_singular_values, a, b)):
            p.diff_singular_values = s
        if powers:
            _solve_power_diffs(pairs, powers)
        return pairs

    @cached_property
    def operand_singular_values(self) -> tuple[np.ndarray, np.ndarray]:
        return singular_values(self.a), singular_values(self.b)

    @cached_property
    def diff_singular_values(self) -> np.ndarray:
        """Singular values of A - B, descending."""
        return diff_singular_values(self.a.matrix, self.b.matrix)

    @cached_property
    def distances(self) -> dict[str, float]:
        """||A - B||_1 and ||A - B||_inf."""
        s = self.diff_singular_values
        return {"trace_norm": schatten_norm(s, 1.0), "spectral_norm": schatten_norm(s, math.inf)}

    def power_diff_singular_values(self, n: int) -> np.ndarray:
        """Singular values of A^n - B^n; matrix_power(M, 1) is M itself, so
        n = 1 is the difference A - B."""
        if n == 1:
            return self.diff_singular_values
        if n not in self._power_diff:
            _solve_power_diffs([self], (n,))
        return self._power_diff[n]


def psd_gap(a, b):
    """Minimum eigenvalue of B - A, for two Hermitian operators or matrices,
    or for each pair of matrices of two stacks (n, d, d), as an array, with
    one eigvalsh for the whole stack.

    A <= B in the positive-semidefinite order iff the gap is >= -PSD_TOL
    relative to the operand scale; this function returns the raw gap and
    leaves the tolerance decision to the caller.
    """
    a, b = (x.matrix if isinstance(x, HermitianOperator) else _hermitian_stack(x) for x in (a, b))
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    # the difference of two exactly Hermitian matrices is exactly Hermitian
    gaps = np.linalg.eigvalsh(b - a)[..., 0]
    return float(gaps) if gaps.ndim == 0 else gaps


def _hermitian_stack(x) -> np.ndarray:
    """:func:`hermitian_parts` of a square matrix or of a stack of them."""
    mats = np.asarray(x, dtype=np.complex128)
    if mats.ndim not in (2, 3):
        raise DimensionMismatch(f"expected a matrix or a stack of them, got shape {mats.shape}")
    square_dim(mats.shape[-2:])
    return hermitian_parts(mats)
