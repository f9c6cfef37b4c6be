"""Density matrices: support/kernel machinery, random generators, tensor
products, partial traces, and the JSON state-file format."""

from __future__ import annotations

import bisect
import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    BadFactorization,
    BadSpectrum,
    ConvergenceFailure,
    DimensionMismatch,
    NonFiniteInput,
    NotNormalized,
    NotPSD,
    ParseError,
)
from .linalg import _EPS, MAX_DIM, HermitianOperator, sort_eigensystem

#: default absolute weight allowed on the kernel of sigma
TOL_INCL = 1e-12
#: a state's trace may differ from 1, and its eigenvalues may fall below 0,
#: by this much; such negative eigenvalues are clamped to zero
TOL_STATE = 1e-10


def as_generator(seed_or_rng) -> np.random.Generator:
    """Accept an integer seed or a Generator; integers seed an SFC64 stream."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.Generator(np.random.SFC64(int(seed_or_rng)))


def trial_stream(seed: int, trial: int, salt: int = 0) -> np.random.Generator:
    """Per-trial RNG stream: SFC64 seeded with seed XOR trial (XOR a salt)."""
    mask = (1 << 64) - 1
    return as_generator((int(seed) ^ int(trial) ^ (int(salt) << 40)) & mask)


class DensityMatrix:
    """Positive semidefinite, unit-trace Hermitian matrix.

    ``spectrum`` holds the eigenvalues ascending after zero-thresholding and
    renormalization; ``rank`` counts the nonzero entries; the support
    projector spans the eigenvectors of the nonzero eigenvalues.

    The constructor raises NonHermitianInput, NotNormalized or NotPSD when
    the matrix fails the corresponding check; eigenvalues in [-TOL_STATE, 0)
    are clamped to zero and the spectrum renormalized.
    """

    __slots__ = ("op", "spectrum", "rank", "_basis")

    def __init__(self, matrix) -> None:
        h = HermitianOperator(matrix)
        tr = h.trace()
        if abs(tr - 1.0) > TOL_STATE:
            raise NotNormalized(f"trace {tr!r} differs from 1 beyond {TOL_STATE:.1e}")
        w, u = h.eig()
        self._init_from_eigensystem(w, u)

    @classmethod
    def from_eigensystem(cls, eigenvalues, eigenvectors) -> "DensityMatrix":
        """Build from a known eigensystem, keeping exact zeros exact."""
        w = np.asarray(eigenvalues, dtype=np.float64)
        u = np.array(eigenvectors, dtype=np.complex128)  # the state keeps this copy
        if w.ndim != 1 or u.shape != (w.size, w.size):
            raise DimensionMismatch("eigenvalues and eigenvectors have inconsistent shapes")
        if not (np.isfinite(w).all() and np.isfinite(u).all()):
            raise NonFiniteInput("eigensystem has a NaN or infinite entry")
        tr = math.fsum(w.tolist())
        if abs(tr - 1.0) > TOL_STATE:
            raise NotNormalized(f"spectrum sums to {tr!r}, not 1 within {TOL_STATE:.1e}")
        obj = cls.__new__(cls)
        obj._init_from_eigensystem(*sort_eigensystem(w, u))
        return obj

    def _init_from_eigensystem(self, w: np.ndarray, u: np.ndarray) -> None:
        """Threshold, renormalize and keep an ascending eigensystem, as eigh
        returns it; ``u`` becomes the state's read-only basis, so it must
        not be a caller's array."""
        values = w.tolist()
        if values[0] < -TOL_STATE:
            raise NotPSD(f"eigenvalue {values[0]!r} below -{TOL_STATE:.1e}")
        # zero_threshold(w) from the ends of the ascending spectrum
        cut = len(values) * _EPS * max(1.0, -values[0], values[-1])
        # the entries <= cut, both |w| <= cut and the round-off negatives that
        # passed the -TOL_STATE gate, are a prefix of w; zeroing keeps w ascending
        zeros = bisect.bisect_right(values, cut)
        total = math.fsum(values[zeros:])
        if total <= 0.0:
            raise NotPSD("spectrum vanished entirely after thresholding")
        w = np.array(w, dtype=np.float64)
        w[:zeros] = 0.0
        w /= total
        self.op = HermitianOperator._from_ascending(w, u)
        self.spectrum, self._basis = self.op.eig()
        self.rank = len(values) - zeros

    @property
    def dim(self) -> int:
        return self.spectrum.size

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def eigenvectors(self) -> np.ndarray:
        """Columns aligned with ``spectrum`` (ascending, zeros first)."""
        return self._basis

    @property
    def support_projector(self) -> HermitianOperator:
        """Orthogonal projector onto the span of the nonzero-eigenvalue vectors."""
        support = self._basis[:, self.spectrum > 0.0]
        return HermitianOperator(support @ support.conj().T)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim}, rank={self.rank})"


@dataclass(frozen=True)
class SpectralSummary:
    """Extremal eigenvalues of a state pair used by the bound evaluators.

    a1/b1 are the largest eigenvalues of rho/sigma, b0 the smallest nonzero
    eigenvalue of sigma, lambda0/lambda1 the extremes over both spectra.
    """

    a1: float
    b1: float
    b0: float
    lambda0: float
    lambda1: float

    @classmethod
    def from_states(cls, rho: DensityMatrix, sigma: DensityMatrix) -> "SpectralSummary":
        if rho.dim != sigma.dim:
            raise DimensionMismatch(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
        a1 = float(rho.spectrum[-1])
        b1 = float(sigma.spectrum[-1])
        b0 = float(sigma.spectrum[sigma.dim - sigma.rank])
        lambda0 = float(min(rho.spectrum[0], sigma.spectrum[0]))
        lambda1 = float(max(a1, b1))
        return cls(a1=a1, b1=b1, b0=b0, lambda0=lambda0, lambda1=lambda1)


def sample_density(d: int, rank: int, rng) -> DensityMatrix:
    """Random state G G^dag / tr(G G^dag) with G a d x rank complex Ginibre matrix."""
    if not 1 <= rank <= d:
        raise BadSpectrum(f"rank must satisfy 1 <= rank <= d, got rank={rank}, d={d}")
    rng = as_generator(rng)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix(m)


@functools.lru_cache(maxsize=MAX_DIM)
def _qr_workspace(d: int) -> tuple[int, int]:
    """Optimal zgeqrf and zungqr workspace sizes at d x d, the ones
    np.linalg.qr queries: they select the same blocked code, so the same bits."""
    z = np.zeros((d, d), dtype=np.complex128)
    work_r = scipy.linalg.lapack.zgeqrf(z, lwork=-1)[2]
    work_q = scipy.linalg.lapack.zungqr(z, z[0], lwork=-1)[1]
    return int(work_r[0].real), int(work_q[0].real)


def haar_unitary(d: int, rng) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the phases
    of diag(R) pulled into Q.  The QR is LAPACK's zgeqrf and zungqr called
    directly, which gives np.linalg.qr's Q and R without its wrapper's cost."""
    rng = as_generator(rng)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    lwork_r, lwork_q = _qr_workspace(d)
    lapack = scipy.linalg.lapack
    qr, tau, _, info_r = lapack.zgeqrf(z, lwork=lwork_r, overwrite_a=1)
    diag = np.diagonal(qr).copy()
    q, _, info_q = lapack.zungqr(qr, tau, lwork=lwork_q, overwrite_a=1)
    if info_r or info_q:
        raise ConvergenceFailure(f"QR failed: LAPACK info {info_r}, {info_q}")
    diag[diag == 0] = 1.0
    return np.multiply(q, diag / np.abs(diag), order="C")


def density_with_spectrum(spec, rng) -> DensityMatrix:
    """U diag(spec) U^dag with Haar-random U; controls the spectrum exactly."""
    w = np.asarray(spec, dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise BadSpectrum("spectrum must be a nonempty vector")
    if np.any(w < 0.0):
        raise BadSpectrum(f"negative entry {float(w.min())!r} in spectrum")
    if abs(math.fsum(w) - 1.0) > 1e-12:
        raise BadSpectrum(f"spectrum sums to {math.fsum(w)!r}, not 1")
    u = haar_unitary(w.size, rng)
    return DensityMatrix.from_eigensystem(w, u)


def sample_common_support_pair(
    d: int,
    support_rank: int,
    rng,
    rho_rank: int | None = None,
) -> tuple[DensityMatrix, DensityMatrix]:
    """A pair (rho, sigma) supported in the same Haar-random subspace.

    sigma has full rank on the subspace, rho has ``rho_rank`` there, and both
    share an exactly-zero block outside it, so ker(sigma) is contained in
    ker(rho) by construction.
    """
    if not 1 <= support_rank <= d:
        raise BadSpectrum(f"support rank must lie in [1, {d}], got {support_rank}")
    rng = as_generator(rng)
    k = support_rank
    rho_rank = k if rho_rank is None else rho_rank
    sigma_k = sample_density(k, k, rng)
    rho_k = sample_density(k, rho_rank, rng)
    u = haar_unitary(d, rng)

    def embed(state_k: DensityMatrix) -> DensityMatrix:
        w = np.concatenate([np.zeros(d - k), state_k.spectrum])
        basis = np.zeros((d, d), dtype=np.complex128)
        basis[k:, : d - k] = np.eye(d - k)
        basis[:k, d - k :] = state_k.eigenvectors
        return DensityMatrix.from_eigensystem(w, u @ basis)

    return embed(rho_k), embed(sigma_k)


def kernel_included(sigma: DensityMatrix, rho: DensityMatrix) -> bool:
    """True iff rho puts weight at most ``TOL_INCL`` on the kernel of sigma,
    i.e. ker(sigma) is contained in ker(rho) up to tolerance."""
    if sigma.dim != rho.dim:
        raise DimensionMismatch(f"dimension mismatch: {sigma.dim} vs {rho.dim}")
    n_zero = sigma.dim - sigma.rank
    if n_zero == 0:
        return True
    kernel_basis = sigma.eigenvectors[:, :n_zero]
    # tr(K^dag rho K) as one product and one conjugating dot
    weight = np.vdot(kernel_basis, rho.matrix @ kernel_basis).real
    return bool(weight <= TOL_INCL)


def tensor(rho1: DensityMatrix, rho2: DensityMatrix) -> DensityMatrix:
    """Kronecker product; the spectrum is the pairwise products and the rank
    the product of ranks, both preserved exactly."""
    w = np.kron(rho1.spectrum, rho2.spectrum)
    u = np.kron(rho1.eigenvectors, rho2.eigenvectors)
    return DensityMatrix.from_eigensystem(w, u)


def partial_trace(rho: DensityMatrix, d_a: int, d_b: int, keep: str) -> DensityMatrix:
    """Trace out one tensor factor of a state on a (d_a * d_b)-dimensional space."""
    if d_a * d_b != rho.dim:
        raise BadFactorization(
            f"declared factors {d_a} x {d_b} do not match dimension {rho.dim}"
        )
    if keep not in ("A", "B"):
        raise BadFactorization(f"keep must be 'A' or 'B', got {keep!r}")
    m = rho.matrix.reshape(d_a, d_b, d_a, d_b)
    reduced = np.einsum("ijkj->ik", m) if keep == "A" else np.einsum("ijil->jl", m)
    return DensityMatrix(reduced)


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def write_state(path, rho: DensityMatrix) -> None:
    """Write the JSON state format {"dim", "re", "im"} with 17 significant digits."""
    m = rho.matrix

    def rows(part: np.ndarray) -> str:
        return (
            "["
            + ", ".join("[" + ", ".join(_fmt17(v) for v in row) + "]" for row in part)
            + "]"
        )

    text = f'{{"dim": {rho.dim}, "re": {rows(m.real)}, "im": {rows(m.imag)}}}\n'
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(text)
    os.replace(tmp, path)


def read_state(path) -> DensityMatrix:
    """Parse a state file written by :func:`write_state` and validate it."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not ASCII, or not JSON
            raise ParseError(f"{path}: {exc}") from exc
    try:
        d = int(doc["dim"])
        re = np.asarray(doc["re"], dtype=np.float64)
        im = np.asarray(doc["im"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed state document: {exc}") from exc
    if re.shape != (d, d) or im.shape != (d, d):
        raise ParseError(f"{path}: entry arrays do not match dim={d}")
    try:
        return DensityMatrix(re + 1j * im)
    except NonFiniteInput as exc:
        raise ParseError(f"{path}: {exc}") from exc
