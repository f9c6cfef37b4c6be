"""Density matrices: support/kernel machinery, random generators, tensor
products, partial traces, and every JSON format the program reads or writes:
the state file, and the report texts of eval and of verify."""

from __future__ import annotations

import bisect
import contextlib
import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import (
    BadFactorization,
    BadSpectrum,
    DimensionMismatch,
    NotNormalized,
    NotPSD,
    ParseError,
)
from .linalg import (
    _EPS,
    MAX_DIM,
    HermitianOperator,
    checked_eigensystem,
    checked_eigh,
    compose,
    exact_sum,
    stackwise,
)

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


def stream_seed(seed: int, trial: int, salt: int) -> int:
    """The 64-bit SFC64 seed of a trial's stream: seed XOR trial XOR (salt << 40)."""
    return (int(seed) ^ int(trial) ^ (int(salt) << 40)) & ((1 << 64) - 1)


def trial_stream(seed: int, trial: int, salt: int) -> np.random.Generator:
    """Per-trial RNG stream: SFC64 seeded with ``stream_seed(seed, trial, salt)``."""
    return as_generator(stream_seed(seed, trial, salt))


class DensityMatrix(HermitianOperator):
    """Positive semidefinite, unit-trace Hermitian matrix: the
    :class:`HermitianOperator` of the state, with its eigendecomposition
    always cached.

    ``spectrum`` holds the eigenvalues ascending after zero-thresholding and
    renormalization; ``rank`` counts the nonzero entries; the support
    projector spans the eigenvectors of the nonzero eigenvalues.

    The constructor runs the stages of :meth:`stack` on one matrix.  It
    raises NonFiniteInput, NonHermitianInput, NotNormalized, NotPSD or
    ConvergenceFailure when the matrix fails the corresponding check;
    eigenvalues in [-TOL_STATE, 0) are clamped to zero and the spectrum
    renormalized.
    """

    __slots__ = ("rank",)

    def __init__(self, matrix) -> None:
        # the kernel's stages on one matrix, through the operator's own:
        # hermitian_parts in its constructor, checked_eigh in eig
        super().__init__(matrix)
        _trace_gate(self.matrix)
        w, u, mat, (rank,) = _settle(*self.eig())
        self._adopt(mat, w, u, rank)

    @classmethod
    def _made(cls, herm: np.ndarray) -> list["DensityMatrix"]:
        """The states of a symmetrized stack of one dimension, for
        :meth:`stack`, the construction kernel: the trace gate, the
        eigendecomposition with its reconstruction and unitarity contract and
        the PSD gate run on the whole stack, then each spectrum is
        thresholded and renormalized by its own fsum and U diag(w) U^dag is
        rebuilt for the stack."""
        _trace_gate(herm)
        w, u, mats, ranks = _settle(*checked_eigh(herm))
        return [cls.__new__(cls)._adopt(*parts) for parts in zip(mats, w, u, ranks)]

    @classmethod
    def from_eigensystem(cls, eigenvalues, eigenvectors) -> "DensityMatrix":
        """Build from a known eigensystem, keeping exact zeros exact."""
        w, u = checked_eigensystem(eigenvalues, eigenvectors)  # the state keeps the copy u
        tr = exact_sum(w)
        if abs(tr - 1.0) > TOL_STATE:
            raise NotNormalized(f"spectrum sums to {tr!r}, not 1 within {TOL_STATE:.1e}")
        w, u, mat, (rank,) = _settle(w, u)
        return cls.__new__(cls)._adopt(mat, w, u, rank)

    def _adopt(self, mat: np.ndarray, w: np.ndarray, u: np.ndarray, rank: int) -> "DensityMatrix":
        super()._adopt(mat, w, u)
        self.rank = rank
        return self

    @property
    def spectrum(self) -> np.ndarray:
        return self._eig[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        """Columns aligned with ``spectrum`` (ascending, zeros first)."""
        return self._eig[1]

    @property
    def support_projector(self) -> HermitianOperator:
        """Orthogonal projector onto the span of the nonzero-eigenvalue vectors."""
        support = self.eigenvectors[:, self.spectrum > 0.0]
        return HermitianOperator(support @ support.conj().T)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim}, rank={self.rank})"


def _trace_gate(herm: np.ndarray) -> None:
    """NotNormalized unless the trace of a Hermitian matrix, or of each
    matrix of a stack, is 1 within TOL_STATE."""
    for tr in np.atleast_1d(herm.trace(axis1=-2, axis2=-1).real).tolist():
        if abs(tr - 1.0) > TOL_STATE:
            raise NotNormalized(f"trace {tr!r} differs from 1 beyond {TOL_STATE:.1e}")


def _settle(w: np.ndarray, u: np.ndarray) -> tuple:
    """Threshold, renormalize and rebuild an ascending eigensystem, as eigh
    returns it, or each of a stack: (spectrum, basis, matrix) of the input's
    shapes, all read-only, and the rank of each.  ``u`` becomes the bases
    of the states, so it must not be a caller's array."""
    rows, ranks = [], []
    for values in w.reshape(-1, w.shape[-1]).tolist():
        if values[0] < -TOL_STATE:
            raise NotPSD(f"eigenvalue {values[0]!r} below -{TOL_STATE:.1e}")
        # zero_threshold(w) from the ends of the ascending spectrum
        cut = len(values) * _EPS * max(1.0, -values[0], values[-1])
        # the entries <= cut, both |w| <= cut and the round-off negatives that
        # passed the -TOL_STATE gate, are a prefix of w; zeroing keeps w ascending
        zeros = bisect.bisect_right(values, cut)
        kept = values[zeros:]
        total = math.fsum(kept)
        if total <= 0.0:
            raise NotPSD("spectrum vanished entirely after thresholding")
        # Python's float division rounds as numpy's does
        rows.append([0.0] * zeros + [v / total for v in kept])
        ranks.append(len(kept))
    w = np.array(rows).reshape(w.shape)
    mats = compose(w, u)
    for a in (w, u, mats):
        a.setflags(write=False)
    return w, u, mats, ranks


def ginibre(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Complex Ginibre array of the given shape from ``rng``: every real
    part is drawn first, then every imaginary part, each standard normal."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def draw_density(d: int, rank: int, rng) -> np.ndarray:
    """The matrix G G^dag / tr(G G^dag) of :func:`sample_density`, with G a
    d x rank complex Ginibre matrix drawn from ``rng``; nothing is checked
    or decomposed, so a caller can draw many before building them with
    :meth:`DensityMatrix.stack`."""
    if not 1 <= rank <= d:
        raise BadSpectrum(f"rank must satisfy 1 <= rank <= d, got rank={rank}, d={d}")
    rng = as_generator(rng)
    g = ginibre(rng, (d, rank))
    m = g @ g.conj().T
    m /= m.trace().real
    return m


def sample_density(d: int, rank: int, rng) -> DensityMatrix:
    """Random state G G^dag / tr(G G^dag) with G a d x rank complex Ginibre matrix."""
    return DensityMatrix(draw_density(d, rank, rng))


def haar_unitary(d: int, rng) -> np.ndarray:
    """Haar-distributed unitary: :func:`haar_bases` of a d x d complex
    Ginibre matrix drawn from ``rng``."""
    return haar_bases([ginibre(as_generator(rng), (d, d))])[0]


def haar_bases(ginibres) -> list[np.ndarray]:
    """The Haar unitary of each square complex Ginibre matrix, in order: the
    Q of its QR decomposition with the phases of diag(R) pulled into Q.  The
    matrices may differ in dimension; one np.linalg.qr runs per dimension,
    which gives each matrix the bits it gets alone, and each unitary is a
    C-ordered slice of its stack."""

    def bases(z: np.ndarray) -> np.ndarray:
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
        diag[diag == 0] = 1.0
        return np.multiply(q, (diag / np.abs(diag))[:, None, :], order="C")

    return stackwise(bases, list(ginibres))


def probability_vector(p) -> np.ndarray:
    """``p`` as a float64 vector; BadSpectrum unless it is nonempty and 1-d,
    with no negative entry and an fsum within 1e-12 of 1."""
    v = np.asarray(p, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise BadSpectrum("probability vector must be a nonempty 1-d array")
    if np.any(v < 0.0):
        raise BadSpectrum(f"negative probability {float(v.min())!r}")
    total = exact_sum(v)
    if not abs(total - 1.0) <= 1e-12:  # a NaN entry fails here
        raise BadSpectrum(f"probabilities sum to {total!r}, not 1")
    return v


def density_with_spectrum(spec, rng) -> DensityMatrix:
    """U diag(spec) U^dag with Haar-random U; controls the spectrum exactly."""
    w = probability_vector(spec)
    u = haar_unitary(w.size, rng)
    return DensityMatrix.from_eigensystem(w, u)


def draw_common_support_pair(
    d: int, support_rank: int, rng, rho_rank: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of :func:`sample_common_support_pair`, in its order: sigma's
    and then rho's matrix on the support (rho of rank ``rho_rank``, or full
    rank for None), then the Ginibre matrix g of the Haar basis of C^d.
    Returned as (rho_k, sigma_k, g); :func:`haar_bases` of g is the basis
    :func:`embed_common_support` takes."""
    if not 1 <= support_rank <= d:
        raise BadSpectrum(f"support rank must lie in [1, {d}], got {support_rank}")
    rng = as_generator(rng)
    k = support_rank
    rho_rank = k if rho_rank is None else rho_rank
    sigma_k = draw_density(k, k, rng)
    rho_k = draw_density(k, rho_rank, rng)
    return rho_k, sigma_k, ginibre(rng, (d, d))


def embed_common_support(
    rho_k: DensityMatrix, sigma_k: DensityMatrix, u: np.ndarray
) -> tuple[DensityMatrix, DensityMatrix]:
    """(rho, sigma) on C^d from two states on a k-dimensional space: the
    space maps onto the last k columns of the unitary ``u``, and both
    states are exactly zero on the first d - k."""
    d, k = u.shape[0], sigma_k.dim

    def embed(state_k: DensityMatrix) -> DensityMatrix:
        w = np.concatenate([np.zeros(d - k), state_k.spectrum])
        basis = np.zeros((d, d), dtype=np.complex128)
        basis[k:, : d - k] = np.eye(d - k)
        basis[:k, d - k :] = state_k.eigenvectors
        return DensityMatrix.from_eigensystem(w, u @ basis)

    return embed(rho_k), embed(sigma_k)


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
    rho_k, sigma_k, g = draw_common_support_pair(d, support_rank, rng, rho_rank)
    return embed_common_support(*DensityMatrix.stack([rho_k, sigma_k]), haar_bases([g])[0])


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
    return DensityMatrix(partial_trace_matrix(rho, d_a, d_b, keep))


def partial_trace_matrix(rho: DensityMatrix, d_a: int, d_b: int, keep: str) -> np.ndarray:
    """The reduced matrix of :func:`partial_trace` before the state's checks,
    so a caller can build many with :meth:`DensityMatrix.stack`."""
    if d_a * d_b != rho.dim:
        raise BadFactorization(
            f"declared factors {d_a} x {d_b} do not match dimension {rho.dim}"
        )
    if keep not in ("A", "B"):
        raise BadFactorization(f"keep must be 'A' or 'B', got {keep!r}")
    m = rho.matrix.reshape(d_a, d_b, d_a, d_b)
    return np.einsum("ijkj->ik", m) if keep == "A" else np.einsum("ijil->jl", m)


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _entry17(x: float) -> str:
    """A state-file entry: 17 significant digits, with -0.0 written "-0.0",
    since "-0" reads back as the integer 0."""
    text = format(x, ".17g")
    return "-0.0" if text == "-0" else text


def state_text(re: np.ndarray, im: np.ndarray) -> str:
    """The state file of the d x d matrix re + i im: the JSON object
    {"dim", "re", "im"}, row-major, each entry with 17 significant digits."""

    def rows(part: np.ndarray) -> str:
        return (
            "["
            + ", ".join("[" + ", ".join(map(_entry17, row.tolist())) + "]" for row in part)
            + "]"
        )

    return f'{{"dim": {len(re)}, "re": {rows(re)}, "im": {rows(im)}}}\n'


def write_state(path, rho: DensityMatrix) -> None:
    """Write the state file of ``rho``, as :func:`state_text` gives it."""
    m = rho.matrix
    write_atomic(path, state_text(m.real, m.imag))


def json_text(obj) -> str:
    """The ASCII text of verify's JSON files: json.dumps, key-sorted, indented by 2."""
    return json.dumps(obj, sort_keys=True, indent=2)


def eval_text(report: dict) -> str:
    """The UTF-8 text eval prints: orjson's, key-sorted, indented by 2.  orjson,
    imported here as :func:`state_arrays` imports it, refuses numpy scalars."""
    import orjson
    return orjson.dumps(report, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS).decode()


def write_atomic(path, text: str) -> None:
    """Write ASCII ``text`` to ``path`` (creating missing directories) through
    ``<path>.tmp`` and one os.replace.  A failure after the temporary file is
    opened unlinks it, suppressing an OSError of the unlink, and re-raises."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", encoding="ascii")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


#: the '[' and '{' of a MAX_DIM x MAX_DIM state file: the object, and the
#: outer array and MAX_DIM rows of each of "re" and "im"
_MAX_OPENERS = 1 + 2 * (MAX_DIM + 1)


def state_arrays(raw: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The float64 ``re`` and ``im`` arrays of a state file's bytes, or ParseError.

    Only what :func:`state_text` writes is read: ASCII text holding one JSON
    object whose "dim" is an integer, not a bool, and whose "re" and "im" are
    dim x dim arrays of JSON numbers (integers or floats; a bool, string or
    null is refused).  JSON has no NaN or Infinity, and a number beyond the
    float64 range is refused too.  A file with more '[' and '{' than a
    MAX_DIM x MAX_DIM state holds is refused before it is decoded.
    """
    # orjson 3.8 recurses once per nesting level with no depth limit: objects
    # nested 60,000 deep overflow an 8 MB C stack and kill the process.  The
    # count of brackets bounds the depth.  Only eval reads state files, so no
    # other command loads orjson
    import orjson

    # numpy reads a bool among numbers as 1.0 or 0.0, and the writer writes no
    # 't' or 'f': two byte scans refuse a true or false anywhere
    if b"t" in raw or b"f" in raw:
        raise ParseError("a bool (true or false) where the writer writes only numbers")
    data = np.frombuffer(raw, dtype=np.uint8)
    openers = np.count_nonzero(data == ord("[")) + np.count_nonzero(data == ord("{"))
    if openers > _MAX_OPENERS:
        raise ParseError(f"{openers} '[' and '{{' brackets, more than the {_MAX_OPENERS} "
                         f"of a state of dimension {MAX_DIM}")
    try:
        doc = orjson.loads(raw.decode("ascii"))
    except ValueError as exc:  # not ASCII, or not JSON
        raise ParseError(str(exc)) from exc
    try:
        dim = doc["dim"]
        # numpy reads the dtype from the entries: bools, strings and nulls
        # give a kind other than integer or float
        parts = np.asarray(doc["re"]), np.asarray(doc["im"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed state document: {exc!r}") from exc
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ParseError(f"dim must be a JSON integer, not {type(dim).__name__}")
    for name, part in zip(("re", "im"), parts):
        if part.dtype.kind not in "iuf":
            raise ParseError(f"{name} entries must be JSON numbers, not {part.dtype}")
        if part.shape != (dim, dim):
            raise ParseError(f"{name} has shape {part.shape}, not ({dim}, {dim})")
    return parts[0].astype(np.float64, copy=False), parts[1].astype(np.float64, copy=False)


def read_state(path) -> DensityMatrix:
    """Parse a state file written by :func:`write_state` and validate it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        re, im = state_arrays(raw)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return DensityMatrix(re + 1j * im)
