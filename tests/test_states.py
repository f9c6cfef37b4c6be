import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrelent.errors import (
    BadFactorization,
    BadSpectrum,
    ConvergenceFailure,
    NonFiniteInput,
    NonHermitianInput,
    NotNormalized,
    NotPSD,
    ParseError,
)
from qrelent.linalg import EIG_TOL, HermitianOperator
from qrelent.states import (
    TOL_INCL,
    DensityMatrix,
    SpectralSummary,
    density_with_spectrum,
    haar_unitary,
    kernel_included,
    partial_trace,
    read_state,
    sample_common_support_pair,
    sample_density,
    stream_seed,
    tensor,
    trial_stream,
    write_atomic,
    write_state,
)


class TestDensityFromMatrix:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2) / 2.0)
        np.testing.assert_allclose(rho.spectrum, [0.5, 0.5])
        assert rho.rank == 2

    def test_pure_state_support(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        assert rho.rank == 1
        np.testing.assert_allclose(rho.support_projector.matrix, np.diag([1.0, 0.0]),
                                   atol=1e-14)

    def test_trace_violation(self):
        with pytest.raises(NotNormalized):
            DensityMatrix(np.diag([0.6, 0.5]))

    def test_negative_eigenvalue(self):
        with pytest.raises(NotPSD):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_clamps_round_off_negatives(self):
        rho = DensityMatrix(np.diag([1.0 + 1e-12, -1e-12]))
        assert rho.rank == 1
        assert rho.spectrum[0] == 0.0
        assert math.fsum(rho.spectrum) == pytest.approx(1.0, abs=1e-14)


class TestSampleDensity:
    def test_scalar_state(self, rng):
        rho = sample_density(1, 1, rng)
        np.testing.assert_allclose(rho.matrix, [[1.0]], atol=1e-14)

    def test_rank_and_trace(self, rng):
        rho = sample_density(4, 2, rng)
        assert rho.rank == 2
        assert math.fsum(rho.spectrum) == pytest.approx(1.0, abs=1e-12)

    def test_seed_determinism(self):
        a = sample_density(2, 2, 42)
        b = sample_density(2, 2, 42)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_rank_bounds(self, rng):
        with pytest.raises(BadSpectrum):
            sample_density(2, 3, rng)

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, seed, d):
        gen = np.random.Generator(np.random.SFC64(seed))
        rank = int(gen.integers(1, d + 1))
        rho = sample_density(d, rank, gen)
        assert np.all(rho.spectrum >= 0.0)
        assert math.fsum(rho.spectrum) == pytest.approx(1.0, abs=1e-10)
        assert rho.rank == rank
        proj = rho.support_projector.matrix
        assert np.max(np.abs(proj @ proj - proj)) <= 1e-8
        assert np.trace(proj).real == pytest.approx(rank, abs=1e-10)


class TestDensityWithSpectrum:
    def test_trivial(self, rng):
        rho = density_with_spectrum([1.0], rng)
        np.testing.assert_allclose(rho.matrix, [[1.0]])

    def test_spectrum_preserved(self, rng):
        rho = density_with_spectrum([0.75, 0.25], rng)
        np.testing.assert_allclose(rho.spectrum, [0.25, 0.75], atol=1e-10)

    def test_bad_sum(self, rng):
        with pytest.raises(BadSpectrum):
            density_with_spectrum([0.5, 0.6], rng)

    def test_negative_entry(self, rng):
        with pytest.raises(BadSpectrum):
            density_with_spectrum([1.1, -0.1], rng)

    def test_exact_zeros_survive(self, rng):
        rho = density_with_spectrum([0.0, 0.3, 0.7], rng)
        assert rho.rank == 2
        assert rho.spectrum[0] == 0.0


class TestHaarUnitary:
    def test_unitarity(self, rng):
        u = haar_unitary(5, rng)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(5), atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 16, 64])
    def test_matches_numpy_qr(self, d):
        # the direct zgeqrf/zungqr calls give np.linalg.qr's factors: bitwise
        # with one LAPACK build, within 1e-14 across builds
        for seed in range(10):
            gen = np.random.Generator(np.random.SFC64(seed))
            z = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
            q, r = np.linalg.qr(z)
            diag = np.diagonal(r)
            expect = q * (diag / np.abs(diag))
            u = haar_unitary(d, np.random.Generator(np.random.SFC64(seed)))
            assert u.flags.c_contiguous
            np.testing.assert_allclose(u, expect, rtol=0.0, atol=1e-14)


class TestKernelInclusion:
    def test_full_rank_sigma(self, rng):
        sigma = sample_density(3, 3, rng)
        rho = sample_density(3, 1, rng)
        assert kernel_included(sigma, rho)

    def test_pure_sigma_mixed_rho(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        sigma = DensityMatrix(np.diag([1.0, 0.0]))
        assert not kernel_included(sigma, rho)

    def test_common_kernel(self):
        rho = DensityMatrix(np.diag([0.6, 0.4, 0.0]))
        sigma = DensityMatrix(np.diag([0.5, 0.5, 0.0]))
        assert kernel_included(sigma, rho)

    def test_reflexive(self, rng):
        rho = sample_density(4, 2, rng)
        assert kernel_included(rho, rho)

    def test_rotated_embedded_pair(self, rng):
        rho, sigma = sample_common_support_pair(5, 3, rng, rho_rank=2)
        assert sigma.rank == 3 and rho.rank == 2
        assert kernel_included(sigma, rho)
        assert not kernel_included(rho, sigma)

    @pytest.mark.parametrize("d", [4, 64])
    @pytest.mark.parametrize("weight,included", [(1e-13, True), (1e-11, False)])
    def test_weight_either_side_of_tolerance(self, rng, d, weight, included):
        # TOL_INCL = 1e-12: rho puts `weight` on one vector of the d/2-dim
        # kernel of sigma, in a Haar-random frame shared by both states
        assert TOL_INCL == 1e-12
        u = haar_unitary(d, rng)
        half = d // 2
        sigma_spec = np.concatenate([np.zeros(half), np.full(half, 1.0 / half)])
        rho_spec = np.concatenate([[weight], np.zeros(half - 1),
                                   np.full(half, (1.0 - weight) / half)])
        sigma = DensityMatrix.from_eigensystem(sigma_spec, u)
        rho = DensityMatrix.from_eigensystem(rho_spec, u)
        assert sigma.rank == half and rho.rank == half + 1
        assert kernel_included(sigma, rho) is included


class TestTensor:
    def test_identity_factor(self, rng):
        rho = sample_density(3, 3, rng)
        unit = DensityMatrix(np.array([[1.0]]))
        np.testing.assert_allclose(tensor(rho, unit).matrix, rho.matrix, atol=1e-14)

    def test_diagonal_products(self):
        a = DensityMatrix(np.diag([0.5, 0.5]))
        b = DensityMatrix(np.diag([0.75, 0.25]))
        out = tensor(a, b)
        np.testing.assert_allclose(np.sort(np.diag(out.matrix).real),
                                   [0.125, 0.125, 0.375, 0.375], atol=1e-14)

    def test_rank_multiplicative(self, rng):
        r1 = sample_density(3, 2, rng)
        r2 = sample_density(4, 3, rng)
        assert tensor(r1, r2).rank == 6


class TestUnsortedEigensystems:
    """Eigensystems given out of order still come out ascending, with each
    eigenvector following its eigenvalue."""

    @staticmethod
    def _assert_sorted(state, expected_spectrum):
        w, u = state.spectrum, state.eigenvectors
        assert np.all(np.diff(w) >= 0.0)
        np.testing.assert_array_equal(w, np.sort(expected_spectrum))
        np.testing.assert_allclose((u * w) @ u.conj().T, state.matrix, atol=1e-15)
        op_w, op_u = state.op.eig()
        np.testing.assert_array_equal(op_w, w)
        np.testing.assert_array_equal(op_u, u)
        assert state.rank == np.count_nonzero(expected_spectrum)

    def test_sigma_family(self):
        from qrelent.harness import sigma_family

        sigma = sigma_family(4, 0.1)  # spectrum given as 0.7, 0.1, 0.1, 0.1
        self._assert_sorted(sigma, [0.7, 0.1, 0.1, 0.1])
        np.testing.assert_array_equal(np.abs(sigma.eigenvectors[:, -1]), [1.0, 0.0, 0.0, 0.0])

    def test_tensor(self, rng):
        r1 = sample_density(3, 2, rng)
        r2 = sample_density(2, 2, rng)
        self._assert_sorted(tensor(r1, r2), np.kron(r1.spectrum, r2.spectrum))

    def test_caller_arrays_stay_writable(self):
        w = np.array([0.25, 0.75])
        u = np.eye(2, dtype=np.complex128)
        DensityMatrix.from_eigensystem(w, u)
        assert w.flags.writeable and u.flags.writeable
        np.testing.assert_array_equal(w, [0.25, 0.75])


class TestNonFiniteEigensystem:
    """A NaN or infinite eigenvalue or eigenvector entry is a NonFiniteInput,
    not a NaN state nor an untyped error of the trace sum."""

    @pytest.mark.parametrize("w", [[math.nan, 0.5, 0.5], [math.inf, -math.inf, 1.0],
                                   [math.inf, 0.5, 0.5]])
    def test_eigenvalues(self, w):
        with pytest.raises(NonFiniteInput):
            DensityMatrix.from_eigensystem(w, np.eye(3))

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf)])
    def test_eigenvectors(self, bad):
        u = np.eye(3, dtype=np.complex128)
        u[1, 2] = bad
        with pytest.raises(NonFiniteInput):
            DensityMatrix.from_eigensystem([0.2, 0.3, 0.5], u)


class TestPartialTrace:
    def test_product_state_recovers_factor(self, rng):
        rho_a = sample_density(2, 2, rng)
        rho_b = sample_density(3, 3, rng)
        joint = tensor(rho_a, rho_b)
        reduced = partial_trace(joint, 2, 3, "A")
        np.testing.assert_allclose(reduced.matrix, rho_a.matrix, atol=1e-12)
        reduced_b = partial_trace(joint, 2, 3, "B")
        np.testing.assert_allclose(reduced_b.matrix, rho_b.matrix, atol=1e-12)

    def test_maximally_entangled_reduction(self):
        # oracle: direct index sums over the 4x4 projector onto (|00>+|11>)/sqrt(2)
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        joint = np.outer(psi, psi.conj())
        expected = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for k in range(2):
                expected[i, k] = math.fsum(joint[2 * i + j, 2 * k + j].real for j in range(2))
        np.testing.assert_allclose(expected, np.eye(2) / 2.0, atol=1e-15)
        reduced = partial_trace(DensityMatrix(joint), 2, 2, "A")
        np.testing.assert_allclose(reduced.matrix, expected, atol=1e-12)

    def test_bad_factorization(self, rng):
        rho = sample_density(6, 6, rng)
        with pytest.raises(BadFactorization):
            partial_trace(rho, 2, 2, "A")


class TestSpectralSummary:
    def test_fixture_pair(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        sigma = DensityMatrix(np.diag([0.75, 0.25]))
        s = SpectralSummary.from_states(rho, sigma)
        assert (s.a1, s.b1, s.b0, s.lambda0, s.lambda1) == (0.5, 0.75, 0.25, 0.25, 0.75)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_ordering_invariants(self, seed):
        gen = np.random.Generator(np.random.SFC64(seed))
        d = int(gen.integers(2, 7))
        rho = sample_density(d, int(gen.integers(1, d + 1)), gen)
        sigma = sample_density(d, int(gen.integers(1, d + 1)), gen)
        s = SpectralSummary.from_states(rho, sigma)
        assert 0.0 <= s.lambda0 <= s.b0 <= s.b1 <= s.lambda1 <= 1.0
        assert s.a1 <= s.lambda1


class TestStateFiles:
    def test_round_trip(self, rng, tmp_path):
        # entries are written with 17 significant digits, so the file holds the
        # exact float64 values; the reader re-canonicalizes through its own
        # eigendecomposition, which may shift the reconstruction by one ulp
        rho = sample_density(4, 3, rng)
        path = tmp_path / "state.json"
        write_state(path, rho)
        back = read_state(path)
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-14)
        assert back.rank == rho.rank
        np.testing.assert_allclose(back.spectrum, rho.spectrum, atol=1e-14)

    def test_writer_is_deterministic(self, rng, tmp_path):
        rho = sample_density(3, 3, rng)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_state(p1, rho)
        write_state(p2, rho)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seventeen_digit_payload(self, rng, tmp_path):
        rho = sample_density(2, 2, rng)
        path = tmp_path / "state.json"
        write_state(path, rho)
        doc = json.loads(path.read_text())
        assert doc["dim"] == 2
        assert np.asarray(doc["re"]).shape == (2, 2)

    def test_writer_creates_missing_directories(self, rng, tmp_path):
        path = tmp_path / "a" / "b" / "state.json"
        write_state(path, sample_density(2, 2, rng))
        assert read_state(path).dim == 2
        assert [p.name for p in path.parent.iterdir()] == ["state.json"]

    def test_failed_write_removes_its_temporary_file(self, tmp_path):
        path = tmp_path / "out.txt"
        write_atomic(path, "old\n")
        with pytest.raises(UnicodeEncodeError):
            write_atomic(path, "not ascii: \u00e9\n")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_existing_temporary_directory_is_kept(self, tmp_path):
        (tmp_path / "out.txt.tmp").mkdir()
        with pytest.raises(IsADirectoryError):
            write_atomic(tmp_path / "out.txt", "text\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt.tmp"]

    def test_parse_error_on_garbage(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            read_state(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_parse_error_on_non_finite_entry(self, tmp_path, token):
        path = tmp_path / "nan.json"
        path.write_text(f'{{"dim": 2, "re": [[0.5, {token}], [{token}, 0.5]], '
                        '"im": [[0.0, 0.0], [0.0, 0.0]]}')
        with pytest.raises(ParseError):
            read_state(path)

    def test_parse_error_on_wrong_shape(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"dim": 2, "re": [[1.0]], "im": [[0.0]]}')
        with pytest.raises(ParseError):
            read_state(path)


def test_stream_seed_formula():
    assert stream_seed(5, 3, 1) == 5 ^ 3 ^ (1 << 40)
    assert stream_seed(-1, 0, 0) == 2**64 - 1
    for seed, trial, salt in ((1, 0, 0), (7, 12, 9), (2**70 + 3, 5, 15)):
        reference = np.random.Generator(np.random.SFC64(stream_seed(seed, trial, salt)))
        assert (trial_stream(seed, trial, salt).standard_normal(4).tolist()
                == reference.standard_normal(4).tolist())


def test_mixing_closure(rng):
    rho = sample_density(4, 4, rng)
    other = sample_density(4, 2, rng)
    for lam in (0.0, 0.3, 1.0):
        mix = DensityMatrix(lam * rho.matrix + (1.0 - lam) * other.matrix)
        assert math.fsum(mix.spectrum) == pytest.approx(1.0, abs=1e-12)


# The state constructor in its plain numpy form, kept as the reference that
# DensityMatrix must match bit for bit.
_EPS = float(np.finfo(np.float64).eps)


def _reference_hermitian(matrix, tol):
    mat = np.array(matrix, dtype=np.complex128)
    if not np.isfinite(mat).all():
        raise NonFiniteInput("matrix has a NaN or infinite entry")
    mat_h = mat.conj().T
    herm = (mat + mat_h) / 2.0
    asym = float(np.abs(mat - mat_h).max())
    scale = max(1.0, float(np.linalg.norm(herm, "fro")))
    if asym > tol * scale:
        raise NonHermitianInput(f"asymmetry {asym:.3e} exceeds tolerance {tol * scale:.3e}")
    return herm, asym


def _reference_from_ascending(w, u, tol):
    w_min = float(w.min())
    if w_min < -tol:
        raise NotPSD(f"eigenvalue {w_min!r} below -{tol:.1e}")
    w = np.array(w, dtype=np.float64)
    w[w <= w.size * _EPS * max(1.0, float(np.abs(w).max()))] = 0.0
    total = math.fsum(w.tolist())
    if total <= 0.0:
        raise NotPSD("spectrum vanished entirely after thresholding")
    w = w / total
    mat = (u * w) @ u.conj().T
    mat = (mat + mat.conj().T) / 2.0
    return w, mat, u, int(np.count_nonzero(w))


def _reference_state(matrix, tol=1e-10):
    """(spectrum, matrix, basis, rank) of DensityMatrix(matrix)."""
    herm, _ = _reference_hermitian(matrix, tol)
    tr = float(np.trace(herm).real)
    if abs(tr - 1.0) > tol:
        raise NotNormalized(f"trace {tr!r} differs from 1 beyond {tol:.1e}")
    w, u = np.linalg.eigh(herm)
    scale = max(1.0, float(np.abs(w).max()))
    u_h = u.conj().T
    if float(np.abs((u * w) @ u_h - herm).max()) > EIG_TOL * scale:
        raise ConvergenceFailure("eigendecomposition failed reconstruction check")
    if float(np.abs(u_h @ u - np.eye(w.size)).max()) > EIG_TOL:
        raise ConvergenceFailure("eigenvector matrix is not unitary")
    return _reference_from_ascending(w, u, tol)


def _reference_from_eigensystem(w, u, tol=1e-10):
    """(spectrum, matrix, basis, rank) of DensityMatrix.from_eigensystem(w, u)."""
    tr = math.fsum(w.tolist())
    if abs(tr - 1.0) > tol:
        raise NotNormalized(f"spectrum sums to {tr!r}, not 1 within {tol:.1e}")
    order = np.argsort(w, kind="stable")
    return _reference_from_ascending(w[order], u[:, order], tol)


def _outcome(build):
    """The four state arrays as (dtype, shape, bytes), or the error raised."""
    try:
        got = build()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    if isinstance(got, DensityMatrix):
        got = (got.spectrum, got.matrix, got.eigenvectors, got.rank)
    *arrays, rank = got
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays], rank


#: how each eigenvalue slot of a drawn spectrum is filled
_SLOTS = ("positive", "zero", "roundoff_negative", "below_cut", "at_cut", "above_cut")


@st.composite
def _spectrum_cases(draw):
    """A spectrum of dimension 1..16 with exact zeros, round-off negatives
    inside -tol and entries on either side of the zero threshold, a Haar
    basis, and a defect: none, an asymmetry within tolerance, or one that
    each error path of the constructor rejects."""
    d = draw(st.integers(1, 16))
    slots = draw(st.lists(st.sampled_from(_SLOTS), min_size=d - 1, max_size=d - 1))
    defect = draw(st.sampled_from(("none", "asymmetric", "not_psd", "not_normalized",
                                   "non_hermitian", "non_finite")))
    rng = np.random.Generator(np.random.SFC64(draw(st.integers(0, 2**32 - 1))))
    cut = d * _EPS  # zero threshold of a spectrum inside [-1, 1]
    fill = {
        "zero": lambda: 0.0,
        "roundoff_negative": lambda: -(10.0 ** rng.uniform(-16.0, -12.0)),
        "below_cut": lambda: float(np.nextafter(cut, 0.0)),
        "at_cut": lambda: cut,
        "above_cut": lambda: float(np.nextafter(cut, 1.0)),
    }
    w = np.array([fill[s]() if s in fill else -1.0 for s in ["positive"] + slots])
    big = w == -1.0
    weights = rng.exponential(size=int(big.sum()))
    w[big] = weights / math.fsum(weights)
    if defect == "not_psd":
        w[-1] = -(10.0 ** rng.uniform(-9.0, -3.0))
        w[big] *= 1.0 - w[-1]
    elif defect == "not_normalized":
        w *= 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, -1.0)
    return d, rng.permutation(w), haar_unitary(d, rng), defect, rng


class TestLeanConstructor:
    """DensityMatrix matches the reference algorithm above bit for bit:
    spectrum, matrix, basis and rank, and every error path."""

    @given(case=_spectrum_cases())
    @settings(max_examples=300, deadline=None)
    def test_from_eigensystem_matches_reference(self, case):
        d, w, u, defect, _ = case
        if defect in ("asymmetric", "non_hermitian", "non_finite"):
            return  # matrix-only defects
        assert _outcome(lambda: DensityMatrix.from_eigensystem(w, u)) == _outcome(
            lambda: _reference_from_eigensystem(w, u))

    @given(case=_spectrum_cases())
    @settings(max_examples=300, deadline=None)
    def test_from_matrix_matches_reference(self, case):
        d, w, u, defect, rng = case
        m = (u * w) @ u.conj().T
        if defect in ("asymmetric", "non_hermitian"):
            # asymmetry below and above the 1e-10 tolerance
            size = rng.uniform(-14.0, -11.0) if defect == "asymmetric" else rng.uniform(-9.0, -6.0)
            noise = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m = m + 10.0**size * noise
        elif defect == "non_finite":
            i, j = rng.integers(0, d, size=2)
            m[i, j] = rng.choice([complex(math.nan, 0.0), complex(0.0, math.inf), -math.inf])
        expect = _outcome(lambda: _reference_state(m))
        assert _outcome(lambda: DensityMatrix(m)) == expect
        # the operator's own symmetrisation
        ref = _outcome(lambda: _reference_hermitian(m, 1e-10))
        if isinstance(ref[0], type):
            assert _outcome(lambda: HermitianOperator(m)) == ref
        else:
            h = HermitianOperator(m)
            herm, _ = _reference_hermitian(m, 1e-10)
            assert h.matrix.tobytes() == herm.tobytes()

    @pytest.mark.parametrize("defect,error", [
        ("not_psd", NotPSD), ("not_normalized", NotNormalized),
        ("non_hermitian", NonHermitianInput), ("non_finite", NonFiniteInput)])
    def test_each_error_path_is_reached(self, defect, error):
        rng = np.random.Generator(np.random.SFC64(7))
        u = haar_unitary(4, rng)
        w = np.array([0.1, 0.2, 0.3, 0.4])
        if defect == "not_psd":
            w = np.array([-1e-6, 0.2, 0.3, 0.5 + 1e-6])
        elif defect == "not_normalized":
            w = w * 1.01
        m = (u * w) @ u.conj().T
        if defect == "non_hermitian":
            m[0, 1] += 1e-6
        elif defect == "non_finite":
            m[2, 3] = math.nan
        with pytest.raises(error) as got:
            DensityMatrix(m)
        with pytest.raises(error) as expect:
            _reference_state(m)
        assert str(got.value) == str(expect.value)
