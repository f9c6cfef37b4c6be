import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrelent.errors import (
    BadFactorization,
    BadSpectrum,
    NonHermitianInput,
    NotNormalized,
    NotPSD,
    ParseError,
)
from qrelent.states import (
    DensityMatrix,
    SpectralSummary,
    density_from_matrix,
    density_with_spectrum,
    haar_unitary,
    kernel_included,
    partial_trace,
    read_state,
    sample_common_support_pair,
    sample_density,
    tensor,
    write_state,
)


class TestDensityFromMatrix:
    def test_maximally_mixed(self):
        rho = density_from_matrix(np.eye(2) / 2.0)
        np.testing.assert_allclose(rho.spectrum, [0.5, 0.5])
        assert rho.rank == 2

    def test_pure_state_support(self):
        rho = density_from_matrix(np.diag([1.0, 0.0]))
        assert rho.rank == 1
        np.testing.assert_allclose(rho.support_projector.matrix, np.diag([1.0, 0.0]),
                                   atol=1e-14)

    def test_trace_violation(self):
        with pytest.raises(NotNormalized):
            density_from_matrix(np.diag([0.6, 0.5]))

    def test_negative_eigenvalue(self):
        with pytest.raises(NotPSD):
            density_from_matrix(np.diag([1.5, -0.5]))

    def test_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            density_from_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_clamps_round_off_negatives(self):
        rho = density_from_matrix(np.diag([1.0 + 1e-12, -1e-12]), tol=1e-10)
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


class TestKernelInclusion:
    def test_full_rank_sigma(self, rng):
        sigma = sample_density(3, 3, rng)
        rho = sample_density(3, 1, rng)
        assert kernel_included(sigma, rho)

    def test_pure_sigma_mixed_rho(self):
        rho = density_from_matrix(np.diag([0.5, 0.5]))
        sigma = density_from_matrix(np.diag([1.0, 0.0]))
        assert not kernel_included(sigma, rho)

    def test_common_kernel(self):
        rho = density_from_matrix(np.diag([0.6, 0.4, 0.0]))
        sigma = density_from_matrix(np.diag([0.5, 0.5, 0.0]))
        assert kernel_included(sigma, rho)

    def test_reflexive(self, rng):
        rho = sample_density(4, 2, rng)
        assert kernel_included(rho, rho)

    def test_rotated_embedded_pair(self, rng):
        rho, sigma = sample_common_support_pair(5, 3, rng, rho_rank=2)
        assert sigma.rank == 3 and rho.rank == 2
        assert kernel_included(sigma, rho)
        assert not kernel_included(rho, sigma)


class TestTensor:
    def test_identity_factor(self, rng):
        rho = sample_density(3, 3, rng)
        unit = density_from_matrix(np.array([[1.0]]))
        np.testing.assert_allclose(tensor(rho, unit).matrix, rho.matrix, atol=1e-14)

    def test_diagonal_products(self):
        a = density_from_matrix(np.diag([0.5, 0.5]))
        b = density_from_matrix(np.diag([0.75, 0.25]))
        out = tensor(a, b)
        np.testing.assert_allclose(np.sort(np.diag(out.matrix).real),
                                   [0.125, 0.125, 0.375, 0.375], atol=1e-14)

    def test_rank_multiplicative(self, rng):
        r1 = sample_density(3, 2, rng)
        r2 = sample_density(4, 3, rng)
        assert tensor(r1, r2).rank == 6


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
        reduced = partial_trace(density_from_matrix(joint), 2, 2, "A")
        np.testing.assert_allclose(reduced.matrix, expected, atol=1e-12)

    def test_bad_factorization(self, rng):
        rho = sample_density(6, 6, rng)
        with pytest.raises(BadFactorization):
            partial_trace(rho, 2, 2, "A")


class TestSpectralSummary:
    def test_fixture_pair(self):
        rho = density_from_matrix(np.diag([0.5, 0.5]))
        sigma = density_from_matrix(np.diag([0.75, 0.25]))
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


def test_mixing_closure(rng):
    rho = sample_density(4, 4, rng)
    other = sample_density(4, 2, rng)
    for lam in (0.0, 0.3, 1.0):
        mix = DensityMatrix(lam * rho.matrix + (1.0 - lam) * other.matrix)
        assert math.fsum(mix.spectrum) == pytest.approx(1.0, abs=1e-12)
