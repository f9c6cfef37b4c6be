import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrelent.errors import DimensionMismatch, DomainViolation, NonFiniteInput, NonHermitianInput
from qrelent.linalg import (
    HermitianOperator,
    apply_function,
    eigh,
    herm_power,
    identity,
    psd_gap,
    schatten_norm,
    singular_values,
    zero_threshold,
)

from conftest import random_hermitian


def _eig2_closed_form(h):
    # quadratic-formula eigenvalues of a 2x2 Hermitian matrix
    a, b, c = h[0, 0].real, h[1, 1].real, h[0, 1]
    mean = (a + b) / 2.0
    disc = math.sqrt(((a - b) / 2.0) ** 2 + abs(c) ** 2)
    return np.array([mean - disc, mean + disc])


def _eig3_closed_form(h):
    # trigonometric solution of the characteristic cubic for 3x3 Hermitian h
    q = np.trace(h).real / 3.0
    shifted = h - q * np.eye(3)
    p2 = float(np.sum(np.abs(shifted) ** 2).real)
    p = math.sqrt(p2 / 6.0)
    if p == 0.0:
        return np.array([q, q, q])
    b = shifted / p
    r = float(np.linalg.det(b).real) / 2.0
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    e1 = q + 2 * p * math.cos(phi)
    e3 = q + 2 * p * math.cos(phi + 2 * math.pi / 3)
    e2 = 3 * q - e1 - e3
    return np.sort(np.array([e1, e2, e3]))


class TestConstructor:
    def test_symmetrizes_and_records_asymmetry(self, rng):
        m = random_hermitian(rng, 4)
        skew = m + 1e-13 * np.array([[0, 1], [0, 0]]).repeat(2, 0).repeat(2, 1)
        h = HermitianOperator(skew)
        assert h.asymmetry > 0.0
        assert np.max(np.abs(h.matrix - h.matrix.conj().T)) == 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            HermitianOperator([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            HermitianOperator(np.zeros((2, 3)))

    def test_rejects_oversized(self):
        with pytest.raises(DimensionMismatch):
            HermitianOperator(np.eye(257))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_entries(self, bad):
        # a NaN compares false against every tolerance, so without an explicit
        # check it would pass the asymmetry gate; inf makes the scale infinite
        for entry in ((0, 0), (0, 1)):
            m = np.eye(2, dtype=np.complex128) / 2.0
            m[entry] = bad
            with pytest.raises(NonFiniteInput):
                HermitianOperator(m)

    def test_matrix_is_readonly(self, rng):
        h = HermitianOperator(random_hermitian(rng, 3))
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 1.0


class TestEigh:
    def test_diagonal_passthrough(self):
        w, u = eigh(np.diag([0.25, 0.75]))
        np.testing.assert_allclose(w, [0.25, 0.75], atol=0)
        np.testing.assert_allclose(np.abs(u), np.eye(2), atol=1e-14)

    def test_pauli_x_spectrum(self):
        w, _ = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_residual(self, rng):
        h = HermitianOperator(random_hermitian(rng, 8))
        w, u = h.eig()
        resid = np.max(np.abs((u * w) @ u.conj().T - h.matrix))
        assert resid <= 1e-12 * max(1.0, np.max(np.abs(w)))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_quadratic_formula_d2(self, seed):
        h = random_hermitian(np.random.Generator(np.random.SFC64(seed)), 2)
        w, _ = eigh(h)
        np.testing.assert_allclose(w, _eig2_closed_form(h), atol=1e-12, rtol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_characteristic_cubic_d3(self, seed):
        h = random_hermitian(np.random.Generator(np.random.SFC64(seed)), 3)
        w, _ = eigh(h)
        np.testing.assert_allclose(w, _eig3_closed_form(h), atol=1e-10, rtol=1e-10)


class TestApplyFunction:
    def test_square(self):
        out = apply_function(np.diag([0.5, 0.5]), lambda x: x**2)
        np.testing.assert_allclose(out.matrix, np.diag([0.25, 0.25]), atol=1e-15)

    def test_reciprocal(self):
        out = apply_function(
            np.diag([0.75, 0.25]), lambda x: 1.0 / x, domain_guard=lambda x: x > 0
        )
        np.testing.assert_allclose(np.sort(np.diag(out.matrix).real), [4.0 / 3.0, 4.0])

    def test_reciprocal_of_singular_rejected(self):
        with pytest.raises(DomainViolation):
            apply_function(np.diag([1.0, 0.0]), lambda x: 1.0 / x, lambda x: x > 0)

    def test_zero_thresholding_before_guard(self):
        # an eigenvalue at round-off scale counts as exactly zero
        h = np.diag([1.0, 1e-17])
        out = apply_function(h, lambda x: 0.0 if x == 0.0 else x**0.5,
                             domain_guard=lambda x: x >= 0.0)
        np.testing.assert_allclose(np.diag(out.matrix).real, [1.0, 0.0], atol=1e-15)

    def test_herm_power_negative_requires_pd(self):
        with pytest.raises(DomainViolation):
            herm_power(np.diag([1.0, 0.0]), -0.5)

    def test_composition_property(self, rng):
        h = HermitianOperator(random_hermitian(rng, 5))
        direct = apply_function(h, lambda x: math.exp(x / 2.0) ** 2)
        stepped = apply_function(apply_function(h, lambda x: math.exp(x / 2.0)),
                                 lambda x: x**2)
        scale = max(1.0, schatten_norm(direct, math.inf))
        assert np.max(np.abs(direct.matrix - stepped.matrix)) <= 1e-10 * scale


class TestSchattenNorm:
    def test_trace_norm_of_signed_diag(self):
        assert schatten_norm(np.diag([0.5, -0.5]), 1) == pytest.approx(1.0, abs=1e-15)

    def test_spectral_norm_of_signed_diag(self):
        assert schatten_norm(np.diag([0.5, -0.5]), math.inf) == pytest.approx(0.5, abs=1e-15)

    def test_frobenius_345(self):
        assert schatten_norm(np.diag([3.0, 4.0]), 2) == pytest.approx(5.0, abs=1e-12)

    def test_rejects_p_below_one(self):
        with pytest.raises(DomainViolation):
            schatten_norm(np.eye(2), 0.5)

    def test_non_hermitian_route(self):
        m = np.array([[0.0, 2.0], [0.0, 0.0]])
        np.testing.assert_allclose(singular_values(m), [2.0, 0.0], atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_holder_and_monotonicity(self, seed, d):
        gen = np.random.Generator(np.random.SFC64(seed))
        x = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        y = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        z = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        for p in (1.0, 2.0, math.inf):
            rhs = schatten_norm(x, math.inf) * schatten_norm(y, p) * schatten_norm(z, math.inf)
            assert schatten_norm(x @ y @ z, p) <= rhs + 1e-10 * max(1.0, rhs)
            sub = schatten_norm(x, p) * schatten_norm(y, p)
            assert schatten_norm(x @ y, p) <= sub + 1e-10 * max(1.0, sub)
        tr_rhs = (schatten_norm(x, math.inf) * schatten_norm(z, math.inf)
                  * schatten_norm(y, 1.0))
        assert abs(np.trace(x @ y @ z)) <= tr_rhs + 1e-10 * max(1.0, tr_rhs)
        assert schatten_norm(x, 2.0) <= schatten_norm(x, 1.0) + 1e-12
        assert schatten_norm(x, math.inf) <= schatten_norm(x, 2.0) + 1e-12

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_traceless_spectral_vs_trace_norm(self, seed, d):
        gen = np.random.Generator(np.random.SFC64(seed))
        h = random_hermitian(gen, d)
        delta = h - (np.trace(h).real / d) * np.eye(d)
        assert schatten_norm(delta, math.inf) <= 0.5 * schatten_norm(delta, 1.0) + 1e-12


class TestPsdGap:
    def test_zero_vs_diag(self):
        assert psd_gap(np.zeros((2, 2)), np.diag([1.0, 2.0])) == pytest.approx(1.0)

    def test_equal_operands(self, rng):
        h = random_hermitian(rng, 3)
        assert psd_gap(h, h) == pytest.approx(0.0, abs=1e-14)

    def test_crossing_diagonals(self):
        assert psd_gap(np.diag([0.0, 2.0]), np.diag([1.0, 1.0])) == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            psd_gap(np.eye(2), np.eye(3))


def test_zero_threshold_scales_with_dimension():
    w = np.array([1.0, 1e-17, -1e-17])
    cut = zero_threshold(w)
    assert 0.0 < cut < 1e-12
    assert abs(w[1]) <= cut


def test_identity_helper():
    ident = identity(3)
    np.testing.assert_allclose(ident.matrix, np.eye(3))
    np.testing.assert_allclose(ident.eigenvalues(), [1.0, 1.0, 1.0])
