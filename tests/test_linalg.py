import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qrelent import linalg
from qrelent.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    DomainViolation,
    NonFiniteInput,
    NonHermitianInput,
)
from qrelent.linalg import (
    HermitianOperator,
    apply_function,
    exact_sum,
    herm_power,
    lapack_eigh,
    psd_gap,
    schatten_norm,
    singular_values,
    zero_threshold,
)
from qrelent.states import DensityMatrix

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_from_eigensystem_rejects_non_finite(self, bad):
        # the matrix built from a NaN eigenvalue is all NaN, and its cached
        # spectrum would keep the NaN
        with pytest.raises(NonFiniteInput):
            HermitianOperator.from_eigensystem([bad, 1.0], np.eye(2))
        basis = np.eye(2, dtype=np.complex128)
        basis[1, 0] = bad
        with pytest.raises(NonFiniteInput):
            HermitianOperator.from_eigensystem([0.5, 1.0], basis)


class TestEigh:
    def test_diagonal_passthrough(self):
        w, u = HermitianOperator(np.diag([0.25, 0.75])).eig()
        np.testing.assert_allclose(w, [0.25, 0.75], atol=0)
        np.testing.assert_allclose(np.abs(u), np.eye(2), atol=1e-14)

    def test_pauli_x_spectrum(self):
        w, _ = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]])).eig()
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_residual(self, rng):
        h = HermitianOperator(random_hermitian(rng, 8))
        w, u = h.eig()
        resid = np.max(np.abs((u * w) @ u.conj().T - h.matrix))
        assert resid <= 1e-12 * max(1.0, np.max(np.abs(w)))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 16])
    def test_lapack_eigh_matches_numpy(self, d):
        # np.linalg.eigh's default lower triangle, with C-ordered eigenvectors
        gen = np.random.Generator(np.random.SFC64(d))
        for _ in range(20):
            h = random_hermitian(gen, d)
            w, u = lapack_eigh(h)
            w_np, u_np = np.linalg.eigh(h)
            assert u.flags.c_contiguous
            scale = max(1.0, float(np.max(np.abs(w_np))))
            np.testing.assert_allclose(w, w_np, rtol=0.0, atol=1e-14 * scale)
            np.testing.assert_allclose(u, u_np, rtol=0.0, atol=1e-14 * d)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 16, 64])
    def test_lapack_eigh_of_a_stack_has_single_call_bits(self, d):
        # checked_eigh decomposes a stack in one call, and DensityMatrix.stack
        # promises each state the bits of its matrix decomposed alone
        gen = np.random.Generator(np.random.SFC64(100 + d))
        stack = np.array([random_hermitian(gen, d) for _ in range(12)])
        w, u = lapack_eigh(stack)
        assert u.flags.c_contiguous
        for k, h in enumerate(stack):
            w_k, u_k = lapack_eigh(h)
            assert np.array_equal(w[k], w_k) and np.array_equal(u[k], u_k)

    def test_lapack_eigh_failure_is_typed(self, monkeypatch):
        # np.linalg.eigh raises LinAlgError for a solve that did not converge
        def no_convergence(a, UPLO="L"):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(ConvergenceFailure):
            HermitianOperator(np.diag([1.0, 2.0])).eig()
        with pytest.raises(ConvergenceFailure):
            DensityMatrix.stack([np.diag([0.25, 0.75]), np.eye(2) / 2.0])

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_quadratic_formula_d2(self, seed):
        h = random_hermitian(np.random.Generator(np.random.SFC64(seed)), 2)
        w, _ = HermitianOperator(h).eig()
        np.testing.assert_allclose(w, _eig2_closed_form(h), atol=1e-12, rtol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_characteristic_cubic_d3(self, seed):
        h = random_hermitian(np.random.Generator(np.random.SFC64(seed)), 3)
        w, _ = HermitianOperator(h).eig()
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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(DomainViolation):
            apply_function(np.eye(2), lambda x: value)

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

    @pytest.mark.parametrize("s, p, norm", [
        ([2e154, 1.0], 2.0, 2e154),
        ([3e200, 4e200], 2.0, 5e200),
        ([1e300, 1e300], 3.0, 2.0 ** (1.0 / 3.0) * 1e300),
        ([1e300, 0.0], 1.5, 1e300),
        ([math.inf, 1e200], 2.0, math.inf),
    ])
    def test_power_past_float_range(self, s, p, norm):
        # each s_i^p, or their sum, overflows though the norm fits, or an
        # infinite singular value makes it +inf; pytest turns a numpy
        # overflow warning into an error
        assert schatten_norm(np.array(s), p) == pytest.approx(norm, rel=1e-15)

    @given(s=hnp.arrays(np.float64, st.integers(0, 12), elements=st.floats(0.0, 1e15)),
           p=st.floats(1.0, 20.0, exclude_min=True))
    @settings(max_examples=200, deadline=None)
    def test_in_range_norm_keeps_its_bits(self, s, p):
        # every s_i^p and their sum fit: the bits of the unscaled sum of
        # numpy powers
        assert schatten_norm(s, p) == math.fsum(si**p for si in s) ** (1.0 / p)

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


def _assert_fsum_bits(x):
    """exact_sum(x) has math.fsum's bits, or raises fsum's exception type,
    and leaves x as it was."""
    before = x.copy()
    try:
        want = math.fsum(x.ravel().tolist())
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            exact_sum(x)
    else:
        assert exact_sum(x).hex() == want.hex()
    np.testing.assert_array_equal(x, before)


_SPECIALS = {
    "none": [],
    "inf": [math.inf],
    "-inf": [-math.inf],
    "nan": [math.nan],
    "inf-inf": [math.inf, -math.inf],
    "overflow": [1e308, 1e308, -1e308],
}


class TestExactSum:
    """exact_sum against math.fsum, bit for bit, on both sides of the size
    at which it starts to fold."""

    @staticmethod
    def _draw(gen, n, kind):
        if kind == "normal":
            return gen.standard_normal(n)
        if kind == "wide":  # magnitudes 1e-300 .. 1e300, both signs
            return gen.choice([-1.0, 1.0], n) * 10.0 ** gen.uniform(-300.0, 300.0, n)
        if kind == "folding_range":  # 1e-300 .. 1e270: folds, then leaves the range
            return gen.standard_normal(n) * 10.0 ** gen.uniform(-300.0, 270.0, n)
        if kind == "cancel":  # pairs x, -x, and one small entry when n is odd
            half = gen.standard_normal(n // 2) * 10.0 ** gen.uniform(-200.0, 200.0, n // 2)
            return np.concatenate([half, -half, gen.standard_normal(n - 2 * (n // 2)) * 1e-30])
        if kind == "subnormal":
            x = gen.integers(-(2**52), 2**52, n) * 5e-324
            x[: min(n, 3)] = [1.0, 2.0**-1000, -1.0][: min(n, 3)]
            return x
        if kind == "signed_zero":
            return gen.choice([-0.0, 0.0], n)
        if kind == "positive":
            return gen.exponential(size=n) * 1e-5
        if kind == "crowded":  # n entries near the max: the fold's headroom at its limit
            x = gen.uniform(0.99, 1.0, n)
            x[::7] = -gen.uniform(0.0, 1e-3, x[::7].size)
            return x
        raise AssertionError(kind)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.one_of(
            st.integers(1, 1100), st.sampled_from([1023, 1024, 1025, 2047, 4095, 4097, 20000])
        ),
        kind=st.sampled_from(
            ["normal", "wide", "folding_range", "cancel", "subnormal", "signed_zero", "positive",
             "crowded"]
        ),
        special=st.sampled_from(sorted(_SPECIALS)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_fsum(self, seed, n, kind, special):
        gen = np.random.Generator(np.random.SFC64(seed))
        x = self._draw(gen, n, kind)
        _assert_fsum_bits(gen.permutation(np.concatenate([x, _SPECIALS[special]])))

    @given(x=hnp.arrays(np.float64, st.integers(0, 1500)))
    @settings(max_examples=100, deadline=None)
    def test_matches_fsum_on_any_floats(self, x):
        _assert_fsum_bits(x)

    @pytest.mark.parametrize("n", [3, 2048])
    def test_intermediate_overflow(self, n):
        x = np.zeros(n)
        x[:3] = [1e308, 1e308, -1e308]
        with pytest.raises(OverflowError):
            exact_sum(x)

    @pytest.mark.parametrize("scale", [2.0**900, 2.0**-900, 2.0**901, 2.0**-901])
    def test_range_edges(self, scale, rng):
        x = rng.uniform(-1.0, 1.0, 3000)
        x[0] = 1.0
        _assert_fsum_bits(x * scale)

    def test_all_zero_and_two_dimensional(self, rng):
        _assert_fsum_bits(np.zeros(5000))
        _assert_fsum_bits(-np.zeros(5000))
        _assert_fsum_bits(rng.standard_normal((256, 256)) * rng.exponential(size=256))

    def test_folds_a_large_sum(self, rng, monkeypatch):
        # 65 536 terms, as in a d = 256 divergence sum: fsum sees only a
        # handful of pass totals and leftover residuals
        x = rng.standard_normal(65536) * rng.exponential(size=65536)
        fsum = math.fsum
        seen = []
        monkeypatch.setattr(linalg.math, "fsum", lambda v: seen.append(len(v)) or fsum(v))
        got = exact_sum(x)
        monkeypatch.undo()
        assert got.hex() == math.fsum(x.tolist()).hex()
        assert seen and max(seen) < 1024 + 8


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


class TestStackedSolvesAreLoneBits:
    """Each stacked solve of a block, over d = 1..8 with several dimensions
    in one stack, gives every matrix the bits it gets alone."""

    @staticmethod
    def _mixed_dims(rng, make):
        return [make(d) for d in (3, 1, 8, 2, 5, 8, 4, 6, 7, 3, 1, 2)]

    def test_operator_construction(self, rng):
        # inputs within the asymmetry budget, so the Hermitian parts move them
        def draw(d):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            return g + g.conj().T + 1e-13 * rng.standard_normal((d, d))

        mats = self._mixed_dims(rng, draw)
        for m, op in zip(mats, HermitianOperator.stack(mats)):
            lone = HermitianOperator(m)
            assert type(op) is HermitianOperator and not op.matrix.flags.writeable
            assert np.array_equal(op.matrix, lone.matrix)
            for got, expect in zip(op._eig, lone.eig()):  # cached when made
                assert np.array_equal(got, expect)

    def test_operator_construction_refuses_what_the_constructor_does(self):
        with pytest.raises(NonHermitianInput):
            HermitianOperator.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
        with pytest.raises(DimensionMismatch):
            HermitianOperator.stack([np.eye(2), np.ones((2, 3))])

    def test_singular_values(self, rng):
        # general, Hermitian and nearly Hermitian matrices take both routes
        def draw(d):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            kind = int(rng.integers(0, 3))
            return g if kind == 0 else np.linalg.matrix_power(g + g.conj().T, 2 * kind + 1)

        mats = self._mixed_dims(rng, draw)
        for m, s in zip(mats, linalg.stackwise(singular_values, mats)):
            assert np.array_equal(s, singular_values(m))
        # a stack of stacks keeps its leading shape
        both = singular_values(np.stack([mats[2], mats[5]])[None])
        assert both.shape == (1, 2, 8) and np.array_equal(both[0, 1], singular_values(mats[5]))

    def test_psd_gap_and_operator_pairs(self, rng):
        def draw(d):
            return HermitianOperator(random_hermitian(rng, d))

        a, b = self._mixed_dims(rng, draw), self._mixed_dims(rng, draw)
        gaps = linalg.stackwise(psd_gap, [x.matrix for x in a], [y.matrix for y in b])
        pairs = linalg.OperatorPair.stack(zip(a, b), (2, 5))
        for x, y, gap, ops in zip(a, b, gaps, pairs):
            assert gap == psd_gap(x, y)
            lone = linalg.OperatorPair(x, y)
            assert np.array_equal(ops.diff_singular_values, lone.diff_singular_values)
            for n in (2, 5):
                assert np.array_equal(ops.power_diff_singular_values(n),
                                      lone.power_diff_singular_values(n))
