import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qrelent import entropy, errors
from qrelent.entropy import (
    POSITIVE_INFINITY,
    ExtendedReal,
    classical_relative_q,
    q_log,
    quantum_relative_q,
    quantum_relative_q_low,
    relative_entropy_vn,
    tsallis_entropy,
)
from qrelent.errors import (
    DimensionMismatch,
    DomainViolation,
    InternalInconsistency,
    QOutOfRange,
)
from qrelent.linalg import schatten_norm
from qrelent.states import (
    DensityMatrix,
    density_from_matrix,
    haar_unitary,
    partial_trace,
    sample_common_support_pair,
    sample_density,
    tensor,
)

RHO_DIAG = np.diag([0.5, 0.5])
SIGMA_DIAG = np.diag([0.75, 0.25])


@pytest.fixture
def fixture_pair():
    return density_from_matrix(RHO_DIAG), density_from_matrix(SIGMA_DIAG)


class TestExtendedReal:
    def test_finite_round_trip(self):
        x = ExtendedReal.finite(0.25)
        assert x.is_finite and float(x) == 0.25

    def test_infinity_value(self):
        assert math.isinf(POSITIVE_INFINITY.as_float())

    def test_nan_rejected(self):
        with pytest.raises(InternalInconsistency):
            ExtendedReal.finite(math.nan)


class TestQLog:
    def test_unit_argument(self):
        for q in (0.5, 2.0, 7.0):
            assert q_log(1.0, q) == 0.0

    def test_q2_closed_form(self):
        assert q_log(3.0, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_limit_matches_natural_log(self):
        assert q_log(math.e, 1.0 + 1e-9) == pytest.approx(1.0, abs=1e-7)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainViolation):
            q_log(0.0, 2.0)

    def test_q1_gate(self):
        with pytest.raises(DomainViolation):
            q_log(2.0, 1.0)
        assert q_log(2.0, 1.0, allow_q1=True) == pytest.approx(math.log(2.0))

    @given(x=st.floats(0.01, 100.0), q=st.floats(1.0001, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_formula(self, x, q):
        assert q_log(x, q) == pytest.approx((x ** (1 - q) - 1) / (1 - q), rel=1e-12)


class TestTsallisEntropy:
    def test_pure_distribution(self):
        assert tsallis_entropy([1.0], 2.0) == 0.0
        assert tsallis_entropy([1.0, 0.0], 2.0) == 0.0

    def test_uniform_two_level(self):
        assert tsallis_entropy([0.5, 0.5], 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_q1_rejected(self):
        with pytest.raises(QOutOfRange):
            tsallis_entropy([0.5, 0.5], 1.0)


class TestClassicalRelative:
    def test_equal_distributions(self):
        out = classical_relative_q([0.3, 0.7], [0.3, 0.7], 2.0)
        assert out.is_finite and out.value == pytest.approx(0.0, abs=1e-15)

    def test_diagonal_fixture(self):
        out = classical_relative_q([0.5, 0.5], [0.75, 0.25], 2.0)
        assert out.value == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_singular_branch(self):
        out = classical_relative_q([0.5, 0.5], [1.0, 0.0], 2.0)
        assert not out.is_finite

    def test_q_gate(self):
        with pytest.raises(QOutOfRange):
            classical_relative_q([1.0], [1.0], 0.5)


class TestQuantumRelative:
    def test_equal_states_vanish(self, rng):
        rho = sample_density(4, 4, rng)
        value = quantum_relative_q(rho, rho, 2.0).as_float()
        assert abs(value) <= 1e-10

    def test_diagonal_fixture(self, fixture_pair):
        rho, sigma = fixture_pair
        assert quantum_relative_q(rho, sigma, 2.0).value == pytest.approx(
            1.0 / 3.0, abs=1e-10
        )

    def test_restricted_trace_fixture(self):
        rho = density_from_matrix(np.diag([0.6, 0.4, 0.0]))
        sigma = density_from_matrix(np.diag([0.5, 0.5, 0.0]))
        # closed form on the common support: 0.72 + 0.32 - 1
        assert quantum_relative_q(rho, sigma, 2.0).value == pytest.approx(
            0.04, abs=1e-10
        )

    def test_singular_branch(self):
        rho = density_from_matrix(np.diag([0.5, 0.5]))
        sigma = density_from_matrix(np.diag([1.0, 0.0]))
        assert not quantum_relative_q(rho, sigma, 2.0).is_finite

    def test_q_gates(self, fixture_pair):
        rho, sigma = fixture_pair
        with pytest.raises(QOutOfRange):
            quantum_relative_q(rho, sigma, 1.0)
        with pytest.raises(QOutOfRange):
            quantum_relative_q(rho, sigma, 41.0)

    def test_q_cap_is_inclusive(self, fixture_pair):
        rho, sigma = fixture_pair
        value = quantum_relative_q(rho, sigma, 40.0)
        assert value.is_finite and value.value > 0.0

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            quantum_relative_q(sample_density(2, 2, rng), sample_density(3, 3, rng), 2.0)

    def test_route_agreement_is_enforced(self, rng, monkeypatch):
        # the operator-route cross-check runs on every call; exercise it on a
        # rank-deficient pair where the restricted trace matters
        rho, sigma = sample_common_support_pair(5, 3, rng)
        value = quantum_relative_q(rho, sigma, 1.7)
        assert value.is_finite
        honest = entropy._operator_route_sum
        monkeypatch.setattr(entropy, "_operator_route_sum",
                            lambda r, s, q: honest(r, s, q) * (1.0 + 1e-6))
        with pytest.raises(InternalInconsistency):
            quantum_relative_q(rho, sigma, 1.7)

    def test_q_max_with_tiny_b0_is_never_finite(self, rng):
        # b0^(1-q) = 1e390 at q = 40, b0 = 1e-10: the true value is past the
        # float range, so the result must be +inf or a typed error
        d = 16
        spectrum = np.full(d, 1e-10)
        spectrum[0] = 1.0 - 1e-10 * (d - 1)
        sigma = DensityMatrix.from_eigensystem(spectrum, np.eye(d))
        rho = sample_density(d, d, rng)
        typed = tuple(v for v in vars(errors).values()
                      if isinstance(v, type) and issubclass(v, Exception))
        try:
            value = quantum_relative_q(rho, sigma, 40.0)
        except typed:
            return
        assert value == POSITIVE_INFINITY

    @given(seed=st.integers(0, 2**32 - 1), q=st.floats(1.01, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_positivity(self, seed, q):
        gen = np.random.Generator(np.random.SFC64(seed))
        d = int(gen.integers(2, 6))
        rho = sample_density(d, d, gen)
        sigma = sample_density(d, d, gen)
        value = quantum_relative_q(rho, sigma, q).as_float()
        assert value >= -1e-10
        if schatten_norm(rho.matrix - sigma.matrix, 1.0) > 1e-4:
            assert value > 1e-10


def _reference_trace_sum(rho, sigma, q):
    """Per-term restricted double sum, the reference for the vectorised one."""
    overlaps = np.abs(rho.eigenvectors.conj().T @ sigma.eigenvectors) ** 2
    a, b = rho.spectrum, sigma.spectrum
    return math.fsum(overlaps[i, j] * a[i] ** q * b[j] ** (1.0 - q)
                     for i in range(a.size) if a[i] > 0.0
                     for j in range(b.size) if b[j] > 0.0)


def _reference_operator_sum(rho, sigma, q):
    """Per-term operator route on the support of sigma."""
    k = sigma.rank
    support = sigma.eigenvectors[:, sigma.dim - k:]
    b = sigma.spectrum[sigma.dim - k:]
    compressed = support.conj().T @ rho.matrix @ support
    lam, w = np.linalg.eigh((compressed + compressed.conj().T) / 2.0)
    lam = np.clip(lam, 0.0, None)
    weights = np.abs(w) ** 2
    return math.fsum(lam[m] ** q * weights[j, m] * b[j] ** (1.0 - q)
                     for m in range(lam.size) if lam[m] > 0.0
                     for j in range(b.size))


def _reference_vn(rho, sigma):
    """Per-term restricted double sum of the standard relative entropy."""
    overlaps = np.abs(rho.eigenvectors.conj().T @ sigma.eigenvectors) ** 2
    a, b = rho.spectrum, sigma.spectrum
    return math.fsum(overlaps[i, j] * a[i] * (math.log(a[i]) - math.log(b[j]))
                     for i in range(a.size) if a[i] > 0.0
                     for j in range(b.size) if b[j] > 0.0)


def _close(got, ref):
    return abs(got - ref) <= 1e-14 * abs(ref)


class TestVectorisedSums:
    """The numpy-term double sums against per-term comprehensions."""

    @staticmethod
    def _pair(seed, d, kind):
        gen = np.random.Generator(np.random.SFC64(seed))
        if kind == "full" or d == 1:
            return sample_density(d, d, gen), sample_density(d, d, gen)
        k = int(gen.integers(1, d))
        if kind == "rank_deficient":
            return sample_density(d, k, gen), sample_density(d, int(gen.integers(1, d)), gen)
        return sample_common_support_pair(d, k, gen, rho_rank=int(gen.integers(1, k + 1)))

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 16),
        kind=st.sampled_from(["full", "rank_deficient", "common_kernel"]),
        q=st.floats(1.0, 40.0, exclude_min=True),
        p=st.floats(0.0, 1.0, exclude_max=True),
    )
    @settings(max_examples=150, deadline=None)
    def test_match_per_term_reference(self, seed, d, kind, q, p):
        rho, sigma = self._pair(seed, d, kind)
        b0 = float(sigma.spectrum[sigma.dim - sigma.rank])
        # keep b0^(1-q) inside the float range; past it both sums overflow
        assume((q - 1.0) * -math.log(b0) < 700.0)
        for order in (q, p):
            got = entropy._restricted_trace_sum(rho, sigma, order)
            assert _close(got, _reference_trace_sum(rho, sigma, order))
        got = entropy._operator_route_sum(rho, sigma, q)
        assert _close(got, _reference_operator_sum(rho, sigma, q))
        d1 = relative_entropy_vn(rho, sigma)
        if d1.is_finite:
            assert _close(d1.value, _reference_vn(rho, sigma))
        else:
            assert kind == "rank_deficient"


class TestLowOrderRelative:
    def test_commuting_half_order(self, fixture_pair):
        rho, sigma = fixture_pair
        expect = 2.0 * (1.0 - (math.sqrt(0.5 * 0.75) + math.sqrt(0.5 * 0.25)))
        assert quantum_relative_q_low(rho, sigma, 0.5) == pytest.approx(expect, abs=1e-12)

    def test_order_zero(self, fixture_pair):
        rho, sigma = fixture_pair
        # full-rank sigma: 1 - tr(P_rho sigma) = 0 for full-rank rho
        assert quantum_relative_q_low(rho, sigma, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_high_order(self, fixture_pair):
        rho, sigma = fixture_pair
        with pytest.raises(QOutOfRange):
            quantum_relative_q_low(rho, sigma, 1.0)


class TestStandardRelativeEntropy:
    def test_equal_states(self, rng):
        rho = sample_density(3, 3, rng)
        assert relative_entropy_vn(rho, rho).value == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_fixture(self, fixture_pair):
        rho, sigma = fixture_pair
        assert relative_entropy_vn(rho, sigma).value == pytest.approx(
            0.5 * math.log(4.0 / 3.0), abs=1e-12
        )

    def test_orthogonal_pure_states(self):
        rho = density_from_matrix(np.diag([1.0, 0.0]))
        sigma = density_from_matrix(np.diag([0.0, 1.0]))
        assert not relative_entropy_vn(rho, sigma).is_finite


class TestStructuralProperties:
    def test_pseudoadditivity_fixture(self, fixture_pair):
        rho, sigma = fixture_pair
        joint = quantum_relative_q(tensor(rho, rho), tensor(sigma, sigma), 2.0).value
        assert joint == pytest.approx(7.0 / 9.0, abs=1e-9)

    def test_pseudoadditivity_random(self, rng):
        for _ in range(10):
            q = 1.0 + rng.uniform(0.05, 1.0)
            r1, s1 = sample_density(2, 2, rng), sample_density(2, 2, rng)
            r2, s2 = sample_density(3, 3, rng), sample_density(3, 3, rng)
            d1 = quantum_relative_q(r1, s1, q).value
            d2 = quantum_relative_q(r2, s2, q).value
            joint = quantum_relative_q(tensor(r1, r2), tensor(s1, s2), q).value
            assert joint == pytest.approx(d1 + d2 + (q - 1.0) * d1 * d2, abs=1e-9)

    def test_joint_convexity(self, rng):
        for _ in range(10):
            q = 1.0 + rng.uniform(0.05, 1.0)
            lam = rng.uniform(0.0, 1.0)
            ra, sa = sample_density(3, 3, rng), sample_density(3, 3, rng)
            rb, sb = sample_density(3, 3, rng), sample_density(3, 3, rng)
            mixed = quantum_relative_q(
                density_from_matrix(lam * ra.matrix + (1 - lam) * rb.matrix),
                density_from_matrix(lam * sa.matrix + (1 - lam) * sb.matrix),
                q,
            ).value
            avg = (lam * quantum_relative_q(ra, sa, q).value
                   + (1 - lam) * quantum_relative_q(rb, sb, q).value)
            assert mixed <= avg + 1e-9

    def test_partial_trace_monotonicity(self, rng):
        for _ in range(10):
            q = 1.0 + rng.uniform(0.05, 1.0)
            rho = sample_density(6, 6, rng)
            sigma = sample_density(6, 6, rng)
            whole = quantum_relative_q(rho, sigma, q).value
            reduced = quantum_relative_q(
                partial_trace(rho, 2, 3, "B"), partial_trace(sigma, 2, 3, "B"), q
            ).value
            assert reduced <= whole + 1e-9

    def test_unitary_invariance(self, rng):
        rho, sigma = sample_density(4, 4, rng), sample_density(4, 4, rng)
        base = quantum_relative_q(rho, sigma, 1.5).value
        u = haar_unitary(4, rng)
        rotated = quantum_relative_q(
            density_from_matrix(u @ rho.matrix @ u.conj().T),
            density_from_matrix(u @ sigma.matrix @ u.conj().T),
            1.5,
        ).value
        assert rotated == pytest.approx(base, abs=1e-9 * (1 + abs(base)))

    def test_classical_reduction(self, rng):
        # commuting states: same Haar basis, spectra paired by basis column
        spec_a = np.array([0.1, 0.3, 0.6])
        spec_b = np.array([0.2, 0.5, 0.3])
        basis = haar_unitary(3, rng)
        rho = DensityMatrix.from_eigensystem(spec_a, basis)
        sigma = DensityMatrix.from_eigensystem(spec_b, basis)
        for q in (1.3, 2.0, 3.5):
            quantum = quantum_relative_q(rho, sigma, q).value
            classical = classical_relative_q(spec_a, spec_b, q).value
            assert quantum == pytest.approx(classical, abs=1e-10)

    def test_q_to_one_consistency(self, rng):
        rho, sigma = sample_density(4, 4, rng), sample_density(4, 4, rng)
        d1 = relative_entropy_vn(rho, sigma).value
        ratios = []
        for k in range(2, 6):
            q = 1.0 + 10.0**-k
            dq = quantum_relative_q(rho, sigma, q).value
            ratios.append(abs(dq - d1) / (q - 1.0))
        bound = 2.0 * ratios[0] + 1e-9
        assert all(r <= bound for r in ratios[1:])
