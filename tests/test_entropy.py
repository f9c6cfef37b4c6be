import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qrelent import entropy
from qrelent.entropy import (
    classical_relative_q,
    q_log,
    quantum_relative_q,
    quantum_relative_q_low,
    relative_entropy_vn,
)
from qrelent.errors import (
    BadSpectrum,
    DimensionMismatch,
    DomainViolation,
    InternalInconsistency,
    QOutOfRange,
)
from qrelent.harness import sigma_family
from qrelent.linalg import exact_sum, schatten_norm
from qrelent.states import (
    DensityMatrix,
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
    return DensityMatrix(RHO_DIAG), DensityMatrix(SIGMA_DIAG)


class TestPlainFloats:
    """Every divergence is a float, math.inf where it is +inf, never NaN."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 6),
        kind=st.sampled_from(["full", "common_kernel", "kernel_excluded"]),
        q=st.floats(1.0, 40.0, exclude_min=True),
        p=st.floats(0.0, 1.0, exclude_max=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_divergences_are_floats(self, seed, d, kind, q, p):
        gen = np.random.Generator(np.random.SFC64(seed))
        k = int(gen.integers(1, d))
        if kind == "full":
            rho, sigma = sample_density(d, d, gen), sample_density(d, d, gen)
        elif kind == "common_kernel":
            rho, sigma = sample_common_support_pair(d, k, gen, rho_rank=int(gen.integers(1, k + 1)))
        else:  # a full-rank rho has weight on every kernel vector of sigma
            rho, sigma = sample_density(d, d, gen), sample_density(d, k, gen)
        pair = entropy.PairEval(rho, sigma)
        dq = quantum_relative_q(rho, sigma, q, pair)
        d1 = relative_entropy_vn(rho, sigma, pair)
        dp = quantum_relative_q_low(rho, sigma, p, pair)
        for x in (dq, d1, dp):
            assert type(x) is float and not math.isnan(x)
        if kind == "kernel_excluded":
            assert dq == d1 == math.inf
        else:
            assert math.isfinite(d1)


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

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("x", [0.5, 2.0])
    def test_nonfinite_q_rejected(self, x, q):
        # the formula gives NaN at q = NaN and at q = inf
        with pytest.raises(DomainViolation):
            q_log(x, q)

    @given(x=st.floats(0.01, 100.0), q=st.floats(1.0001, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_formula(self, x, q):
        assert q_log(x, q) == pytest.approx((x ** (1 - q) - 1) / (1 - q), rel=1e-12)


class TestTsallisEntropy:
    def test_nan_probability_rejected(self):
        # a NaN entry is neither negative nor counted in p > 0
        with pytest.raises(BadSpectrum):
            classical_relative_q([0.5, 0.5], [math.nan, 1.0], 2.0)


class TestClassicalRelative:
    def test_equal_distributions(self):
        out = classical_relative_q([0.3, 0.7], [0.3, 0.7], 2.0)
        assert out == pytest.approx(0.0, abs=1e-15)

    def test_diagonal_fixture(self):
        out = classical_relative_q([0.5, 0.5], [0.75, 0.25], 2.0)
        assert out == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_singular_branch(self):
        out = classical_relative_q([0.5, 0.5], [1.0, 0.0], 2.0)
        assert out == math.inf

    def test_q_gate(self):
        with pytest.raises(QOutOfRange):
            classical_relative_q([1.0], [1.0], 0.5)

    @pytest.mark.parametrize("q", [1.0 + 1e-9, 3.0, 40.0])
    def test_zero_probabilities_give_no_nan(self, q):
        a = (0.6, 0.4, 0.0)
        shared = classical_relative_q(a, (0.5, 0.5, 0.0), q)  # b = 0 only where a = 0
        excluded = classical_relative_q(a, (0.5, 0.0, 0.5), q)  # b = 0 where a > 0
        for out in (shared, excluded):
            assert type(out) is float and not math.isnan(out)
        assert math.isfinite(shared) and excluded == math.inf

    @pytest.mark.parametrize("q", [math.inf, 1e6, 40.5, math.nan])
    def test_orders_past_q_max_rejected(self, q):
        # the gate of the quantum D_q: an order past Q_MAX is out of range,
        # not an overflow or a NaN sum
        with pytest.raises(QOutOfRange):
            classical_relative_q([0.5, 0.5], [0.25, 0.75], q)


#: a classical pair whose D_q lost up to 4e-7 relative to the
#: 1 - s cancellation at q = 1 + 1e-9
_A, _B = (0.7, 0.2, 0.1), (0.5, 0.3, 0.2)
_NEAR_ONE_ORDERS = (1.0 + 1e-9, 1.0 + 1e-7, 2.0, 7.0)


def _mp_support_sum(a, b, q):
    """(sum a^q b^(1-q) - sum a)/(q - 1) over a > 0 at 40 digits, from the
    float inputs as given: the support form classical_relative_q uses,
    equal to (1 - sum a^q b^(1-q))/(1 - q) when sum a = 1 exactly."""
    with mpmath.workdps(40):
        q = mpmath.mpf(q)
        pairs = [(mpmath.mpf(x), mpmath.mpf(y)) for x, y in zip(a, b) if x > 0.0]
        return (mpmath.fsum(x**q * y ** (1 - q) for x, y in pairs)
                - mpmath.fsum(x for x, _ in pairs)) / (q - 1)


class TestClassicalNearOrderOne:
    """The classical D_q against 40-digit mpmath, without the 1 - s
    cancellation as q -> 1."""

    @pytest.mark.parametrize("q", _NEAR_ONE_ORDERS)
    def test_classical_relative_q(self, q):
        expect = _mp_support_sum(_A, _B, q)
        got = classical_relative_q(_A, _B, q)
        assert abs(got - expect) <= 1e-14 * abs(expect)


class TestQuantumRelative:
    def test_equal_states_vanish(self, rng):
        rho = sample_density(4, 4, rng)
        value = quantum_relative_q(rho, rho, 2.0)
        assert abs(value) <= 1e-10

    def test_diagonal_fixture(self, fixture_pair):
        rho, sigma = fixture_pair
        assert quantum_relative_q(rho, sigma, 2.0) == pytest.approx(
            1.0 / 3.0, abs=1e-10
        )

    def test_restricted_trace_fixture(self):
        rho = DensityMatrix(np.diag([0.6, 0.4, 0.0]))
        sigma = DensityMatrix(np.diag([0.5, 0.5, 0.0]))
        # closed form on the common support: 0.72 + 0.32 - 1
        assert quantum_relative_q(rho, sigma, 2.0) == pytest.approx(
            0.04, abs=1e-10
        )

    def test_singular_branch(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        sigma = DensityMatrix(np.diag([1.0, 0.0]))
        assert quantum_relative_q(rho, sigma, 2.0) == math.inf

    def test_q_gates(self, fixture_pair):
        rho, sigma = fixture_pair
        with pytest.raises(QOutOfRange):
            quantum_relative_q(rho, sigma, 1.0)
        with pytest.raises(QOutOfRange):
            quantum_relative_q(rho, sigma, 41.0)

    def test_q_cap_is_inclusive(self, fixture_pair):
        rho, sigma = fixture_pair
        value = quantum_relative_q(rho, sigma, 40.0)
        assert 0.0 < value < math.inf

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            quantum_relative_q(sample_density(2, 2, rng), sample_density(3, 3, rng), 2.0)

    def test_route_agreement_is_enforced(self, rng):
        # the operator-route cross-check runs on every call; exercise it on a
        # rank-deficient pair where the restricted trace matters
        rho, sigma = sample_common_support_pair(5, 3, rng)
        assert math.isfinite(quantum_relative_q(rho, sigma, 1.7))
        pair = entropy.PairEval(rho, sigma)
        weights, lam, log_lam = pair.compressed
        pair.compressed = (weights * (1.0 + 1e-6), lam, log_lam)
        with pytest.raises(InternalInconsistency):
            quantum_relative_q(rho, sigma, 1.7, pair)

    def test_q_max_with_tiny_b0_is_never_finite(self, rng):
        # b0^(1-q) = 1e390 at q = 40, b0 = 1e-10: the true value is past the
        # float range, so the result is +inf
        d = 16
        spectrum = np.full(d, 1e-10)
        spectrum[0] = 1.0 - 1e-10 * (d - 1)
        sigma = DensityMatrix.from_eigensystem(spectrum, np.eye(d))
        rho = sample_density(d, d, rng)
        assert quantum_relative_q(rho, sigma, 40.0) == math.inf

    @pytest.mark.parametrize("route", ["overlap", "compressed"])
    def test_one_infinite_route_is_a_disagreement(self, route, rng, monkeypatch):
        rho, sigma = sample_common_support_pair(4, 3, rng)
        pair = entropy.PairEval(rho, sigma)
        honest = entropy._divergence_sum
        # one route alone passes the float range, or turns NaN; either way
        # the call raises and no +inf or NaN leaves it
        for bad in (math.inf, math.nan):
            def broken(w, a, log_a, log_b, r):
                return bad if w is getattr(pair, route)[0] else honest(w, a, log_a, log_b, r)

            monkeypatch.setattr(entropy, "_divergence_sum", broken)
            with pytest.raises(InternalInconsistency):
                quantum_relative_q(rho, sigma, 3.0, pair)

    def test_zero_weight_column_does_not_overflow(self):
        # rho puts exactly no weight on sigma's b = 1e-10 eigenvector, so its
        # b^(1-q) = 1e390 at q = 40 must not enter the sum
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        sigma = DensityMatrix(np.diag([0.9999999999, 1e-10]))
        value = quantum_relative_q(rho, sigma, 40.0)
        with mpmath.workdps(40):
            b = mpmath.mpf(float(sigma.spectrum[-1]))
            ref = float((b**-39 - 1) / 39)  # 1.00000008474037133e-10
        assert abs(ref - 1.00000008474037133e-10) <= 1e-16 * ref
        assert abs(value - ref) <= 1e-14 * ref

    def test_weighted_overflow_is_infinite(self):
        # 0.5^40 * 1e390 / 39 is past the float range on both routes
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        sigma = DensityMatrix(np.diag([0.9999999999, 1e-10]))
        assert quantum_relative_q(rho, sigma, 40.0) == math.inf

    @given(seed=st.integers(0, 2**32 - 1), q=st.floats(1.01, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_positivity(self, seed, q):
        gen = np.random.Generator(np.random.SFC64(seed))
        d = int(gen.integers(2, 6))
        rho = sample_density(d, d, gen)
        sigma = sample_density(d, d, gen)
        value = quantum_relative_q(rho, sigma, q)
        assert value >= -1e-10
        if schatten_norm(rho.matrix - sigma.matrix, 1.0) > 1e-4:
            assert value > 1e-10


#: sigma of the float-range pairs: b0 = 1e-10, so b0^(1-q) alone passes the
#: float range from q = 31.8 on
_RANGE_SIGMA = (0.9999999999, 1e-10)
#: (rho's spectrum, q, D_q): closed form (sum a^q b^(1-q) - 1)/(q - 1) at
#: 40 digits on the float64 spectra; inf where it is past the float range
_FLOAT_RANGE = [
    ((0.5, 0.5), 31.0, 1.5522042910257959e289),
    ((0.5, 0.5), 32.0, 7.5106659243183666e298),
    ((0.5, 0.5), 33.0, math.inf),  # 3.64e308
    ((0.5, 0.5), 40.0, math.inf),
    ((1.0 - 1e-5, 1e-5), 34.0, 3.030303030303035e158),
    ((1.0 - 1e-5, 1e-5), 40.0, 2.5641025641025687e188),
]


def _closed_form(a, b, q):
    with mpmath.workdps(40):
        s = mpmath.fsum(mpmath.mpf(x) ** q * mpmath.mpf(y) ** (1 - q) for x, y in zip(a, b))
        return float((s - 1) / (q - 1))


class TestFloatRange:
    """A D_q that fits in float64 is finite, and one past it is +inf, quantum
    and classical, though b0^(1-q) alone overflows in each of these pairs."""

    @pytest.mark.parametrize("a, q, expect", _FLOAT_RANGE)
    def test_quantum_matches_closed_form(self, a, q, expect):
        rho, sigma = DensityMatrix(np.diag(a)), DensityMatrix(np.diag(_RANGE_SIGMA))
        assert _closed_form(rho.spectrum[::-1], sigma.spectrum[::-1], q) == expect
        value = quantum_relative_q(rho, sigma, q)
        if math.isinf(expect):
            assert value == math.inf
        else:
            assert abs(value - expect) <= 1e-12 * expect

    @pytest.mark.parametrize("a, q, expect", _FLOAT_RANGE)
    def test_classical_matches_closed_form(self, a, q, expect):
        value = classical_relative_q(a, _RANGE_SIGMA, q)
        if math.isinf(expect):
            assert value == math.inf
        else:
            assert abs(value - expect) <= 1e-12 * expect


def _reference_divergence_sum(w, a, b, r):
    """Per-term divergence sum over a > 0 (rows of w) and b > 0 (columns):
    sum of w (a expm1((r-1) ln a) + a^r expm1((1-r) ln b)) / (r - 1), and
    at r = 1 sum of w a (ln a - ln b)."""
    a, b = a.tolist(), b.tolist()
    if r == 1.0:
        return math.fsum(w[i, j] * a[i] * (math.log(a[i]) - math.log(b[j]))
                         for i in range(len(a)) if a[i] > 0.0
                         for j in range(len(b)) if b[j] > 0.0)
    return math.fsum(
        w[i, j] * (a[i] * math.expm1((r - 1.0) * math.log(a[i]))
                   + a[i] ** r * math.expm1((1.0 - r) * math.log(b[j])))
        for i in range(len(a)) if a[i] > 0.0
        for j in range(len(b)) if b[j] > 0.0
    ) / (r - 1.0)


def _reference_trace_sum(rho, sigma, r):
    """The double-sum route's divergence sum, per term."""
    overlaps = np.abs(rho.eigenvectors.conj().T @ sigma.eigenvectors) ** 2
    return _reference_divergence_sum(overlaps, rho.spectrum, sigma.spectrum, r)


def _reference_operator_sum(rho, sigma, r):
    """The operator route's divergence sum on the support of sigma, per term."""
    k = sigma.rank
    support = sigma.eigenvectors[:, sigma.dim - k:]
    compressed = support.conj().T @ rho.matrix @ support
    lam, w = np.linalg.eigh((compressed + compressed.conj().T) / 2.0)
    b = sigma.spectrum[sigma.dim - k:]
    return _reference_divergence_sum(np.abs(w.T) ** 2, lam, b, r)


def _close(got, ref):
    return abs(got - ref) <= 1e-14 * abs(ref)


class TestVectorisedSums:
    """The numpy-term divergence sums against per-term comprehensions."""

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
        # keep b0^(1-q) inside the float range; past it the sums overflow
        assume((q - 1.0) * -math.log(b0) < 700.0)
        pair = entropy.PairEval(rho, sigma)
        for order in (q, p):
            got = entropy._divergence_sum(*pair.overlap, pair.log_b, order)
            assert _close(got, _reference_trace_sum(rho, sigma, order))
        got = entropy._divergence_sum(*pair.compressed, pair.log_b, q)
        assert _close(got, _reference_operator_sum(rho, sigma, q))
        d1 = relative_entropy_vn(rho, sigma)
        if math.isfinite(d1):
            assert _close(d1, _reference_trace_sum(rho, sigma, 1.0))
        else:
            assert kind == "rank_deficient"


class TestFoldedDivergenceSums:
    """At d = 64 and 256 a divergence sum has 4096 or 65 536 terms, enough for
    exact_sum to fold them: every sum keeps math.fsum's bits and matches the
    per-term reference."""

    @pytest.mark.parametrize("d", [64, 256])
    @pytest.mark.parametrize("sigma_kind", ["random", "family"])
    def test_fsum_bits_and_per_term_reference(self, d, sigma_kind, monkeypatch):
        gen = np.random.Generator(np.random.SFC64(d))
        rho = sample_density(d, d, gen)
        sigma = sample_density(d, d, gen) if sigma_kind == "random" else sigma_family(d, 1e-3)
        pair = entropy.PairEval(rho, sigma)
        sums = []

        def recorded(terms):
            sums.append((terms.size, exact_sum(terms), math.fsum(terms.ravel().tolist())))
            return sums[-1][1]

        monkeypatch.setattr(entropy, "exact_sum", recorded)
        for r in (1.5, 2.0, 1.0):
            got = entropy._divergence_sum(*pair.overlap, pair.log_b, r)
            assert _close(got, _reference_trace_sum(rho, sigma, r))
            got = entropy._divergence_sum(*pair.compressed, pair.log_b, r)
            assert _close(got, _reference_operator_sum(rho, sigma, r))
        assert [size for size, _, _ in sums] == [d * d] * 6
        for _, got, want in sums:
            assert got.hex() == want.hex()


def _mp_divergence(w, a, b, q):
    """40-digit sum of w a expm1((q-1)(ln a - ln b))/(q-1) over a, b > 0."""
    with mpmath.workdps(40):
        q = mpmath.mpf(q)
        return mpmath.fsum(
            mpmath.mpf(w[i, j]) * mpmath.mpf(a[i])
            * mpmath.expm1((q - 1) * (mpmath.log(a[i]) - mpmath.log(b[j])))
            for i in range(a.size) if a[i] > 0.0
            for j in range(b.size) if b[j] > 0.0
        ) / (q - 1)


class TestNearOrderOne:
    """D_q against 40-digit references, down to q = 1 + 1e-9."""

    @staticmethod
    def _mp_restricted(rho, sigma, q):
        """(tr rho^q sigma^(1-q) - tr rho)/(q - 1) in 40 digits, on both
        matrices compressed to the support of sigma; the compressions'
        eigenvalues are clipped at 0 in every power, the first one too."""
        with mpmath.workdps(40):
            support = mpmath.matrix(sigma.eigenvectors[:, sigma.dim - sigma.rank:].tolist())
            r, s = (support.H * mpmath.matrix(m.matrix.tolist()) * support for m in (rho, sigma))

            def power(m, e):
                lam, u = mpmath.eighe(m)
                return u * mpmath.diag([max(x, 0) ** e for x in lam]) * u.H

            q = mpmath.mpf(q)
            product = power(r, q) * power(s, 1 - q)
            traces = (mpmath.fsum(m[i, i] for i in range(sigma.rank)).real
                      for m in (product, power(r, 1)))
            return (next(traces) - next(traces)) / (q - 1)

    @pytest.mark.parametrize("q", [1.0 + 1e-6, 1.0 + 1e-9, 2.0])
    def test_common_support_pair_pin(self, q):
        # rank-1 rho inside sigma's rank-2 support, where tr rho - 1 = 5e-16:
        # (1 - s)/(1 - q) would be off by 5e-7 at q = 1 + 1e-9
        rho, sigma = sample_common_support_pair(3, 2, np.random.Generator(np.random.SFC64(27)),
                                                rho_rank=1)
        value = quantum_relative_q(rho, sigma, q)
        assert abs(value - self._mp_restricted(rho, sigma, q)) <= 1e-14 * value
        if q == 1.0 + 1e-6:
            assert value == pytest.approx(0.13774219772437517718, rel=1e-14)

    @given(
        seed=st.integers(0, 2**32 - 1),
        common_kernel=st.booleans(),
        q=st.floats(1.0, 40.0, exclude_min=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_mpmath_per_term(self, seed, common_kernel, q):
        gen = np.random.Generator(np.random.SFC64(seed))
        d = int(gen.integers(2, 9))
        if common_kernel:
            k = int(gen.integers(1, d))
            rho, sigma = sample_common_support_pair(d, k, gen, rho_rank=int(gen.integers(1, k + 1)))
        else:
            rho, sigma = sample_density(d, d, gen), sample_density(d, d, gen)
        pair = entropy.PairEval(rho, sigma)
        b = sigma.spectrum[sigma.dim - sigma.rank:]
        assume((q - 1.0) * -math.log(float(b[0])) < 700.0)
        w, a, _ = pair.overlap
        value = quantum_relative_q(rho, sigma, q, pair)
        assert abs(value - _mp_divergence(w, a, b, q)) <= 1e-13 * abs(value)


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
        assert relative_entropy_vn(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_fixture(self, fixture_pair):
        rho, sigma = fixture_pair
        assert relative_entropy_vn(rho, sigma) == pytest.approx(
            0.5 * math.log(4.0 / 3.0), abs=1e-12
        )

    def test_orthogonal_pure_states(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        sigma = DensityMatrix(np.diag([0.0, 1.0]))
        assert relative_entropy_vn(rho, sigma) == math.inf


class TestStructuralProperties:
    def test_pseudoadditivity_fixture(self, fixture_pair):
        rho, sigma = fixture_pair
        joint = quantum_relative_q(tensor(rho, rho), tensor(sigma, sigma), 2.0)
        assert joint == pytest.approx(7.0 / 9.0, abs=1e-9)

    def test_pseudoadditivity_random(self, rng):
        for _ in range(10):
            q = 1.0 + rng.uniform(0.05, 1.0)
            r1, s1 = sample_density(2, 2, rng), sample_density(2, 2, rng)
            r2, s2 = sample_density(3, 3, rng), sample_density(3, 3, rng)
            d1 = quantum_relative_q(r1, s1, q)
            d2 = quantum_relative_q(r2, s2, q)
            joint = quantum_relative_q(tensor(r1, r2), tensor(s1, s2), q)
            assert joint == pytest.approx(d1 + d2 + (q - 1.0) * d1 * d2, abs=1e-9)

    def test_joint_convexity(self, rng):
        for _ in range(10):
            q = 1.0 + rng.uniform(0.05, 1.0)
            lam = rng.uniform(0.0, 1.0)
            ra, sa = sample_density(3, 3, rng), sample_density(3, 3, rng)
            rb, sb = sample_density(3, 3, rng), sample_density(3, 3, rng)
            mixed = quantum_relative_q(
                DensityMatrix(lam * ra.matrix + (1 - lam) * rb.matrix),
                DensityMatrix(lam * sa.matrix + (1 - lam) * sb.matrix),
                q,
            )
            avg = (lam * quantum_relative_q(ra, sa, q)
                   + (1 - lam) * quantum_relative_q(rb, sb, q))
            assert mixed <= avg + 1e-9

    def test_partial_trace_monotonicity(self, rng):
        for _ in range(10):
            q = 1.0 + rng.uniform(0.05, 1.0)
            rho = sample_density(6, 6, rng)
            sigma = sample_density(6, 6, rng)
            whole = quantum_relative_q(rho, sigma, q)
            reduced = quantum_relative_q(
                partial_trace(rho, 2, 3, "B"), partial_trace(sigma, 2, 3, "B"), q
            )
            assert reduced <= whole + 1e-9

    def test_unitary_invariance(self, rng):
        rho, sigma = sample_density(4, 4, rng), sample_density(4, 4, rng)
        base = quantum_relative_q(rho, sigma, 1.5)
        u = haar_unitary(4, rng)
        rotated = quantum_relative_q(
            DensityMatrix(u @ rho.matrix @ u.conj().T),
            DensityMatrix(u @ sigma.matrix @ u.conj().T),
            1.5,
        )
        assert rotated == pytest.approx(base, abs=1e-9 * (1 + abs(base)))

    def test_classical_reduction(self, rng):
        # commuting states: same Haar basis, spectra paired by basis column
        spec_a = np.array([0.1, 0.3, 0.6])
        spec_b = np.array([0.2, 0.5, 0.3])
        basis = haar_unitary(3, rng)
        rho = DensityMatrix.from_eigensystem(spec_a, basis)
        sigma = DensityMatrix.from_eigensystem(spec_b, basis)
        for q in (1.3, 2.0, 3.5):
            quantum = quantum_relative_q(rho, sigma, q)
            classical = classical_relative_q(spec_a, spec_b, q)
            assert quantum == pytest.approx(classical, abs=1e-10)

    def test_q_to_one_consistency(self, rng):
        rho, sigma = sample_density(4, 4, rng), sample_density(4, 4, rng)
        d1 = relative_entropy_vn(rho, sigma)
        ratios = []
        for k in range(2, 10):
            q = 1.0 + 10.0**-k
            dq = quantum_relative_q(rho, sigma, q)
            ratios.append(abs(dq - d1) / (q - 1.0))
        bound = 2.0 * ratios[0] + 1e-9
        assert all(r <= bound for r in ratios[1:])
