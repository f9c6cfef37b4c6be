import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrelent.bounds import (
    BOUNDS,
    OperatorPair,
    PairEval,
    ceiling_factor,
    frechet_check,
    lemma3_bound,
    lower_bounds,
    power_diff_bound,
    thm1_bounds,
    thm2_bound,
    thm3_bound,
)
from qrelent.entropy import Q_MAX, quantum_relative_q
from qrelent.errors import (
    DimensionMismatch,
    DomainViolation,
    InternalInconsistency,
    PreconditionFailed,
)
from qrelent.linalg import HermitianOperator, schatten_norm
from qrelent.states import (
    DensityMatrix,
    sample_common_support_pair,
    sample_density,
)

from conftest import random_hermitian, random_pd

RHO = np.diag([0.5, 0.5])
SIGMA = np.diag([0.75, 0.25])


@pytest.fixture
def pair():
    return DensityMatrix(RHO), DensityMatrix(SIGMA)


class TestPairEval:
    def test_values_are_computed_once(self, pair):
        ctx = PairEval(*pair)
        assert ctx.dq(2.0) is ctx.dq(2) and ctx.d1 is ctx.d1
        assert ctx.distances is ctx.distances and ctx.summary is ctx.summary
        assert ctx.distances == {"trace_norm": pytest.approx(0.5),
                                 "spectral_norm": pytest.approx(0.25)}

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            PairEval(sample_density(2, 2, rng), sample_density(3, 3, rng))

    def test_is_the_operator_pair_of_the_states(self, pair):
        ctx = PairEval(*pair)
        assert isinstance(ctx, OperatorPair)  # the class bounds re-exports from linalg
        assert ctx.a is ctx.rho is pair[0] and ctx.b is ctx.sigma is pair[1]
        # the distances and the dimension check are OperatorPair's own
        assert "distances" not in vars(PairEval)


#: the largest order any row accepts, and the first order past it
_Q_EDGES = [Q_MAX, math.nextafter(Q_MAX, math.inf)]


class TestRegistry:
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0] + _Q_EDGES)
    def test_gates_and_report_names(self, pair, q):
        ctx = PairEval(*pair)
        for spec in BOUNDS:
            if spec.applies(q):
                reports = spec.evaluate(ctx, q)
                assert tuple(rep.name for rep in reports) == spec.columns
                assert all(rep.holds for rep in reports)
            else:
                with pytest.raises(PreconditionFailed):
                    spec.evaluate(ctx, q)

    def test_no_row_applies_past_q_max(self):
        # a row offers only the orders D_q accepts
        assert [spec.name for spec in BOUNDS if spec.applies(_Q_EDGES[1])] == []
        assert [spec.name for spec in BOUNDS if spec.applies(Q_MAX)] == ["thm3"]


class TestThm1:
    def test_equal_states(self, rng):
        rho = sample_density(3, 3, rng)
        for rep in thm1_bounds(PairEval(rho, rho), 1.5):
            assert rep.rhs == pytest.approx(0.0, abs=1e-12)
            assert abs(rep.lhs) <= 1e-10
            assert rep.holds and not rep.vacuous

    def test_diagonal_fixture_triple(self, pair):
        rho, sigma = pair
        reports = thm1_bounds(PairEval(rho, sigma), 2.0)
        # a1^(q-1)/lambda0^q = 0.5/0.0625 = 8, distances (0.25, 0.5)
        assert reports[0].rhs == pytest.approx(2.0, abs=1e-12)
        assert reports[1].rhs == pytest.approx(2.0, abs=1e-12)
        assert reports[2].rhs == pytest.approx(2.0, abs=1e-12)
        for rep in reports:
            assert rep.lhs == pytest.approx(1.0 / 3.0, abs=1e-10)
            assert rep.holds

    def test_vacuous_on_rank_deficiency(self, rng):
        rho = sample_density(3, 2, rng)
        sigma = sample_density(3, 3, rng)
        for rep in thm1_bounds(PairEval(rho, sigma), 2.0):
            assert rep.vacuous and rep.holds and math.isinf(rep.rhs)

    def test_q_gate(self, pair):
        rho, sigma = pair
        with pytest.raises(PreconditionFailed):
            thm1_bounds(PairEval(rho, sigma), 2.5)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_soundness_and_report_ordering(self, seed):
        gen = np.random.Generator(np.random.SFC64(seed))
        d = int(gen.integers(2, 7))
        rho, sigma = sample_density(d, d, gen), sample_density(d, d, gen)
        q = 1.0 + float(gen.uniform(1e-3, 1.0))
        r1, r2, r3 = thm1_bounds(PairEval(rho, sigma), q)
        assert r1.holds and r2.holds and r3.holds
        assert r1.rhs <= r2.rhs * (1.0 + 1e-12)


class TestThm2:
    def test_equal_states(self, rng):
        rho = sample_density(3, 3, rng)
        rep = thm2_bound(PairEval(rho, rho), 2.0)
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_diagonal_fixture(self, pair):
        rho, sigma = pair
        rep = thm2_bound(PairEval(rho, sigma), 2.0)
        # prefactor (2/3)/(2/3) = 1; terms 1.0 + 1.0
        assert rep.rhs == pytest.approx(2.0, abs=1e-12)
        assert rep.lhs == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert rep.holds

    def test_traceless_variant_fixture(self, pair):
        rho, sigma = pair
        rep = thm2_bound(PairEval(rho, sigma), 2.0, "traceless")
        # second term becomes (0.5/0.125)*0.25 = 1.0 as well
        assert rep.rhs == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_sigma_prefactor(self, rng):
        rho = sample_density(3, 3, rng)
        sigma = DensityMatrix(np.eye(3) / 3.0)
        ctx = PairEval(rho, sigma)
        rep = thm2_bound(ctx, 1.7)
        # b1 = b0: the prefactor takes its limit value 1
        a1, b0 = ctx.summary["a1"], ctx.summary["b0"]
        tr, sp = ctx.distances["trace_norm"], ctx.distances["spectral_norm"]
        expect = a1**0.7 / b0**0.7 * tr + a1**0.7 / b0**1.7 * sp * tr
        assert rep.rhs == pytest.approx(expect, rel=1e-14)
        assert math.isfinite(rep.rhs) and rep.holds

    def test_vacuous_without_kernel_inclusion(self, rng):
        rho = sample_density(3, 3, rng)
        sigma = sample_density(3, 2, rng)
        rep = thm2_bound(PairEval(rho, sigma), 2.0)
        assert rep.vacuous and rep.holds

    def test_singular_pair_with_inclusion(self, rng):
        rho, sigma = sample_common_support_pair(4, 2, rng)
        rep = thm2_bound(PairEval(rho, sigma), 2.0)
        assert not rep.vacuous and rep.holds and math.isfinite(rep.rhs)


class TestThm3:
    def test_ceiling_factor(self, pair):
        rho, sigma = pair
        rep = thm3_bound(PairEval(rho, sigma), 3.5)
        assert ceiling_factor(3.5) == pytest.approx(1.2, abs=1e-12)
        # (ceil(q)-1)/(q-1) * (lambda1/b0)^(q-1) * ||Delta||_1
        assert rep.rhs == pytest.approx(1.2 * 3.0**2.5 * 0.5, rel=1e-14)

    def test_diagonal_fixture_both_variants(self, pair):
        rho, sigma = pair
        general = thm3_bound(PairEval(rho, sigma), 2.0)
        assert general.rhs == pytest.approx(1.5, abs=1e-12)
        q2 = thm3_bound(PairEval(rho, sigma), 2.0, "q2")
        assert q2.rhs == pytest.approx(1.0, abs=1e-12)
        assert general.holds and q2.holds

    def test_restricted_support_fixture(self):
        rho = DensityMatrix(np.diag([0.6, 0.4, 0.0]))
        sigma = DensityMatrix(np.diag([0.5, 0.5, 0.0]))
        rep = thm3_bound(PairEval(rho, sigma), 2.0, "q2")
        assert rep.lhs == pytest.approx(0.04, abs=1e-10)
        assert rep.rhs == pytest.approx(0.24, abs=1e-12)
        assert rep.holds and not rep.vacuous

    def test_integer_snap(self):
        assert ceiling_factor(2.0) == 1.0 and ceiling_factor(3.0) == 1.0
        assert ceiling_factor(3.0 + 1e-13) == pytest.approx(1.0)
        assert ceiling_factor(2.0 + 1e-6) == pytest.approx(2.0, rel=1e-5)

    def test_variant_gates(self, pair):
        rho, sigma = pair
        with pytest.raises(PreconditionFailed):
            thm3_bound(PairEval(rho, sigma), 3.0, "q2")
        with pytest.raises(PreconditionFailed):
            thm3_bound(PairEval(rho, sigma), 0.9)

    def test_overflowing_rhs_is_infinite(self):
        # (lambda1/b0)^(q-1) = 1e390 at q = 40; D_q is finite because rho
        # puts no weight on the b0 eigenvector
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        sigma = DensityMatrix(np.diag([0.9999999999, 1e-10]))
        rep = thm3_bound(PairEval(rho, sigma), 40.0)
        assert math.isfinite(rep.lhs) and rep.rhs == math.inf
        assert rep.holds and not rep.vacuous and rep.slack is None

    @pytest.mark.parametrize("q", [33.0, 40.0])
    def test_infinite_dq_against_infinite_rhs_holds(self, q):
        # D_q = 0.5^q 1e(10(q-1)) / (q-1) and the rhs both pass the float range
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        sigma = DensityMatrix(np.diag([0.9999999999, 1e-10]))
        rep = thm3_bound(PairEval(rho, sigma), q)
        assert rep.lhs == rep.rhs == math.inf
        assert rep.holds and not rep.vacuous and rep.slack is None

    def test_infinite_dq_against_finite_rhs_raises(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        sigma = DensityMatrix(np.diag([0.9999999999, 1e-10]))
        pair = PairEval(rho, sigma)
        pair.summary["b0"] = 1e-5  # puts the rhs, 1e160, back in range
        with pytest.raises(InternalInconsistency, match="infinite divergence"):
            thm3_bound(pair, 33.0)

    @given(seed=st.integers(0, 2**32 - 1), q=st.floats(1.01, 6.0))
    @settings(max_examples=40, deadline=None)
    def test_soundness_high_q(self, seed, q):
        gen = np.random.Generator(np.random.SFC64(seed))
        d = int(gen.integers(2, 7))
        rho, sigma = sample_density(d, d, gen), sample_density(d, d, gen)
        assert thm3_bound(PairEval(rho, sigma), q).holds


class TestLowerBounds:
    def test_equal_states_chain(self, rng):
        rho = sample_density(3, 3, rng)
        chain, pinsker = lower_bounds(PairEval(rho, rho), 2.0, 0.5)
        assert chain.holds and pinsker.holds
        assert abs(chain.lhs) <= 1e-10

    def test_diagonal_fixture(self, pair):
        rho, sigma = pair
        ctx = PairEval(rho, sigma)
        chain, pinsker = lower_bounds(ctx, 2.0, 0.5)
        assert pinsker.lhs == pytest.approx(0.125, abs=1e-12)
        assert ctx.d1 == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-10)
        assert chain.rhs == pytest.approx(1.0 / 3.0, abs=1e-10)
        expect_dp = 2.0 * (1.0 - (math.sqrt(0.375) + math.sqrt(0.125)))
        assert chain.lhs == pytest.approx(expect_dp, abs=1e-10)
        assert chain.holds and pinsker.holds

    def test_gates(self, pair):
        rho, sigma = pair
        with pytest.raises(PreconditionFailed):
            lower_bounds(PairEval(rho, sigma), 2.5, 0.5)
        with pytest.raises(PreconditionFailed):
            lower_bounds(PairEval(rho, sigma), 2.0, 1.0)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_chain_soundness(self, seed):
        gen = np.random.Generator(np.random.SFC64(seed))
        d = int(gen.integers(2, 7))
        rho, sigma = sample_density(d, d, gen), sample_density(d, d, gen)
        q = 1.0 + float(gen.uniform(1e-3, 1.0))
        p = float(gen.uniform(0.0, 1.0))
        chain, pinsker = lower_bounds(PairEval(rho, sigma), q, p)
        assert chain.holds and pinsker.holds


class TestPowerDiff:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            power_diff_bound(OperatorPair(np.eye(2), np.eye(3)), 2, 1.0)

    def test_nan_lhs_raises(self, monkeypatch):
        # singular values of X^2 - Y^2 that came out NaN: no report carries them
        x = HermitianOperator(np.diag([2.0, 1.0]))
        y = HermitianOperator(np.diag([1.0, 2.0]))
        monkeypatch.setattr(OperatorPair, "power_diff_singular_values",
                            lambda ops, n: np.array([math.nan, 1.0]))
        with pytest.raises(InternalInconsistency, match="NaN"):
            power_diff_bound(OperatorPair(x, y), 2, 1.0)

    @pytest.mark.parametrize("n", [2, 6])
    def test_power_past_float_range_is_a_domain_error(self, n):
        # c = 1e200: c^n leaves the float range at n = 2, and at n = 6 so
        # does Python's own c^(n-1); either way one typed error, raised
        # before numpy forms a power (pytest turns its RuntimeWarnings into
        # errors)
        x = HermitianOperator(np.diag([1e200, 1.0]))
        y = HermitianOperator(np.diag([1.0, 2.0]))
        with pytest.raises(DomainViolation, match=f"n = {n} .*1e\\+200"):
            power_diff_bound(OperatorPair(x, y), n, 1.0)

    def test_norm_whose_square_overflows(self):
        # ||X - Y||_2 = 1e200 fits in float64 though its square does not:
        # the report is finite, not inf <= inf
        x = HermitianOperator(np.diag([1e200, 1.0]))
        y = HermitianOperator(np.diag([1.0, 2.0]))
        rep = power_diff_bound(OperatorPair(x, y), 1, 2.0)
        assert rep.lhs == rep.rhs == pytest.approx(1e200, rel=1e-15)
        assert rep.holds

    def test_equal_operands(self, rng):
        x = HermitianOperator(random_hermitian(rng, 3))
        rep = power_diff_bound(OperatorPair(x, x), 3, 2.0)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_orthogonal_projectors(self):
        x = HermitianOperator(np.diag([1.0, 0.0]))
        y = HermitianOperator(np.diag([0.0, 1.0]))
        rep = power_diff_bound(OperatorPair(x, y), 2, 1.0)
        assert rep.lhs == pytest.approx(2.0, abs=1e-12)
        assert rep.rhs == pytest.approx(4.0, abs=1e-12)
        assert rep.holds

    def test_base_case_equality(self, rng):
        x = HermitianOperator(random_hermitian(rng, 4))
        y = HermitianOperator(random_hermitian(rng, 4))
        rep = power_diff_bound(OperatorPair(x, y), 1, math.inf)
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)

    def test_scale_homogeneity(self, rng):
        x = HermitianOperator(random_hermitian(rng, 3))
        y = HermitianOperator(random_hermitian(rng, 3))
        base = power_diff_bound(OperatorPair(x, y), 3, 2.0)
        doubled = OperatorPair(HermitianOperator(2.0 * x.matrix), HermitianOperator(2.0 * y.matrix))
        scaled = power_diff_bound(doubled, 3, 2.0)
        assert scaled.lhs == pytest.approx(8.0 * base.lhs, rel=1e-10)
        assert scaled.rhs == pytest.approx(8.0 * base.rhs, rel=1e-10)
        assert scaled.holds == base.holds

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
           p=st.sampled_from([1.0, 2.0, math.inf]))
    @settings(max_examples=40, deadline=None)
    def test_soundness(self, seed, n, p):
        gen = np.random.Generator(np.random.SFC64(seed))
        d = int(gen.integers(2, 7))
        x = HermitianOperator(random_hermitian(gen, d))
        y = HermitianOperator(random_hermitian(gen, d))
        assert power_diff_bound(OperatorPair(x, y), n, p).holds


class TestLemma3:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lemma3_bound(OperatorPair(np.eye(2) / 2, np.eye(3) / 3), 0.5)

    def test_equal_operands(self, rng):
        a = HermitianOperator(random_pd(rng, 3))
        a = HermitianOperator(a.matrix * (1.0 / a.trace()))
        rep = lemma3_bound(OperatorPair(a, a), 0.5)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_fixture(self):
        a = HermitianOperator(np.diag([0.5, 0.5]))
        b = HermitianOperator(np.diag([0.75, 0.25]))
        rep = lemma3_bound(OperatorPair(a, b), 0.5)
        expect = abs(math.sqrt(0.375) + math.sqrt(0.125) - 1.0)
        assert rep.lhs == pytest.approx(expect, abs=1e-12)
        assert rep.rhs == pytest.approx(math.sqrt(2.0) * 0.5, abs=1e-12)
        assert rep.holds

    def test_tau_scaling(self):
        a = HermitianOperator(np.diag([0.5, 0.5]))
        b = HermitianOperator(np.diag([0.75, 0.25]))
        base = lemma3_bound(OperatorPair(a, b), 0.5)
        doubled = OperatorPair(HermitianOperator(2.0 * a.matrix), HermitianOperator(2.0 * b.matrix))
        scaled = lemma3_bound(doubled, 0.5)
        assert scaled.lhs == pytest.approx(2.0 * base.lhs, rel=1e-10)
        assert scaled.rhs == pytest.approx(2.0 * base.rhs, rel=1e-10)
        assert scaled.holds == base.holds

    def test_trace_mismatch(self, rng):
        a = HermitianOperator(np.diag([0.6, 0.5]))
        b = HermitianOperator(np.diag([0.5, 0.5]))
        with pytest.raises(PreconditionFailed):
            lemma3_bound(OperatorPair(a, b), 0.5)

    def test_singular_second_operand(self):
        a = HermitianOperator(np.diag([0.5, 0.5]))
        b = HermitianOperator(np.diag([1.0, 0.0]))
        with pytest.raises(PreconditionFailed):
            lemma3_bound(OperatorPair(a, b), 0.5)

    def test_s_gate(self):
        a = HermitianOperator(np.eye(2) / 2.0)
        with pytest.raises(PreconditionFailed):
            lemma3_bound(OperatorPair(a, a), 1.0)

    @given(seed=st.integers(0, 2**32 - 1), s=st.sampled_from([0.25, 0.5, 0.75]))
    @settings(max_examples=40, deadline=None)
    def test_soundness(self, seed, s):
        gen = np.random.Generator(np.random.SFC64(seed))
        d = int(gen.integers(2, 7))
        a_m = random_pd(gen, d)
        b_m = random_pd(gen, d)
        a = HermitianOperator(a_m / np.trace(a_m).real)
        b = HermitianOperator(b_m / np.trace(b_m).real)
        assert lemma3_bound(OperatorPair(a, b), s).holds


class TestFrechetCheck:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            frechet_check([OperatorPair(np.eye(2), 2.0 * np.eye(3))], (0.5,))

    def test_equal_operands(self, rng):
        a = HermitianOperator(random_pd(rng, 3))
        (rep,) = frechet_check([OperatorPair(a, a)], (0.5,))[0]
        assert abs(rep.rhs) <= 1e-9
        assert rep.holds

    def test_commuting_scalar_fixture(self):
        a = HermitianOperator(np.eye(2))
        b = HermitianOperator(2.0 * np.eye(2))
        (rep,) = frechet_check([OperatorPair(a, b)], (0.5,))[0]
        # gap = 0.5 - (1 - 2^(-1/2))
        assert rep.rhs == pytest.approx(0.5 - (1.0 - 2.0**-0.5), abs=1e-8)
        assert rep.holds

    def test_singular_operand(self, rng):
        a = HermitianOperator(np.diag([1.0, 0.0]))
        b = HermitianOperator(random_pd(rng, 2))
        with pytest.raises(PreconditionFailed):
            frechet_check([OperatorPair(a, b)], (0.5,))

    @pytest.mark.parametrize("gap, holds", [(-1e-7, True), (-1.05e-7, False)])
    def test_one_allowance(self, monkeypatch, gap, holds):
        # the verdict and the verify check share the report's allowance, 1e-7
        import qrelent.bounds as bounds_module
        from qrelent.harness import _SuiteRun

        monkeypatch.setattr(bounds_module, "psd_gap", lambda left, right: [gap] * len(left))
        (rep,) = frechet_check([OperatorPair(np.eye(2), 2.0 * np.eye(2))], (0.5,))[0]
        assert rep.allowance == 1e-7 and rep.holds is holds
        run = _SuiteRun("lemma1_psd_gap", None, 1)
        run.le(rep.name, rep.lhs, rep.rhs, rep.allowance)
        assert run.failures == (0 if holds else 1)

    def test_block_equals_each_pair_alone(self, rng):
        # one gap stack per dimension gives each pair the reports it gets alone
        pairs = [OperatorPair(HermitianOperator(random_pd(rng, d)),
                              HermitianOperator(random_pd(rng, d))) for d in (3, 2, 3, 5, 2)]
        rs = (0.1, 0.5, 0.9)
        assert frechet_check(pairs, rs) == [frechet_check([ops], rs)[0] for ops in pairs]
        assert frechet_check([], rs) == []

    @given(seed=st.integers(0, 2**32 - 1), r=st.sampled_from([0.1, 0.5, 0.9]))
    @settings(max_examples=25, deadline=None)
    def test_gap_never_negative(self, seed, r):
        gen = np.random.Generator(np.random.SFC64(seed))
        a = HermitianOperator(random_pd(gen, 4))
        b = HermitianOperator(random_pd(gen, 4))
        (rep,) = frechet_check([OperatorPair(a, b)], (r,))[0]
        assert rep.rhs >= -1e-7
        assert rep.holds


class TestSharedWork:
    """Each q-independent solve of a state pair, and each singular-value solve
    of a lemma instance, runs once; sharing it changes no value and skips no
    check."""

    @pytest.fixture
    def counter(self, monkeypatch):
        import qrelent.entropy as entropy_module
        import qrelent.linalg as linalg_module

        def start():
            counts = dict.fromkeys(("eigvalsh", "eigh", "overlap", "kernel_included"), 0)
            for owner, attr, key in ((np.linalg, "eigvalsh", "eigvalsh"),
                                     (linalg_module, "lapack_eigh", "eigh"),
                                     (entropy_module, "lapack_eigh", "eigh"),
                                     (entropy_module, "_overlap", "overlap"),
                                     (entropy_module, "kernel_included", "kernel_included")):
                def wrapper(*args, _original=getattr(owner, attr), _key=key, **kwargs):
                    counts[_key] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(owner, attr, wrapper)
            return counts

        return start

    @pytest.mark.parametrize("kind", ["full", "common_kernel"])
    def test_pair_eval_solves_once(self, rng, counter, kind):
        if kind == "full":
            rho, sigma = sample_density(5, 5, rng), sample_density(5, 5, rng)
        else:
            rho, sigma = sample_common_support_pair(5, 3, rng)
        counts = counter()
        ctx = PairEval(rho, sigma)
        for q in (1.5, 2.0, 3.0):
            assert math.isfinite(ctx.dq(q))
            for spec in BOUNDS:
                if spec.applies(q):
                    spec.evaluate(ctx, q)
        ctx.d1, ctx.dp(0.5), ctx.distances
        assert counts == {"eigvalsh": 1, "eigh": 1, "overlap": 1, "kernel_included": 1}

    def test_lemma2_instance_solves(self, counter):
        from qrelent import harness

        counts = counter()
        run = harness._SuiteRun("lemma2_power_diff", None, 1)
        harness._suite_lemma2(run, harness.SweepConfig(seed=1), 3)
        assert run.instances_run == 3 and run.failures == 0
        assert counts["eigvalsh"] <= 7 * run.instances_run

    def test_cached_orders_still_cross_check_a_new_q(self, rng, monkeypatch):
        import qrelent.entropy as entropy_module

        rho, sigma = sample_common_support_pair(5, 3, rng)
        ctx = PairEval(rho, sigma)
        ctx.dq(1.5), ctx.dq(2.0)
        honest = entropy_module._divergence_sum

        def perturbed(w, a, log_a, log_b, r):
            # the double-sum route alone, and only at the new order
            value = honest(w, a, log_a, log_b, r)
            return value * (1.0 + 1e-6) if r == 3.0 and w is ctx.overlap[0] else value

        monkeypatch.setattr(entropy_module, "_divergence_sum", perturbed)
        assert math.isfinite(ctx.dq(1.5)) and math.isfinite(ctx.dq(2.0))
        with pytest.raises(InternalInconsistency):
            ctx.dq(3.0)

    def test_shared_operands_are_bit_identical(self, rng):
        x = HermitianOperator(random_hermitian(rng, 5))
        y = HermitianOperator(random_hermitian(rng, 5))
        ops = OperatorPair(x, y)
        delta = x.matrix - y.matrix
        assert ops.distances == {"trace_norm": schatten_norm(delta, 1.0),
                                 "spectral_norm": schatten_norm(delta, math.inf)}
        for n in range(1, 7):
            diff = np.linalg.matrix_power(x.matrix, n) - np.linalg.matrix_power(y.matrix, n)
            for p in (1.0, 2.0, math.inf):
                shared = power_diff_bound(ops, n, p)
                assert shared == power_diff_bound(OperatorPair(x, y), n, p)
                assert shared.lhs == schatten_norm(diff, p)

    def test_pair_distances_are_bit_identical(self, rng):
        rho, sigma = sample_density(6, 6, rng), sample_density(6, 6, rng)
        delta = rho.matrix - sigma.matrix
        assert PairEval(rho, sigma).distances == {
            "trace_norm": schatten_norm(delta, 1.0),
            "spectral_norm": schatten_norm(delta, math.inf),
        }

    def test_shared_lemma_contexts_are_bit_identical(self, rng):
        a = HermitianOperator(random_pd(rng, 4))
        b = HermitianOperator(random_pd(rng, 4))
        ops = OperatorPair(a, b)
        for r in (0.1, 0.5, 0.9):
            assert frechet_check([ops], (r,)) == frechet_check([OperatorPair(a, b)], (r,))
        a1 = HermitianOperator(a.matrix / a.trace())
        b1 = HermitianOperator(b.matrix / b.trace())
        ops = OperatorPair(a1, b1)
        for s in (0.25, 0.5, 0.75):
            assert lemma3_bound(ops, s) == lemma3_bound(OperatorPair(a1, b1), s)

    def test_context_of_other_operands_is_rejected(self, rng):
        rho, sigma = sample_density(3, 3, rng), sample_density(3, 3, rng)
        with pytest.raises(PreconditionFailed):
            quantum_relative_q(sigma, rho, 2.0, PairEval(rho, sigma))
