import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrelent.bounds import (
    BOUNDS,
    OperatorPair,
    PairEval,
    frechet_check,
    lemma3_bound,
    lower_bounds,
    power_diff_bound,
    thm1_bounds,
    thm2_bound,
    thm3_bound,
)
from qrelent.entropy import quantum_relative_q
from qrelent.errors import DimensionMismatch, InternalInconsistency, PreconditionFailed
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


class TestRegistry:
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
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


class TestThm1:
    def test_equal_states(self, rng):
        rho = sample_density(3, 3, rng)
        for rep in thm1_bounds(PairEval(rho, rho), 1.5):
            assert rep.rhs == pytest.approx(0.0, abs=1e-12)
            assert abs(rep.lhs.value) <= 1e-10
            assert rep.holds and not rep.vacuous

    def test_diagonal_fixture_triple(self, pair):
        rho, sigma = pair
        reports = thm1_bounds(PairEval(rho, sigma), 2.0)
        # a1^(q-1)/lambda0^q = 0.5/0.0625 = 8, distances (0.25, 0.5)
        assert reports[0].rhs == pytest.approx(2.0, abs=1e-12)
        assert reports[1].rhs == pytest.approx(2.0, abs=1e-12)
        assert reports[2].rhs == pytest.approx(2.0, abs=1e-12)
        for rep in reports:
            assert rep.lhs.value == pytest.approx(1.0 / 3.0, abs=1e-10)
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
        assert rep.extras["prefactor"] == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(2.0, abs=1e-12)
        assert rep.lhs.value == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert rep.holds

    def test_traceless_variant_fixture(self, pair):
        rho, sigma = pair
        rep = thm2_bound(PairEval(rho, sigma), 2.0, "traceless")
        # second term becomes (0.5/0.125)*0.25 = 1.0 as well
        assert rep.rhs == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_sigma_prefactor(self, rng):
        rho = sample_density(3, 3, rng)
        sigma = DensityMatrix(np.eye(3) / 3.0)
        rep = thm2_bound(PairEval(rho, sigma), 1.7)
        assert rep.extras["prefactor"] == 1.0
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
        assert rep.extras["ceiling_factor"] == pytest.approx(1.2, abs=1e-12)

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
        assert rep.lhs.value == pytest.approx(0.04, abs=1e-10)
        assert rep.rhs == pytest.approx(0.24, abs=1e-12)
        assert rep.holds and not rep.vacuous

    def test_integer_snap(self, pair):
        rho, sigma = pair
        assert thm3_bound(PairEval(rho, sigma), 2.0).extras["ceiling_factor"] == pytest.approx(1.0)
        assert thm3_bound(PairEval(rho, sigma), 3.0).extras["ceiling_factor"] == pytest.approx(1.0)
        just_above = thm3_bound(PairEval(rho, sigma), 2.0 + 1e-6).extras["ceiling_factor"]
        assert just_above == pytest.approx(2.0, rel=1e-5)

    def test_variant_gates(self, pair):
        rho, sigma = pair
        with pytest.raises(PreconditionFailed):
            thm3_bound(PairEval(rho, sigma), 3.0, "q2")
        with pytest.raises(PreconditionFailed):
            thm3_bound(PairEval(rho, sigma), 0.9)

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
        assert abs(chain.lhs.value) <= 1e-10

    def test_diagonal_fixture(self, pair):
        rho, sigma = pair
        chain, pinsker = lower_bounds(PairEval(rho, sigma), 2.0, 0.5)
        assert pinsker.lhs.value == pytest.approx(0.125, abs=1e-12)
        assert chain.extras["D1"] == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-10)
        assert chain.rhs == pytest.approx(1.0 / 3.0, abs=1e-10)
        expect_dp = 2.0 * (1.0 - (math.sqrt(0.375) + math.sqrt(0.125)))
        assert chain.lhs.value == pytest.approx(expect_dp, abs=1e-10)
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

    def test_equal_operands(self, rng):
        x = HermitianOperator(random_hermitian(rng, 3))
        rep = power_diff_bound(OperatorPair(x, x), 3, 2.0)
        assert rep.lhs.value == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_orthogonal_projectors(self):
        x = HermitianOperator(np.diag([1.0, 0.0]))
        y = HermitianOperator(np.diag([0.0, 1.0]))
        rep = power_diff_bound(OperatorPair(x, y), 2, 1.0)
        assert rep.lhs.value == pytest.approx(2.0, abs=1e-12)
        assert rep.rhs == pytest.approx(4.0, abs=1e-12)
        assert rep.holds

    def test_base_case_equality(self, rng):
        x = HermitianOperator(random_hermitian(rng, 4))
        y = HermitianOperator(random_hermitian(rng, 4))
        rep = power_diff_bound(OperatorPair(x, y), 1, math.inf)
        assert rep.lhs.value == pytest.approx(rep.rhs, rel=1e-12)

    def test_scale_homogeneity(self, rng):
        x = HermitianOperator(random_hermitian(rng, 3))
        y = HermitianOperator(random_hermitian(rng, 3))
        base = power_diff_bound(OperatorPair(x, y), 3, 2.0)
        scaled = power_diff_bound(OperatorPair(2.0 * x, 2.0 * y), 3, 2.0)
        assert scaled.lhs.value == pytest.approx(8.0 * base.lhs.value, rel=1e-10)
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
        a = 1.0 / a.trace() * a
        rep = lemma3_bound(OperatorPair(a, a), 0.5)
        assert rep.lhs.value == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_fixture(self):
        a = HermitianOperator(np.diag([0.5, 0.5]))
        b = HermitianOperator(np.diag([0.75, 0.25]))
        rep = lemma3_bound(OperatorPair(a, b), 0.5)
        expect = abs(math.sqrt(0.375) + math.sqrt(0.125) - 1.0)
        assert rep.lhs.value == pytest.approx(expect, abs=1e-12)
        assert rep.rhs == pytest.approx(math.sqrt(2.0) * 0.5, abs=1e-12)
        assert rep.holds

    def test_tau_scaling(self):
        a = HermitianOperator(np.diag([0.5, 0.5]))
        b = HermitianOperator(np.diag([0.75, 0.25]))
        base = lemma3_bound(OperatorPair(a, b), 0.5)
        scaled = lemma3_bound(OperatorPair(2.0 * a, 2.0 * b), 0.5)
        assert scaled.lhs.value == pytest.approx(2.0 * base.lhs.value, rel=1e-10)
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
            frechet_check(OperatorPair(np.eye(2), 2.0 * np.eye(3)), (0.5,))

    def test_equal_operands(self, rng):
        a = HermitianOperator(random_pd(rng, 3))
        (rep,) = frechet_check(OperatorPair(a, a), (0.5,))
        assert abs(rep.rhs) <= 1e-9
        assert rep.holds

    def test_commuting_scalar_fixture(self):
        a = HermitianOperator(np.eye(2))
        b = HermitianOperator(2.0 * np.eye(2))
        (rep,) = frechet_check(OperatorPair(a, b), (0.5,))
        # gap = 0.5 - (1 - 2^(-1/2))
        assert rep.rhs == pytest.approx(0.5 - (1.0 - 2.0**-0.5), abs=1e-8)
        assert rep.holds

    def test_singular_operand(self, rng):
        a = HermitianOperator(np.diag([1.0, 0.0]))
        b = HermitianOperator(random_pd(rng, 2))
        with pytest.raises(PreconditionFailed):
            frechet_check(OperatorPair(a, b), (0.5,))

    @given(seed=st.integers(0, 2**32 - 1), r=st.sampled_from([0.1, 0.5, 0.9]))
    @settings(max_examples=25, deadline=None)
    def test_gap_never_negative(self, seed, r):
        gen = np.random.Generator(np.random.SFC64(seed))
        a = HermitianOperator(random_pd(gen, 4))
        b = HermitianOperator(random_pd(gen, 4))
        (rep,) = frechet_check(OperatorPair(a, b), (r,))
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
            assert ctx.dq(q).is_finite
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
        assert run.instances == 3 and run.failures == 0
        assert counts["eigvalsh"] <= 7 * run.instances

    def test_cached_orders_still_cross_check_a_new_q(self, rng, monkeypatch):
        import qrelent.entropy as entropy_module

        rho, sigma = sample_common_support_pair(5, 3, rng)
        ctx = PairEval(rho, sigma)
        ctx.dq(1.5), ctx.dq(2.0)
        honest = entropy_module._restricted_trace_sum

        def perturbed(pair, q):
            return honest(pair, q) * (1.0 + 1e-6) if q == 3.0 else honest(pair, q)

        monkeypatch.setattr(entropy_module, "_restricted_trace_sum", perturbed)
        assert ctx.dq(1.5).is_finite and ctx.dq(2.0).is_finite
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
                assert shared.lhs.value == schatten_norm(diff, p)

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
            assert frechet_check(ops, (r,)) == frechet_check(OperatorPair(a, b), (r,))
        a1 = HermitianOperator(a.matrix / a.trace())
        b1 = HermitianOperator(b.matrix / b.trace())
        ops = OperatorPair(a1, b1)
        for s in (0.25, 0.5, 0.75):
            assert lemma3_bound(ops, s) == lemma3_bound(OperatorPair(a1, b1), s)

    def test_context_of_other_operands_is_rejected(self, rng):
        rho, sigma = sample_density(3, 3, rng), sample_density(3, 3, rng)
        with pytest.raises(PreconditionFailed):
            quantum_relative_q(sigma, rho, 2.0, PairEval(rho, sigma))
