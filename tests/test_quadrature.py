import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi, roots_legendre

from qrelent import linalg, quadrature
from qrelent.bounds import frechet_check
from qrelent.errors import ConfigError, DomainViolation, PreconditionFailed
from qrelent.linalg import HermitianOperator, OperatorPair, apply_function, schatten_norm
from qrelent.quadrature import (
    NODES_PER_PANEL,
    _frechet_rule,
    _pd_scales,
    _power_rule,
    frac_power_operator,
    frac_power_scalar,
    frechet_integral_rhs,
    geometric_splits,
    resolvent_pair_closed_form,
    resolvent_pair_integral,
    self_test,
    shared_nodes_weights,
)
from qrelent.states import haar_unitary

from conftest import random_hermitian, random_pd

INDEFINITE = np.array([[1.0, 2.0j], [-2.0j, 1.0]])  # eigenvalues -1 and 3

_PD = np.diag([1.0, 2.0])
#: every function taking a fractional exponent r, and the error its gate raises
EXPONENT_GATES = {
    "frac_power_scalar": (lambda r: frac_power_scalar(4.0, r), DomainViolation),
    "frac_power_operator": (lambda r: frac_power_operator(_PD, (r,)), DomainViolation),
    "frechet_integral_rhs": (lambda r: frechet_integral_rhs(_PD, np.eye(2), (r,)),
                             DomainViolation),
    "resolvent_pair_integral": (lambda r: resolvent_pair_integral(0.5, 0.25, r), DomainViolation),
    "resolvent_pair_closed_form": (lambda r: resolvent_pair_closed_form(0.5, 0.25, r),
                                   DomainViolation),
    "frechet_check": (lambda r: frechet_check(OperatorPair(_PD, 2.0 * _PD), (r,)),
                      PreconditionFailed),
}


class TestRuleValidation:
    @pytest.mark.parametrize("r", [0.0, 1.0])
    @pytest.mark.parametrize("name", sorted(EXPONENT_GATES))
    def test_exponent_gate(self, name, r):
        call, error = EXPONENT_GATES[name]
        with pytest.raises(error):
            call(r)


class TestScalarPower:
    def test_square_root_of_four(self):
        assert frac_power_scalar(4.0, 0.5) == pytest.approx(2.0, abs=1e-10)

    def test_cube_root_of_eight(self):
        assert frac_power_scalar(8.0, 1.0 / 3.0) == pytest.approx(2.0, abs=1e-10)

    def test_one_is_fixed_point(self):
        for r in (0.1, 0.5, 0.9):
            assert frac_power_scalar(1.0, r) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive_base(self):
        with pytest.raises(DomainViolation):
            frac_power_scalar(0.0, 0.5)
        with pytest.raises(DomainViolation):
            frac_power_scalar(-1.0, 0.5)

    def test_rejects_bad_exponent(self):
        with pytest.raises(DomainViolation):
            frac_power_scalar(2.0, 1.5)

    @given(
        log_a=st.floats(-6.0, 6.0),
        r=st.floats(0.05, 0.95),
        form=st.sampled_from(["first", "second"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_relative_accuracy_across_scales(self, log_a, r, form):
        a = 10.0**log_a
        got = frac_power_scalar(a, r, form=form)
        assert abs(got - a**r) <= 1e-10 * a**r

    def test_forms_agree(self):
        for a in (1e-4, 0.3, 7.0, 1e4):
            first = frac_power_scalar(a, 0.3, form="first")
            second = frac_power_scalar(a, 0.3, form="second")
            assert first == pytest.approx(second, rel=1e-11)


class TestOperatorPower:
    def test_diagonal_square_root(self):
        (out,) = frac_power_operator(np.diag([4.0, 9.0]), (0.5,))
        np.testing.assert_allclose(out.matrix, np.diag([2.0, 3.0]), atol=1e-8)

    def test_identity_fixed_point(self):
        (out,) = frac_power_operator(np.eye(3), (0.5,))
        np.testing.assert_allclose(out.matrix, np.eye(3), atol=1e-10)

    def test_matches_spectral_calculus(self, rng):
        a = HermitianOperator(random_pd(rng, 6))
        budget = 1e-8 * schatten_norm(a, math.inf) ** 0.5
        spectral = apply_function(a, lambda x: x**0.5)
        (quad,) = frac_power_operator(a, (0.5,))
        assert np.max(np.abs(quad.matrix - spectral.matrix)) <= budget

    def test_ill_conditioned_spectrum(self, rng):
        # condition number 1e6 exercises the ladder across scales
        w = np.array([1e-6, 1e-4, 0.03, 1.0])
        u = haar_unitary(4, rng)
        a = HermitianOperator.from_eigensystem(w, u)
        for r in (0.1, 0.9):
            spectral = apply_function(a, lambda x: x**r)
            (quad,) = frac_power_operator(a, (r,))
            assert np.max(np.abs(quad.matrix - spectral.matrix)) <= 1e-8

    def test_operator_forms_agree(self, rng):
        a = HermitianOperator(random_pd(rng, 4))
        (first,) = frac_power_operator(a, (0.7,), form="first")
        (second,) = frac_power_operator(a, (0.7,), form="second")
        assert np.max(np.abs(first.matrix - second.matrix)) <= 1e-8

    def test_singular_input_rejected(self):
        ones, shifts = np.ones(3), np.array([2.0, 0.0, 2.0])
        for mat in (np.diag([1.0, 0.0]), INDEFINITE):
            for form in ("first", "second"):
                with pytest.raises(DomainViolation):
                    frac_power_operator(mat, (0.5,), form=form)
            # the stacked solve checks every node itself: the middle node is A
            with pytest.raises(DomainViolation):
                quadrature._resolvent_sum(mat, ones, shifts, [(np.arange(3), ones)], np.eye(2))


class TestFrechetIntegral:
    def test_zero_direction(self):
        (out,) = frechet_integral_rhs(np.eye(2), np.zeros((2, 2)), (0.5,))
        np.testing.assert_allclose(out.matrix, np.zeros((2, 2)), atol=1e-12)

    def test_scalar_multiple_of_identity(self):
        # eigenvalue-wise the integral equals r * a^(-r-1) * d
        (out,) = frechet_integral_rhs(2.0 * np.eye(2), np.eye(2), (0.5,))
        expect = 0.5 * 2.0 ** (-1.5)
        np.testing.assert_allclose(out.matrix, expect * np.eye(2), atol=1e-10)
        assert expect == pytest.approx(0.17677669529663687)

    def test_commuting_diagonal_case(self):
        (out,) = frechet_integral_rhs(np.diag([1.0, 4.0]), np.diag([1.0, -1.0]), (0.5,))
        np.testing.assert_allclose(out.matrix, np.diag([0.5, -0.0625]), atol=1e-8)

    def test_singular_base_rejected(self):
        for mat in (np.diag([1.0, 0.0]), INDEFINITE):
            with pytest.raises(DomainViolation):
                frechet_integral_rhs(mat, np.eye(2), (0.5,))


class TestResolventPair:
    # closed form oracle: (b^-r - a^-r)/(a - b), derived by partial fractions
    CASES = [(0.75, 0.25, 0.5), (0.5, 0.1, 0.9), (1.0, 0.3, 0.1), (0.9, 0.45, 0.25)]

    @pytest.mark.parametrize("a0,b0,r", CASES)
    def test_matches_closed_form(self, a0, b0, r):
        got = resolvent_pair_integral(a0, b0, r)
        expect = (b0**-r - a0**-r) / (a0 - b0)
        assert got == pytest.approx(expect, abs=1e-10)

    @pytest.mark.parametrize("a0,b0,r", CASES)
    def test_bounded_by_min_eigenvalue_power(self, a0, b0, r):
        lam0 = min(a0, b0)
        q = r + 1.0
        assert resolvent_pair_closed_form(a0, b0, r) <= lam0**-q * (1.0 + 1e-12)

    def test_equal_arguments_limit(self):
        for b0 in (0.2, 0.5, 1.0):
            got = resolvent_pair_integral(b0, b0, 0.5)
            assert got == pytest.approx(0.5 * b0**-1.5, abs=1e-10)
            assert resolvent_pair_closed_form(b0, b0, 0.5) == pytest.approx(
                0.5 * b0**-1.5, rel=1e-12
            )


class TestScalarRange:
    """Scalar operands lie in SCALAR_RANGE = [1e-100, 1e100]: inside it the
    scalar integrals keep the self-test's 1e-9, outside it they raise."""

    OUTSIDE = [math.inf, 1e308, 1e305, 1e-320, math.nextafter(1e100, math.inf),
               math.nextafter(1e-100, 0.0), math.nan, 0.0, -1.0]

    def test_range(self):
        assert quadrature.SCALAR_RANGE == (1e-100, 1e100)

    @pytest.mark.parametrize("a", OUTSIDE)
    @pytest.mark.parametrize("form", ["first", "second"])
    def test_power_outside_raises(self, a, form):
        with pytest.raises(DomainViolation):
            frac_power_scalar(a, 0.5, form=form)

    @pytest.mark.parametrize("call", [resolvent_pair_integral, resolvent_pair_closed_form],
                             ids=lambda call: call.__name__)
    @pytest.mark.parametrize("a0,b0", [(math.inf, 1.0), (1e300, 1e-300), (1e-300, 1e-300),
                                       (1.0, 1e305), (1.0, math.nan)])
    def test_pair_outside_raises(self, call, a0, b0):
        with pytest.raises(DomainViolation):
            call(a0, b0, 0.5)

    @staticmethod
    def _operand(log_a: float) -> float:
        low, high = quadrature.SCALAR_RANGE
        return min(max(10.0**log_a, low), high)

    @given(log_a=st.floats(-100.0, 100.0), r=st.floats(0.01, 0.99),
           form=st.sampled_from(["first", "second"]))
    @settings(max_examples=200, deadline=None)
    def test_power_inside_is_accurate(self, log_a, r, form):
        a = self._operand(log_a)
        assert abs(frac_power_scalar(a, r, form=form) - a**r) <= 1e-9 * a**r

    @given(log_a=st.floats(-100.0, 100.0), log_b=st.floats(-100.0, 100.0),
           r=st.floats(0.01, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_pair_inside_is_accurate(self, log_a, log_b, r):
        a0, b0 = self._operand(log_a), self._operand(log_b)
        with mpmath.workdps(50):
            a, b = mpmath.mpf(a0), mpmath.mpf(b0)
            exact = r * a ** (-r - 1) if a == b else (b**-r - a**-r) / (a - b)
            exact = float(exact)
        assert abs(resolvent_pair_integral(a0, b0, r) - exact) <= 1e-9 * exact


def _daleckii_krein(a: HermitianOperator, direction: np.ndarray, r: float) -> np.ndarray:
    """Derivative of t -> -t^(-r) at A in the given direction by divided
    differences in the eigenbasis of A, b^(-r-1) (-expm1(-r x)) / expm1(x)
    with x = ln(a/b), which stay accurate for close eigenvalues."""
    w, u = a.eig()
    x = np.log(w[:, None] / w[None, :])
    with np.errstate(invalid="ignore"):
        ratio = np.where(x == 0.0, r, -np.expm1(-r * x) / np.expm1(x))
    dd = w[None, :] ** (-r - 1.0) * ratio
    return u @ ((u.conj().T @ direction @ u) * dd) @ u.conj().T


def _budget_errors(cond: float, d: int, r: float) -> tuple[float, float]:
    """Worst quadrature error of A^r over both forms, over max(1, ||A||^r), and
    of the Frechet integral, over max|exact|, for an operand with condition
    number ``cond`` exactly, at the current NODES_PER_PANEL."""
    rng = np.random.Generator(np.random.SFC64(int(cond) * 16 + d))
    w = np.sort(np.concatenate([[1.0 / cond, 1.0], cond ** -rng.uniform(0.0, 1.0, d - 2)]))
    a = HermitianOperator.from_eigensystem(10.0 ** rng.uniform(-2.0, 2.0) * w,
                                           haar_unitary(d, rng))
    direction = random_hermitian(rng, d)
    spectral = apply_function(a, lambda lam: lam**r).matrix
    scale = max(1.0, schatten_norm(a, math.inf) ** r)
    power = max(float(np.max(np.abs(frac_power_operator(a, (r,), form=form)[0].matrix
                                    - spectral))) / scale
                for form in ("first", "second"))
    exact = _daleckii_krein(a, direction, r)
    frechet = frechet_integral_rhs(a, direction, (r,))[0].matrix
    return power, float(np.max(np.abs(frechet - exact)) / np.max(np.abs(exact)))


BUDGET_CASES = [(cond, d, r) for cond in (1.0, 1e3, 1e6) for d in (2, 8) for r in (0.1, 0.5, 0.9)]


class TestDefaultBudget:
    """The default node budget keeps the oracle errors 100x under the 1e-8
    that the oracle suites allow, up to the suites' condition number 1e6."""

    @pytest.mark.parametrize("cond,d,r", BUDGET_CASES)
    def test_default_rule_within_budget(self, cond, d, r):
        power, frechet = _budget_errors(cond, d, r)
        assert power <= 1e-10
        assert frechet <= 1e-10

    def test_twelve_nodes_miss_budget(self, monkeypatch):
        # the check above can tell a starved rule apart
        monkeypatch.setattr(quadrature, "NODES_PER_PANEL", 12)
        for cond, d, r in BUDGET_CASES:
            assert max(_budget_errors(cond, d, r)) > 1e-10


class TestSelfTest:
    def test_default_nodes_pass(self):
        assert self_test() <= 1e-9

    def test_inaccurate_rule_aborts(self, monkeypatch):
        exact = quadrature.frac_power_scalar
        monkeypatch.setattr(quadrature, "frac_power_scalar",
                            lambda *args, **kwargs: exact(*args, **kwargs) + 1e-6)
        with pytest.raises(ConfigError):
            self_test()


def _loop_integral(f, e, splits, n):
    """Per-node reference: the panel-by-panel loop shared_nodes_weights replaces."""
    terms = []
    c0, ck = splits[0], splits[-1]
    t, w = roots_jacobi(n, 0.0, e)
    for wi, ti in zip(w, t):
        terms.append((c0 / 2.0) ** (e + 1.0) * wi * f(c0 * (1.0 + ti) / 2.0))
    tl, wl = roots_legendre(n)
    for a, b in zip(splits[:-1], splits[1:]):
        half, mid = (b - a) / 2.0, (a + b) / 2.0
        for wi, ti in zip(wl, tl):
            y = mid + half * ti
            terms.append(half * wi * y**e * f(y))
    t2, w2 = roots_jacobi(n, 0.0, -e - 1.0)
    for wi, ti in zip(w2, t2):
        u = (1.0 + ti) / 2.0
        terms.append(ck ** (e + 1.0) * 2.0**e * wi * f(ck / u) / u)
    return sum(terms[1:], terms[0])


def _mp_gauss_jacobi(n, beta, seeds):
    """40-digit nodes and weights of the n-point Gauss rule for (1+t)^beta:
    mpmath's zeros of P_n^(0,beta), found from the float seeds, and the
    weights 2^(beta+1) / ((1-t^2) P_n'(t)^2) with P_n' from mpmath.diff."""
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        p = lambda t: mpmath.jacobi(n, 0, b, t)  # noqa: E731
        nodes = [mpmath.findroot(p, mpmath.mpf(float(s))) for s in seeds]
        weights = [2 ** (b + 1) / ((1 - t * t) * mpmath.diff(p, t) ** 2) for t in nodes]
    return nodes, weights


#: long double carries more precision than float64 (it does on x86-64 Linux)
_EXTENDED = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps


class TestGaussRules:
    # n = 64 and beta = -0.99 are the largest rule and the lowest exponent
    # that the tests and scripts build
    @pytest.mark.parametrize("n", [4, 24, 64])
    @pytest.mark.parametrize("beta", [-0.99, -0.9, -0.5, -0.1, 0.0])
    def test_matches_mpmath(self, n, beta):
        if (n == 64 or beta == -0.99) and not _EXTENDED:
            pytest.skip("end weights within 1e-13 here need a long double wider than float64")
        t, w = quadrature._jacobi(n, beta)
        nodes, weights = _mp_gauss_jacobi(n, beta, t)
        assert len(t) == len(w) == n
        assert all(a < b for a, b in zip(nodes, nodes[1:]))
        for ti, wi, node, weight in zip(t, w, nodes, weights):
            assert abs(ti - node) <= 5e-16
            assert abs(wi - weight) <= 1e-13 * weight
        moment = 2.0 ** (beta + 1.0) / (beta + 1.0)
        assert abs(math.fsum(w) - moment) <= 1e-13 * moment


LADDERS = [geometric_splits(1.0, 1.0), geometric_splits(1e-3, 10.0),
           geometric_splits(1e-6, 1.0), (0.5, 0.7, 3.0)]


class TestNodesWeights:
    @pytest.mark.parametrize("e", [-0.9, -0.5, -0.1])
    @pytest.mark.parametrize("splits", LADDERS)
    def test_beta_function_integral(self, e, splits):
        # int_0^inf y^e / (1 + y) dy = pi / sin(pi (e + 1))
        y, ((_, w),) = shared_nodes_weights((e,), splits, 64)
        expect = math.pi / math.sin(math.pi * (e + 1.0))
        assert abs(math.fsum(w / (1.0 + y)) - expect) <= 1e-12 * expect

    @pytest.mark.parametrize("n", [4, 17, 64])
    @pytest.mark.parametrize("splits", LADDERS)
    def test_layout(self, n, splits):
        y, ((index, w),) = shared_nodes_weights((-0.3,), splits, n)
        assert np.array_equal(index, np.arange(len(y)))
        assert len(y) == len(w) == n * (len(splits) + 1)
        assert np.all(np.diff(y) > 0.0)
        assert np.all(w > 0.0)

    @pytest.mark.parametrize("e", [-1.0, 0.0, 0.5, -1.5, math.nan])
    def test_exponent_out_of_range(self, e):
        with pytest.raises(DomainViolation):
            shared_nodes_weights((e,), (1.0, 10.0), 8)

    @pytest.mark.parametrize("form", ["first", "second"])
    def test_operator_matches_per_node_loop(self, rng, form):
        # the loop runs on the operand's own ladder at the default budget
        a = HermitianOperator(random_pd(rng, 5))
        mat, eye = a.matrix, np.eye(5)
        lo, hi = _pd_scales(a)
        n = NODES_PER_PANEL
        if form == "first":
            loop = _loop_integral(lambda x: scipy.linalg.solve(mat + x * eye, mat, assume_a="pos"),
                                  -0.6, geometric_splits(lo, hi), n)
        else:
            loop = _loop_integral(lambda y: scipy.linalg.solve(y * mat + eye, mat, assume_a="pos"),
                                  -0.4, geometric_splits(1.0 / hi, 1.0 / lo), n)
        loop = math.sin(0.4 * math.pi) / math.pi * loop
        got = frac_power_operator(a, (0.4,), form=form)[0].matrix
        assert np.max(np.abs(got - (loop + loop.conj().T) / 2.0)) <= 1e-13 * np.max(np.abs(loop))


class TestStackedSolve:
    @pytest.mark.parametrize("call", ["first", "second", "frechet"])
    def test_chunked_matches_single_chunk(self, rng, monkeypatch, call):
        a = HermitianOperator(random_pd(rng, 8))
        direction = HermitianOperator(random_hermitian(rng, 8))
        r = 0.3
        if call == "frechet":
            run = lambda: frechet_integral_rhs(a, direction, (r,))[0].matrix  # noqa: E731
        else:
            run = lambda: frac_power_operator(a, (r,), form=call)[0].matrix  # noqa: E731
        whole = run()
        assert np.array_equal(whole, run())
        chunks = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: chunks.append(len(m)) or cholesky(m))
        # 30 nodes per chunk: the default rule on this operand spans three or more
        monkeypatch.setattr(quadrature, "_CHUNK_BYTES", 30 * 16 * 8 * 8)
        chunked = run()
        assert len(chunks) >= 3 and max(chunks) == 30
        scale = np.max(np.abs(whole)) if call == "frechet" else schatten_norm(a, math.inf) ** r
        assert np.max(np.abs(chunked - whole)) <= 1e-14 * scale
        assert np.array_equal(chunked, run())


R_VALUES = (0.1, 0.5, 0.9)
SHARED_CASES = [(cond, d) for cond in (1.0, 1e3, 1e6) for d in range(2, 9)]


def _shared_operand(cond: float, d: int) -> tuple[HermitianOperator, HermitianOperator]:
    """An operand with condition number ``cond`` exactly, and a direction."""
    rng = np.random.Generator(np.random.SFC64(int(cond) * 32 + d + 7))
    w = np.sort(np.concatenate([[1.0 / cond, 1.0], cond ** -rng.uniform(0.0, 1.0, d - 2)]))
    a = HermitianOperator.from_eigensystem(10.0 ** rng.uniform(-2.0, 2.0) * w,
                                           haar_unitary(d, rng))
    return a, HermitianOperator(random_hermitian(rng, d))


def _integrals(call: str, a, direction, rs) -> list[np.ndarray]:
    if call == "frechet":
        return [x.matrix for x in frechet_integral_rhs(a, direction, rs)]
    return [x.matrix for x in frac_power_operator(a, rs, form=call)]


class TestSharedExponents:
    """Several exponents of one operand share one stack of resolvent solves;
    each exponent gets the value it gets alone."""

    @pytest.mark.parametrize("e", [(-0.9,), (-0.9, -0.5, -0.1), (-0.3, -0.3)])
    @pytest.mark.parametrize("splits", LADDERS)
    def test_layout(self, e, splits):
        y, rules = shared_nodes_weights(e, splits, 8)
        assert len(y) == 8 * (len(splits) - 1) + 16 * len(e)
        for exponent, (index, w) in zip(e, rules):
            assert np.all(np.diff(index) > 0)
            alone_y, ((_, alone_w),) = shared_nodes_weights((exponent,), splits, 8)
            assert np.array_equal(y[index], alone_y) and np.array_equal(w, alone_w)

    @pytest.mark.parametrize("call", ["first", "second", "frechet"])
    @pytest.mark.parametrize("cond,d", SHARED_CASES)
    def test_together_equals_alone(self, monkeypatch, call, cond, d):
        a, direction = _shared_operand(cond, d)
        alone = [_integrals(call, a, direction, (r,))[0] for r in R_VALUES]
        together = _integrals(call, a, direction, R_VALUES)
        # one chunk, as every command runs it: the same bits
        for x, y in zip(together, alone):
            assert np.array_equal(x, y)
        chunks = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: chunks.append(len(m)) or cholesky(m))
        # 40 nodes per chunk: chunk ends fall inside panels
        monkeypatch.setattr(quadrature, "_CHUNK_BYTES", 40 * 16 * d * d)
        chunked = _integrals(call, a, direction, R_VALUES)
        assert len(chunks) >= 3 and max(chunks) == 40
        for x, y in zip(chunked, alone):
            assert np.max(np.abs(x - y)) <= 1e-14 * np.max(np.abs(y))

    @pytest.mark.parametrize("call", ["first", "second", "frechet", "check"])
    def test_one_stack_per_operand(self, monkeypatch, call):
        a, direction = _shared_operand(1e3, 8)
        counts = dict.fromkeys(("cho_factor", "cholesky", "solve"), 0)
        for owner, name in ((scipy.linalg, "cho_factor"), (np.linalg, "cholesky"),
                            (np.linalg, "solve")):
            def wrapper(*args, _original=getattr(owner, name), _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)
        if call == "check":
            doubled = OperatorPair(a, HermitianOperator(2.0 * a.matrix))
            (reports,) = frechet_check([doubled], R_VALUES)
            assert len(reports) == len(R_VALUES)
        else:
            _integrals(call, a, direction, R_VALUES)
        assert counts == {"cho_factor": 1, "cholesky": 1, "solve": 1}

    def test_exponents_are_checked(self):
        for rs in ((), (0.5, 1.0), (0.0, 0.5)):
            with pytest.raises(DomainViolation):
                frac_power_operator(_PD, rs)
            with pytest.raises(DomainViolation):
                frechet_integral_rhs(_PD, np.eye(2), rs)


@pytest.mark.parametrize("d", range(2, 9))
def test_integrals_are_their_rules(d):
    # at NODES_PER_PANEL on the operand's own ladder, each rule is its public
    # integral bit for bit, so the rules that scripts/quadrature_budget.py
    # runs at other node counts and on padded ladders are the library's own
    for cond in (1.0, 1e3, 1e6):
        a, direction = _shared_operand(cond, d)
        lo, hi = _pd_scales(a)
        ladders = {"first": geometric_splits(lo, hi),
                   "second": geometric_splits(1.0 / hi, 1.0 / lo)}
        for rs in ((0.5,), R_VALUES):
            rules = {form: _power_rule(a.matrix, rs, form, splits, NODES_PER_PANEL)
                     for form, splits in ladders.items()}
            rules["frechet"] = _frechet_rule(a.matrix, direction.matrix, rs, ladders["first"],
                                             NODES_PER_PANEL)
            for call, rule in rules.items():
                library = _integrals(call, a, direction, rs)
                assert len(rule) == len(library)
                for x, y in zip(rule, library):
                    assert np.array_equal(x.matrix, y), (call, cond, rs)


def test_quadrature_never_decomposes(rng, monkeypatch):
    # the oracle is only independent of spectral calculus while this holds
    a = HermitianOperator(random_pd(rng, 4))
    direction = HermitianOperator(random_hermitian(rng, 4))

    def forbidden(*args, **kwargs):
        raise AssertionError("eigendecomposition reached from quadrature")

    for module in (np.linalg, scipy.linalg):
        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(module, name, forbidden)
    for name in ("zheevd", "zheev", "zheevr", "zheevx"):
        monkeypatch.setattr(scipy.linalg.lapack, name, forbidden)
    monkeypatch.setattr(linalg, "lapack_eigh", forbidden)
    monkeypatch.setattr(HermitianOperator, "eig", forbidden)
    # the Gauss rules are built under the patches too, not read from the cache
    quadrature._jacobi.cache_clear()
    for rs in ((0.5,), (0.1, 0.5, 0.9)):
        for form in ("first", "second"):
            frac_power_operator(a, rs, form=form)
        frechet_integral_rhs(a, direction, rs)
    frac_power_scalar(3.0, 0.5)
    resolvent_pair_integral(0.7, 0.2, 0.5)
    self_test()


def test_geometric_splits_cover_scales():
    splits = geometric_splits(1e-3, 10.0)
    assert splits[0] == 1e-3 and splits[-1] >= 10.0
    assert list(splits) == sorted(splits)
    assert geometric_splits(2.0, 2.0) == (2.0, 20.0)
    with pytest.raises(DomainViolation):
        geometric_splits(-1.0, 1.0)
