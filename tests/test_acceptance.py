"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from qrelent.bounds import PairEval, lower_bounds, thm1_bounds, thm2_bound, thm3_bound
from qrelent.entropy import quantum_relative_q, relative_entropy_vn
from qrelent.harness import (
    SweepConfig,
    cmd_sweep,
    cmd_verify,
    divergence_envelope,
    tightness_crossover,
)
from qrelent.linalg import schatten_norm
from qrelent.quadrature import (
    frac_power_scalar,
    resolvent_pair_closed_form,
    resolvent_pair_integral,
)
from qrelent.states import DensityMatrix, tensor


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


@pytest.fixture(scope="session")
def full_verify(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "report.json"
    return cmd_verify(SweepConfig(seed=1, output_path=str(out)))


@pytest.fixture(scope="module")
def fixture_pair():
    return (DensityMatrix(np.diag([0.5, 0.5])),
            DensityMatrix(np.diag([0.75, 0.25])))


def test_criterion_1_fixture_suite(fixture_pair):
    rho, sigma = fixture_pair
    with criterion(1, "fixture-suite"):
        tol = 1e-9
        assert quantum_relative_q(rho, sigma, 2.0).value == pytest.approx(
            1.0 / 3.0, abs=tol)
        d1 = relative_entropy_vn(rho, sigma).value
        assert d1 == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=tol)
        assert f"{d1:.6f}" == "0.143841"
        assert schatten_norm(rho.matrix - sigma.matrix, 1.0) == pytest.approx(
            0.5, abs=tol)
        pair = PairEval(rho, sigma)
        r1, r2, r3 = thm1_bounds(pair, 2.0)
        assert (r1.rhs, r2.rhs, r3.rhs) == pytest.approx((2.0, 2.0, 2.0), abs=tol)
        assert thm2_bound(pair, 2.0).rhs == pytest.approx(2.0, abs=tol)
        assert thm3_bound(pair, 2.0).rhs == pytest.approx(1.5, abs=tol)
        assert thm3_bound(pair, 2.0, "q2").rhs == pytest.approx(1.0, abs=tol)
        _, pinsker = lower_bounds(pair, 2.0, 0.5)
        assert pinsker.lhs.value == pytest.approx(0.125, abs=tol)
        for rep in (r1, r2, r3):
            assert rep.holds


def test_criterion_2_soundness_sweeps(full_verify):
    with criterion(2, "soundness-sweeps"):
        for name in ("thm1_soundness", "thm2_soundness", "thm3_soundness",
                     "lower_bound_soundness"):
            suite = full_verify.suite(name)
            assert suite.instances_run >= 1000, name
            assert suite.failures == 0, name


def test_criterion_3_lemma_checks(full_verify):
    with criterion(3, "lemma-checks"):
        lemma1 = full_verify.suite("lemma1_psd_gap")
        assert lemma1.instances_run >= 200 and lemma1.failures == 0
        lemma2 = full_verify.suite("lemma2_power_diff")
        assert lemma2.instances_run >= 500 and lemma2.failures == 0
        lemma3 = full_verify.suite("lemma3_frac_trace")
        assert lemma3.instances_run >= 500 and lemma3.failures == 0


def test_criterion_4_oracle_agreement(full_verify):
    with criterion(4, "oracle-agreement"):
        suite = full_verify.suite("quadrature_oracle")
        assert suite.instances_run >= 200 and suite.failures == 0
        assert abs(frac_power_scalar(4.0, 0.5) - 2.0) <= 1e-10
        assert abs(frac_power_scalar(8.0, 1.0 / 3.0) - 2.0) <= 1e-10
        for a0, b0, r in ((0.75, 0.25, 0.5), (1.0, 0.3, 0.1), (0.9, 0.45, 0.9)):
            closed = resolvent_pair_closed_form(a0, b0, r)
            assert abs(resolvent_pair_integral(a0, b0, r) - closed) <= 1e-10
        limit = resolvent_pair_integral(0.3, 0.3, 0.5)
        assert abs(limit - 0.5 * 0.3**-1.5) <= 1e-10


def test_criterion_5_entropy_properties(full_verify, fixture_pair):
    with criterion(5, "entropy-properties"):
        suite = full_verify.suite("entropy_properties")
        assert suite.instances_run >= 1000 and suite.failures == 0
        rho, sigma = fixture_pair
        joint = quantum_relative_q(tensor(rho, rho), tensor(sigma, sigma), 2.0)
        assert joint.value == pytest.approx(7.0 / 9.0, abs=1e-9)
        states = full_verify.suite("state_invariants")
        assert states.instances_run >= 1000 and states.failures == 0


def test_criterion_6_divergence_envelope():
    with criterion(6, "divergence-rate-envelope"):
        records = divergence_envelope(seed=1, d=4)
        assert {rec["q"] for rec in records} == {1.5, 2.0, 3.0}
        assert {rec["b0"] for rec in records} == {1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6}
        tol = 1e-9
        for rec in records:
            assert rec["holds"], rec
            assert rec["ratio"] <= rec["envelope_constant"] * (1.0 + tol) + tol, rec


def test_criterion_7_tightness_crossover():
    with criterion(7, "tightness-crossover"):
        records = tightness_crossover(seed=1, trials=10, d=4)
        assert all(rec["b0"] <= 1e-3 for rec in records)
        for rec in records:
            assert rec["thm3q2_rhs"] < rec["thm2_rhs"], rec


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "determinism"):
        reports = []
        for name in ("v1.json", "v2.json"):
            cmd_verify(SweepConfig(seed=1, trials=25, output_path=str(tmp_path / name)))
            reports.append((tmp_path / name).read_bytes())
        assert reports[0] == reports[1]
        sweeps = []
        for name in ("s1.csv", "s2.csv"):
            cmd_sweep(SweepConfig(dims=(2, 4), q_grid=(1.5, 2.0, 3.0),
                                  b0_grid=(0.05, 0.25), trials=3, seed=1,
                                  output_path=str(tmp_path / name)))
            sweeps.append((tmp_path / name).read_bytes())
        assert sweeps[0] == sweeps[1]
