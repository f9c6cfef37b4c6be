import json
import math

import numpy as np
import pytest

from qrelent.bounds import PairEval
from qrelent.cli import main
from qrelent.errors import ConfigError
from qrelent.harness import (
    CSV_COLUMNS,
    SweepConfig,
    Tolerances,
    cmd_eval,
    cmd_gen,
    cmd_sweep,
    cmd_verify,
    default_verify_config,
    divergence_envelope,
    sigma_family,
    sweep_row,
    tightness_crossover,
)
from qrelent.states import density_from_matrix, read_state, sample_density


class TestConfigValidation:
    def test_zero_trials(self):
        with pytest.raises(ConfigError):
            SweepConfig(trials=0).validate()

    def test_negative_tolerance(self):
        with pytest.raises(ConfigError):
            SweepConfig(tolerances=Tolerances(tol_bound=-1.0)).validate()

    def test_q_at_most_one(self):
        with pytest.raises(ConfigError):
            SweepConfig(q_grid=(1.0,)).validate()

    def test_b0_beyond_inverse_dimension(self):
        with pytest.raises(ConfigError):
            SweepConfig(dims=(4,), b0_grid=(0.3,)).validate()

    def test_empty_b0_grid_for_sweep(self):
        with pytest.raises(ConfigError):
            SweepConfig(b0_grid=(), output_path="x.csv").validate(require_grids=True)

    def test_sweep_requires_output(self):
        with pytest.raises(ConfigError):
            SweepConfig().validate(require_grids=True)

    def test_unknown_config_key(self):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({"bogus": 1})

    def test_starved_quad_nodes(self):
        with pytest.raises(ConfigError):
            SweepConfig(tolerances=Tolerances(quad_nodes=2)).validate()


class TestSigmaFamily:
    def test_spectrum(self):
        sigma = sigma_family(4, 0.1)
        np.testing.assert_allclose(np.sort(sigma.spectrum), [0.1, 0.1, 0.1, 0.7])

    def test_diagonal_fixture_at_quarter(self):
        sigma = sigma_family(2, 0.25)
        np.testing.assert_allclose(np.diag(sigma.matrix).real, [0.75, 0.25])

    def test_b0_range(self):
        with pytest.raises(ConfigError):
            sigma_family(4, 0.5)


class TestSweepRow:
    def test_diagonal_fixture_row(self):
        rho = density_from_matrix(np.diag([0.5, 0.5]))
        sigma = sigma_family(2, 0.25)
        row = sweep_row(PairEval(rho, sigma), q=2.0, b0=0.25, trial=0, stream_seed=1,
                        tols=Tolerances())
        assert row["Dq"] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert row["thm3q2_rhs"] == pytest.approx(1.0, abs=1e-12)
        assert row["thm1_rhs1"] == pytest.approx(2.0, abs=1e-12)
        assert row["thm2_rhs"] == pytest.approx(2.0, abs=1e-12)
        assert row["pinsker_lhs"] == pytest.approx(0.125, abs=1e-12)
        assert row["vacuous"] == ""

    def test_high_q_marks_vacuous_columns(self, rng):
        rho = sample_density(2, 2, rng)
        row = sweep_row(PairEval(rho, sigma_family(2, 0.25)), q=3.0, b0=0.25, trial=0,
                        stream_seed=1, tols=Tolerances())
        assert math.isnan(row["thm1_rhs1"]) and math.isnan(row["thm2_rhs"])
        assert math.isnan(row["thm3q2_rhs"])
        assert math.isfinite(row["thm3_rhs"])
        assert "thm1" in row["vacuous"] and "thm3q2" in row["vacuous"]


class TestEvaluationCounts:
    """Each pair computes D_q once per q, D_1 once and the distances once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import qrelent.bounds as bounds_module
        import qrelent.harness as harness_module

        counts = {}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("quantum_relative_q", "relative_entropy_vn", "schatten_norm"):
            counting(bounds_module, name)
        for name in ("sample_density", "sigma_family"):
            counting(harness_module, name)
        return counts

    def test_sweep_row(self, rng, calls):
        pair = PairEval(sample_density(4, 4, rng), sigma_family(4, 0.1))
        sweep_row(pair, 1.5, 0.1, trial=0, stream_seed=1, tols=Tolerances())
        assert calls == {"quantum_relative_q": 1, "relative_entropy_vn": 1, "schatten_norm": 2}
        sweep_row(pair, 2.0, 0.1, trial=0, stream_seed=1, tols=Tolerances())
        assert calls == {"quantum_relative_q": 2, "relative_entropy_vn": 1, "schatten_norm": 2}

    def test_eval(self, tmp_path, calls):
        rho = cmd_gen(4, 4, seed=1, out=tmp_path / "rho.json")
        sigma = cmd_gen(4, 4, seed=2, out=tmp_path / "sigma.json")
        calls.clear()
        doc = cmd_eval(rho, sigma, [1.5, 2.0, 3.0])
        assert len(doc["per_q"]) == 3
        assert calls == {"quantum_relative_q": 3, "relative_entropy_vn": 1, "schatten_norm": 2}

    def test_sweep_grid(self, tmp_path, calls):
        config = SweepConfig(dims=(2, 3), q_grid=(1.5, 2.0, 3.0), b0_grid=(0.1, 0.2),
                             trials=2, seed=9, output_path=str(tmp_path / "s.csv"))
        cmd_sweep(config)
        pairs = 2 * 2 * 2  # (d, b0, trial)
        assert calls == {
            "quantum_relative_q": 3 * pairs,
            "relative_entropy_vn": pairs,
            "schatten_norm": 2 * pairs,
            "sample_density": 2 * 2,  # once per (d, trial)
            "sigma_family": 2 * 2,  # once per (d, b0)
        }


class TestSweep:
    def _config(self, tmp_path, name="sweep.csv", **kw):
        base = dict(dims=(2, 3), q_grid=(1.5, 2.0), b0_grid=(0.1, 0.2),
                    trials=2, seed=9, output_path=str(tmp_path / name))
        base.update(kw)
        return SweepConfig(**base)

    def test_header_is_stable(self):
        assert CSV_COLUMNS == (
            "d", "q", "b0", "trial", "seed", "Dq", "D1", "dist_tr", "dist_sp",
            "thm1_rhs1", "thm1_rhs2", "thm1_rhs3", "thm2_rhs", "thm2tl_rhs",
            "thm3_rhs", "thm3q2_rhs", "pinsker_lhs", "ratio_dq_b0", "vacuous",
        )

    def test_row_count_and_header(self, tmp_path):
        out = cmd_sweep(self._config(tmp_path))
        lines = out.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        rows = [l for l in lines if not l.startswith("#")]
        assert len(comments) == 2
        assert rows[0] == ",".join(CSV_COLUMNS)
        assert len(rows) - 1 == 2 * 2 * 2 * 2

    def test_byte_determinism_across_paths(self, tmp_path):
        out1 = cmd_sweep(self._config(tmp_path, "a.csv"))
        out2 = cmd_sweep(self._config(tmp_path, "b.csv"))
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        out1 = cmd_sweep(self._config(tmp_path, "a.csv"))
        out2 = cmd_sweep(self._config(tmp_path, "b.csv", seed=10))
        assert out1.read_bytes() != out2.read_bytes()

    def test_rows_share_rho_across_grid(self, tmp_path):
        out = cmd_sweep(self._config(tmp_path))
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        cols = {name: i for i, name in enumerate(CSV_COLUMNS)}
        # same (d, trial) at different q/b0 reuses the stream, so dist_tr of
        # rows with equal (d, b0, trial) is q-independent
        key = lambda r: (r[cols["d"]], r[cols["b0"]], r[cols["trial"]])
        groups = {}
        for r in rows:
            groups.setdefault(key(r), set()).add(r[cols["dist_tr"]])
        assert all(len(v) == 1 for v in groups.values())


class TestEvalAndGen:
    def test_gen_round_trip(self, tmp_path):
        out = cmd_gen(3, 2, seed=7, out=tmp_path / "state.json")
        rho = read_state(out)
        assert rho.dim == 3 and rho.rank == 2

    def test_gen_determinism(self, tmp_path):
        p1 = cmd_gen(2, 2, seed=7, out=tmp_path / "s1.json")
        p2 = cmd_gen(2, 2, seed=7, out=tmp_path / "s2.json")
        assert p1.read_bytes() == p2.read_bytes()

    def test_gen_rank_gate(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_gen(2, 3, seed=1, out=tmp_path / "x.json")

    def test_eval_fixture_pair(self, tmp_path):
        from qrelent.states import write_state

        write_state(tmp_path / "rho.json", density_from_matrix(np.diag([0.5, 0.5])))
        write_state(tmp_path / "sigma.json", density_from_matrix(np.diag([0.75, 0.25])))
        doc = cmd_eval(tmp_path / "rho.json", tmp_path / "sigma.json", [2.0])
        record = doc["per_q"][0]
        assert record["Dq"] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert record["reports"]["thm3q2_rhs"]["rhs"] == pytest.approx(1.0)
        assert record["reports"]["thm3q2_rhs"]["holds"] is True
        assert doc["D1"] == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-10)
        json.dumps(doc)  # must be serializable as-is

    def test_eval_identical_files(self, tmp_path, rng):
        from qrelent.states import write_state

        rho = sample_density(3, 3, rng)
        write_state(tmp_path / "rho.json", rho)
        doc = cmd_eval(tmp_path / "rho.json", tmp_path / "rho.json", [1.5, 2.0, 3.0])
        for record in doc["per_q"]:
            assert abs(record["Dq"]) <= 1e-10

    def test_eval_singular_sigma_reports_infinity(self, tmp_path, rng):
        from qrelent.states import write_state

        write_state(tmp_path / "rho.json", sample_density(2, 2, rng))
        write_state(tmp_path / "sigma.json", density_from_matrix(np.diag([1.0, 0.0])))
        doc = cmd_eval(tmp_path / "rho.json", tmp_path / "sigma.json", [2.0])
        record = doc["per_q"][0]
        assert record["Dq"] == "inf"
        assert record["reports"]["thm3_rhs"]["vacuous"] is True
        assert record["reports"]["thm3_rhs"]["holds"] is True

    def test_gen_then_eval_round_trip(self, tmp_path):
        p1 = cmd_gen(4, 4, seed=3, out=tmp_path / "a.json")
        p2 = cmd_gen(4, 2, seed=4, out=tmp_path / "b.json")
        doc = cmd_eval(p1, p2, [1.5])
        assert doc["dim"] == 4


class TestVerify:
    def test_counterexample_serialization(self, tmp_path, rng):
        from qrelent.harness import _SuiteRun

        run = _SuiteRun("demo", tmp_path, seed=3)
        run.instances += 1
        states = (sample_density(2, 2, rng), sample_density(2, 2, rng))
        run.check(-0.5, states=states, context={"check": "forced"})
        result = run.result()
        assert result.failures == 1
        assert result.counterexample_path is not None
        doc = json.loads((tmp_path / "counterexample_demo_context.json").read_text())
        assert doc["check"] == "forced" and doc["margin"] == -0.5
        assert read_state(doc["rho_path"]).dim == 2

    def test_failure_exit_code_and_report(self, tmp_path, monkeypatch):
        import qrelent.harness as hz

        def failing_suite(run, config, count):
            run.instances += 1
            run.check(-1.0, context={"check": "forced"})

        monkeypatch.setattr(hz, "_SUITES",
                            (("forced", failing_suite, lambda t: 1),))
        assert main(["verify", "--trials", "5",
                     "--out", str(tmp_path / "r.json")]) == 1
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["all_passed"] is False
        assert doc["suites"][0]["failures"] == 1

    def test_small_run_passes(self, tmp_path):
        config = default_verify_config(seed=1, trials=30,
                                       output_path=str(tmp_path / "report.json"))
        report = cmd_verify(config)
        assert report.passed
        names = [s.name for s in report.suites]
        assert "thm1_soundness" in names and "lemma1_psd_gap" in names
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["all_passed"] is True

    def test_report_byte_determinism(self, tmp_path):
        for name in ("r1.json", "r2.json"):
            cmd_verify(default_verify_config(seed=5, trials=20,
                                             output_path=str(tmp_path / name)))
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


class TestExperimentHelpers:
    def test_envelope_records(self):
        records = divergence_envelope(seed=1)
        assert len(records) == 18
        assert all(rec["holds"] for rec in records)
        assert all(rec["ratio"] <= rec["envelope_constant"] * (1 + 1e-9) + 1e-9
                   for rec in records)

    def test_crossover_records(self):
        records = tightness_crossover(seed=1, trials=3)
        assert len(records) == 12
        assert all(rec["tighter"] for rec in records)


class TestCli:
    def test_verify_exit_zero(self, tmp_path, capsys):
        code = main(["verify", "--trials", "10", "--seed", "2",
                     "--out", str(tmp_path / "r.json")])
        assert code == 0
        assert "all suites passed" in capsys.readouterr().out

    def test_config_error_exit_two(self, capsys):
        assert main(["verify", "--trials", "0"]) == 2

    def test_missing_file_exit_three(self, tmp_path):
        assert main(["eval", str(tmp_path / "no.json"), str(tmp_path / "no.json")]) == 3

    def test_non_finite_state_file_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        bad.write_text('{"dim": 2, "re": [[NaN, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}')
        good = cmd_gen(2, 2, seed=7, out=tmp_path / "good.json")
        assert main(["eval", str(bad), str(good)]) == 3
        assert main(["eval", str(good), str(bad)]) == 3
        assert capsys.readouterr().err.startswith("i/o error:")

    def test_gen_and_eval_cli(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["gen", "--d", "2", "--rank", "2", "--seed", "7",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["eval", str(out), str(out), "--q", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["per_q"][0]["Dq"]) <= 1e-10

    def test_sweep_cli_and_config_file(self, tmp_path, capsys):
        cfg = {"dims": [2], "q_grid": [2.0], "b0_grid": [0.25], "trials": 2, "seed": 3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) - 1 == 2

    def test_flags_override_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 3, "trials": 2}))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["sweep", "--config", str(cfg_path), "--dims", "2", "--q", "2",
                "--b0", "0.25"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--seed", "4", "--out", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()
