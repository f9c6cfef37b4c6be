import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrelent import harness
from qrelent.bounds import PairEval
from qrelent.cli import main
from qrelent.errors import ConfigError
from qrelent.harness import (
    CSV_COLUMNS,
    SweepConfig,
    cmd_eval,
    cmd_gen,
    cmd_sweep,
    cmd_verify,
    divergence_envelope,
    sigma_family,
    sweep_row,
    tightness_crossover,
)
from qrelent.states import DensityMatrix, read_state, sample_density, trial_stream, write_state


class TestConfigValidation:
    def test_zero_trials(self):
        with pytest.raises(ConfigError):
            SweepConfig(trials=0).validate()

    def test_q_at_most_one(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_sweep(SweepConfig(q_grid=(1.0,), output_path=str(tmp_path / "x.csv")))

    def test_b0_beyond_inverse_dimension(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_sweep(SweepConfig(dims=(4,), b0_grid=(0.3,), output_path=str(tmp_path / "x.csv")))

    def test_empty_b0_grid_for_sweep(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_sweep(SweepConfig(b0_grid=(), output_path=str(tmp_path / "x.csv")))

    def test_sweep_requires_output(self):
        with pytest.raises(ConfigError):
            cmd_sweep(SweepConfig())

    def test_unknown_config_key(self):
        for doc in ({"bogus": 1}, {"tolerances": {"tol_bound": 1e-3}}):
            with pytest.raises(ConfigError):
                SweepConfig.from_dict(doc)

    # one value of the wrong JSON type per key; a bool is not a number here
    @pytest.mark.parametrize("key,value", [
        ("dims", 5), ("dims", "2,4"), ("dims", [2, "4"]), ("dims", [2.0]), ("dims", [True]),
        ("q_grid", 2.0), ("q_grid", ["2"]), ("q_grid", [False]), ("q_grid", None),
        ("b0_grid", 0.1), ("b0_grid", [0.1, "0.01"]), ("b0_grid", [[0.1]]),
        ("trials", "3"), ("trials", 3.0), ("trials", True), ("trials", None),
        ("seed", "1"), ("seed", 1.5), ("seed", False), ("seed", [1]),
        ("output_path", 7), ("output_path", ["a.json"]), ("output_path", False),
    ])
    def test_wrong_json_type_is_config_error(self, key, value):
        with pytest.raises(ConfigError, match=key):
            SweepConfig.from_dict({key: value})

    def test_every_key_accepts_its_json_type(self):
        doc = {"dims": [2, 3], "q_grid": [1.5, 2], "b0_grid": [0.1, 1e-2], "trials": 3,
               "seed": 4, "output_path": "out.csv"}
        assert SweepConfig.from_dict(doc) == SweepConfig(
            dims=(2, 3), q_grid=(1.5, 2.0), b0_grid=(0.1, 0.01), trials=3, seed=4,
            output_path="out.csv")
        assert SweepConfig.from_dict({"output_path": None}).output_path is None

    @pytest.mark.parametrize("doc", [{"dims": 5}, {"trials": "3"}])
    def test_wrong_json_type_exits_two(self, doc, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["verify", "--config", str(cfg_path),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")


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
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        sigma = sigma_family(2, 0.25)
        row = sweep_row(PairEval(rho, sigma), q=2.0, b0=0.25, trial=0, stream_seed=1)
        assert row["Dq"] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert row["thm3q2_rhs"] == pytest.approx(1.0, abs=1e-12)
        assert row["thm1_rhs1"] == pytest.approx(2.0, abs=1e-12)
        assert row["thm2_rhs"] == pytest.approx(2.0, abs=1e-12)
        assert row["pinsker_lhs"] == pytest.approx(0.125, abs=1e-12)
        assert row["vacuous"] == ""

    def test_high_q_marks_vacuous_columns(self, rng):
        rho = sample_density(2, 2, rng)
        row = sweep_row(PairEval(rho, sigma_family(2, 0.25)), q=3.0, b0=0.25, trial=0,
                        stream_seed=1)
        assert math.isnan(row["thm1_rhs1"]) and math.isnan(row["thm2_rhs"])
        assert math.isnan(row["thm3q2_rhs"])
        assert math.isfinite(row["thm3_rhs"])
        assert "thm1" in row["vacuous"] and "thm3q2" in row["vacuous"]


class TestEvaluationCounts:
    """Each pair computes D_q once per q, D_1 once and the distances once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import qrelent.entropy as entropy_module
        import qrelent.harness as harness_module
        import qrelent.linalg as linalg_module

        counts = {}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("quantum_relative_q", "relative_entropy_vn"):
            counting(entropy_module, name)
        counting(linalg_module, "schatten_norm")
        for name in ("sample_density", "sigma_family"):
            counting(harness_module, name)
        return counts

    def test_sweep_row(self, rng, calls):
        pair = PairEval(sample_density(4, 4, rng), sigma_family(4, 0.1))
        sweep_row(pair, 1.5, 0.1, trial=0, stream_seed=1)
        assert calls == {"quantum_relative_q": 1, "relative_entropy_vn": 1, "schatten_norm": 2}
        sweep_row(pair, 2.0, 0.1, trial=0, stream_seed=1)
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


    def test_entropy_suite_repeats_no_evaluation(self, monkeypatch):
        import qrelent.harness as harness_module

        seen = []
        original = harness_module.quantum_relative_q

        def recording(rho, sigma, q):
            seen.append((rho.matrix.tobytes(), sigma.matrix.tobytes(), q))
            return original(rho, sigma, q)

        monkeypatch.setattr(harness_module, "quantum_relative_q", recording)
        run = harness_module._SuiteRun("entropy_properties", None, seed=4)
        harness_module._suite_entropy(run, SweepConfig(trials=10, seed=4), 10)
        assert run.failures == 0
        assert len(seen) == len(set(seen))


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

        write_state(tmp_path / "rho.json", DensityMatrix(np.diag([0.5, 0.5])))
        write_state(tmp_path / "sigma.json", DensityMatrix(np.diag([0.75, 0.25])))
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
        write_state(tmp_path / "sigma.json", DensityMatrix(np.diag([1.0, 0.0])))
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

        monkeypatch.setattr(hz, "_SUITES", (("forced", failing_suite, 5),))
        assert main(["verify", "--trials", "5",
                     "--out", str(tmp_path / "r.json")]) == 1
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["all_passed"] is False
        assert doc["suites"][0]["failures"] == 1

    def test_counterexample_replays(self, tmp_path, monkeypatch):
        import qrelent.harness as hz
        from qrelent.bounds import BoundReport
        from qrelent.entropy import ExtendedReal

        # the third thm1 instance (trial 2) fails: its report has rhs -1
        calls = []

        def thm1_bounds(pair, q):
            calls.append(q)
            rhs = -1.0 if len(calls) == 3 else 1.0
            return [BoundReport("forced", ExtendedReal.finite(0.0), rhs, rhs > 0.0)] * 2

        monkeypatch.setattr(hz, "thm1_bounds", thm1_bounds)
        monkeypatch.setattr(hz, "_SUITES", (("thm1_soundness", hz._suite_thm1, 1),))
        dims = (2, 3, 5)
        report = cmd_verify(SweepConfig(dims=dims, trials=4, seed=11,
                                        output_path=str(tmp_path / "r.json")))
        assert report.suites[0].failures == 2  # both reports of trial 2
        doc = json.loads((tmp_path / "counterexample_thm1_soundness_context.json").read_text())
        assert (doc["seed"], doc["trial"], doc["salt"]) == (11, 2, 7)
        # the replay recipe: the instance's stream, its dimension draw, then the pair
        rng = trial_stream(doc["seed"], doc["trial"], doc["salt"])
        d = int(rng.choice(dims))
        pair = sample_density(d, d, rng), sample_density(d, d, rng)
        for label, state in zip(("rho", "sigma"), pair):
            replay = tmp_path / f"replay_{label}.json"
            write_state(replay, state)
            assert replay.read_bytes() == open(doc[f"{label}_path"], "rb").read()

    def test_small_run_passes(self, tmp_path):
        config = SweepConfig(seed=1, trials=30, output_path=str(tmp_path / "report.json"))
        report = cmd_verify(config)
        assert report.passed
        names = [s.name for s in report.suites]
        assert "thm1_soundness" in names and "lemma1_psd_gap" in names
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["all_passed"] is True

    def test_report_byte_determinism(self, tmp_path):
        for name in ("r1.json", "r2.json"):
            cmd_verify(SweepConfig(seed=5, trials=20, output_path=str(tmp_path / name)))
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

    def test_non_ascii_state_file_exit_three(self, tmp_path, capsys):
        good = cmd_gen(2, 2, seed=7, out=tmp_path / "good.json")
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + good.read_bytes())
        assert main(["eval", str(bom), str(good)]) == 3
        assert capsys.readouterr().err.startswith("i/o error:")

    def test_undecodable_config_file_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b'{"seed": 3}\xff')
        assert main(["verify", "--config", str(cfg_path), "--trials", "1",
                     "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--dims", "2", "--q", "2", "--b0", "0.25", "--trials", "1"],
        ["gen", "--d", "2", "--rank", "2"],
    ], ids=lambda argv: argv[0])
    def test_empty_out_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--out", ""]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["gen", "--d", "2", "--rank", "2"],
        ["sweep", "--dims", "2", "--q", "2", "--b0", "0.25", "--trials", "1"],
        ["verify", "--trials", "1"],
    ], ids=lambda argv: argv[0])
    def test_out_is_directory_exit_three(self, argv, tmp_path, capsys):
        (tmp_path / "d").mkdir()
        assert main(argv + ["--out", str(tmp_path / "d")]) == 3
        assert capsys.readouterr().err.startswith("i/o error:")
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
        assert list((tmp_path / "d").iterdir()) == []

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

    def test_usage_error_exit_two(self, tmp_path, capsys):
        state = cmd_gen(2, 2, seed=7, out=tmp_path / "s.json")
        assert main(["eval", str(state), str(state), "--q", "0.5"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_internal_error_exit_four(self, tmp_path, capsys):
        from qrelent.states import write_state

        # b0^(1-q) = 1e390 overflows the eigenvalue power at q = Q_MAX
        rho = cmd_gen(16, 16, seed=7, out=tmp_path / "rho.json")
        write_state(tmp_path / "sigma.json", sigma_family(16, 1e-10))
        assert main(["eval", str(rho), str(tmp_path / "sigma.json"), "--q", "40"]) == 4
        assert capsys.readouterr().err.startswith("internal error:")

    def test_verify_ignores_sweep_grids(self, tmp_path):
        # the default b0 grid exceeds 1/16, but verify never reads it
        assert main(["verify", "--dims", "16", "--trials", "1",
                     "--out", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("argv", [
        ["eval", "a.json", "b.json", "--out", "x.json"],
        ["eval", "a.json", "b.json", "--dims", "2"],
        ["eval", "a.json", "b.json", "--config", "c.json"],
        ["gen", "--d", "2", "--rank", "2", "--out", "x.json", "--q", "2"],
        ["gen", "--d", "2", "--rank", "2", "--out", "x.json", "--quad-nodes", "8"],
        ["verify", "--b0", "0.1"],
        ["sweep", "--tol-bound", "1e-3"],
    ], ids=lambda argv: " ".join((argv[0], argv[-2])))
    def test_unused_flag_rejected(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # nothing lands in the working tree if a flag is accepted
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

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


@given(seed=st.integers(0, 2**63), salt=st.integers(0, 16),
       dims=st.lists(st.integers(2, 8), min_size=1, max_size=7))
@settings(max_examples=60, deadline=None)
def test_instances_draw_as_choice(seed, salt, dims):
    # each suite instance's dimension is the draw rng.choice(dims) makes, and
    # leaves the trial's stream where rng.choice leaves it
    run = harness._SuiteRun("demo", None, seed)
    for i, rng, d in harness._instances(run, SweepConfig(dims=tuple(dims)), 4, salt):
        reference = trial_stream(seed, i, salt=salt)
        assert d == int(reference.choice(dims))
        assert rng.standard_normal(3).tolist() == reference.standard_normal(3).tolist()
    assert run.instances == 4
