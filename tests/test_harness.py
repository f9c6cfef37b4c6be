import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrelent import cli, entropy, errors, harness, quadrature
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
from qrelent.linalg import HermitianOperator
from qrelent.states import (
    DensityMatrix,
    haar_bases,
    json_text,
    read_state,
    sample_common_support_pair,
    sample_density,
    trial_stream,
    write_state,
)


def _indented(doc) -> str:
    """The text every indented JSON artifact must equal."""
    return json.dumps(doc, sort_keys=True, indent=2)


def _strict_json(text: str):
    """json.loads, refusing the NaN and Infinity tokens that standard JSON lacks."""
    def refuse(token):
        raise ValueError(f"{token} is not standard JSON")

    return json.loads(text, parse_constant=refuse)


def _bare_instances(run, salt: int, count: int):
    """run.block_draws of ``count`` instances that draw no matrix, each
    yielded as its trial number."""
    return run.block_draws(salt, count, None, lambda trial, rng, d: ([], trial), list,
                           lambda made, drawn: drawn)


def _leaves(tree):
    """Every leaf of a tree of dicts and lists."""
    if isinstance(tree, dict):
        for value in tree.values():
            yield from _leaves(value)
    elif isinstance(tree, list):
        for item in tree:
            yield from _leaves(item)
    else:
        yield tree


@pytest.fixture
def json_docs(monkeypatch):
    """Every tree the harness hands its JSON writer, which still writes it."""
    docs = []

    def spy(obj):
        docs.append(obj)
        return json_text(obj)

    monkeypatch.setattr(harness, "json_text", spy)
    return docs


@pytest.fixture
def uncached_self_test():
    """A process whose commands have not run the quadrature self-test yet."""
    harness._self_test.cache_clear()
    yield
    harness._self_test.cache_clear()


class TestConfigValidation:
    def test_zero_trials(self):
        with pytest.raises(ConfigError):
            SweepConfig(trials=0).validate()

    def test_q_at_most_one(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_sweep(SweepConfig(q_grid=(1.0,), output_path=str(tmp_path / "x.csv")))

    @pytest.mark.parametrize("q", ["nan", "inf", "41"])
    def test_sweep_q_outside_range_names_q_grid(self, q, tmp_path, capsys):
        # D_q is defined for 1 < q <= Q_MAX, so validation rejects the rest,
        # a NaN included, before any row is evaluated
        out = tmp_path / "s.csv"
        assert main(["sweep", "--dims", "2", "--q", q, "--b0", "0.25", "--trials", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "q_grid" in err
        assert list(tmp_path.iterdir()) == []

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

    # stream_seed keeps 64 bits and puts the salt at bit 40: a seed outside
    # [0, 2^40) would alias another seed's streams
    @pytest.mark.parametrize("seed", [-1, 2**40, 2**40 + 5, 2**64 - 1, 2**64 + 5])
    def test_seed_outside_forty_bits(self, seed, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            SweepConfig(seed=seed).validate()
        with pytest.raises(ConfigError, match="seed"):
            cmd_gen(2, 2, seed=seed, out=tmp_path / "s.json")
        assert list(tmp_path.iterdir()) == []

    def test_seed_range_edges_are_accepted(self, tmp_path):
        for seed in (0, 2**40 - 1):
            SweepConfig(seed=seed).validate()
            cmd_gen(2, 2, seed=seed, out=tmp_path / f"s{seed}.json")

    # json reads NaN and Infinity, and an integer past the float range; no
    # grid holds one, and verify's report would echo it as non-standard JSON
    @pytest.mark.parametrize("command", ["verify", "sweep"])
    @pytest.mark.parametrize("text", [
        '{"q_grid": [NaN], "b0_grid": [Infinity]}', '{"b0_grid": [0.1, -Infinity]}',
        '{"q_grid": [2, 1e400]}', '{"b0_grid": [1' + "0" * 400 + "]}",
    ], ids=["nan", "-inf", "1e400", "int_1e400"])
    def test_non_finite_grid_exits_two(self, command, text, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(text)
        assert main([command, "--config", str(cfg_path), "--dims", "2", "--trials", "1",
                     "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "finite" in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    # the library route refuses what the config-file route refuses: verify
    # never reads the grids, but it echoes them into its report
    @pytest.mark.parametrize("grids", [
        {"q_grid": (math.nan,), "b0_grid": (math.inf,)}, {"b0_grid": (0.1, -math.inf)},
        {"q_grid": (2.0, math.nan)}, {"q_grid": (True,)},
    ], ids=["nan_inf", "-inf", "nan", "bool"])
    def test_non_finite_grid_in_library_config(self, grids, tmp_path):
        config = SweepConfig(dims=(2,), trials=1, output_path=str(tmp_path / "r.json"), **grids)
        key = next(iter(grids))
        with pytest.raises(ConfigError, match=f"{key} must be a list of finite numbers"):
            config.validate()
        for command in (cmd_verify, cmd_sweep):
            with pytest.raises(ConfigError, match="finite"):
                command(config)
        assert list(tmp_path.iterdir()) == []

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

    def test_dimension_one_rejected(self):
        # diag(1) has no eigenvalue b0, so the family needs d >= 2
        with pytest.raises(ConfigError):
            sigma_family(1, 0.5)

    def test_sweep_at_dimension_one_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--dims", "1", "--q", "2", "--b0", "0.5", "--trials", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_b0_at_zero_threshold_rejected(self, d):
        # the state zeroes every eigenvalue at or below d * eps, so a smaller
        # b0 would leave a state of rank 1 with no eigenvalue b0
        cut = d * np.finfo(np.float64).eps
        for b0 in (1e-17, cut):
            with pytest.raises(ConfigError):
                sigma_family(d, b0)
        assert sigma_family(d, 2.0 * cut).rank == d

    def test_sweep_below_zero_threshold_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--dims", "4", "--q", "1.5,2", "--b0", "1e-17", "--trials", "1",
                     "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []


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

    def test_ratio_column_at_tiny_b0(self, tmp_path):
        # b0^(q-1) underflows at q = 34 and 40, where the plain product
        # D_q * b0^(q-1) read 0 and NaN; both are finite and positive
        out = tmp_path / "edge.csv"
        cmd_sweep(SweepConfig(dims=(16,), q_grid=(34.0, 40.0), b0_grid=(1e-10,), trials=1,
                              seed=1, output_path=str(out)))
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
        pair = PairEval(sample_density(16, 16, trial_stream(1, 0, 0)), sigma_family(16, 1e-10))
        assert [(float(row["q"]), float(row["Dq"])) for row in rows] == [
            (34.0, pair.dq(34.0)), (40.0, math.inf)]
        for row in rows:
            ratio = float(row["ratio_dq_b0"])
            assert 0.0 < ratio < 1e-20
            assert ratio == pair.scaled_dq(float(row["q"]), 1e-10)


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

    def test_probes_build_one_sigma_per_b0(self, calls):
        divergence_envelope(seed=1, d=4)
        assert calls["sigma_family"] == len(harness.ENVELOPE_B0)
        assert calls["sample_density"] == 1
        calls.clear()
        tightness_crossover(seed=1, trials=3, d=4)
        assert calls["sigma_family"] == len(harness.CROSSOVER_B0)
        assert calls["sample_density"] == 3

    def test_thm1_batches_its_solves(self, monkeypatch):
        # 40 instances fill one block; per dimension one eigh builds the
        # states and one eigvalsh takes the distances, and per rank, which is
        # the dimension for these full-rank pairs, one eigh solves the
        # compressions
        counts = {"eigh": 0, "eigvalsh": 0}
        for name in counts:
            def counting(*args, _original=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        config = SweepConfig(seed=1)
        run = harness._SuiteRun("thm1_soundness", None, config.seed)
        harness._suite_thm1(run, config, 40)
        assert run.instances_run == 40 and run.failures == 0
        dims = {int(trial_stream(config.seed, i, 7).choice(config.dims)) for i in range(40)}
        assert counts == {"eigh": 2 * len(dims), "eigvalsh": len(dims)}

    def test_entropy_suite_repeats_no_evaluation(self, monkeypatch):
        import qrelent.entropy as entropy_module
        import qrelent.harness as harness_module

        seen = []
        original = entropy_module.quantum_relative_q

        def recording(rho, sigma, q, pair=None):
            seen.append((rho.matrix.tobytes(), sigma.matrix.tobytes(), q))
            return original(rho, sigma, q, pair)

        # the suite calls D_q directly and through each pair's PairEval.dq
        for module in (harness_module, entropy_module):
            monkeypatch.setattr(module, "quantum_relative_q", recording)
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

    def test_eval_output_is_indented_json(self, tmp_path, rng, capsys):
        import orjson

        # D_q = +inf ("inf") and vacuous reports (slack null) at q = 40; on
        # rho = diag(0.5, 0.5), sigma = diag(1 - 1e-10, 1e-10), D_q is near
        # 1e289 and 1e299 at q = 31 and 32, exponents json spells "e+289"
        write_state(tmp_path / "rho.json", sample_density(3, 3, rng))
        write_state(tmp_path / "sigma.json", DensityMatrix(np.diag([0.7, 0.3, 0.0])))
        write_state(tmp_path / "range_rho.json", DensityMatrix(np.diag([0.5, 0.5])))
        write_state(tmp_path / "range_sigma.json", DensityMatrix(np.diag([1 - 1e-10, 1e-10])))
        option = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS
        outs = []
        for prefix, q_list in (("", [1.5, 2.0, 40.0]), ("range_", [31.0, 32.0])):
            paths = [str(tmp_path / f"{prefix}{label}.json") for label in ("rho", "sigma")]
            assert main(["eval", *paths, "--q", ",".join(map(str, q_list))]) == 0
            out = capsys.readouterr().out
            assert out == orjson.dumps(cmd_eval(*paths, q_list), option=option).decode() + "\n"
            outs.append(out)
        assert '"inf"' in outs[0] and "null" in outs[0]
        assert "e289" in outs[1] and "e+" not in outs[1]

    @pytest.mark.parametrize("kind", ["full", "common", "excluded", "edge"])
    def test_eval_output_parses_back(self, kind, tmp_path, rng, capsys):
        # the benchmark's pair kinds: full rank, a common kernel, rho weighing
        # on the kernel of sigma (D_q = +inf), and b0 = 1e-10 at q = 40
        pairs = {
            "full": lambda: (sample_density(4, 4, rng), sample_density(4, 4, rng)),
            "common": lambda: sample_common_support_pair(4, 2, rng),
            "excluded": lambda: (sample_density(4, 4, rng), sample_density(4, 2, rng)),
            "edge": lambda: (sample_density(16, 16, rng), sigma_family(16, 1e-10)),
        }
        q_list = [1.5, 2.0, 3.0] + ([40.0] if kind == "edge" else [])
        paths = [str(tmp_path / f"{label}.json") for label in ("rho", "sigma")]
        for path, state in zip(paths, pairs[kind]()):
            write_state(path, state)
        doc = cmd_eval(*paths, q_list)
        assert main(["eval", *paths, "--q", ",".join(map(str, q_list))]) == 0
        assert _strict_json(capsys.readouterr().out) == doc
        # orjson refuses numpy scalars, which json accepted as float subclasses
        assert {type(leaf) for leaf in _leaves(doc)} <= {float, int, bool, str, type(None)}
        if kind in ("excluded", "edge"):
            assert "inf" in list(_leaves(doc))

    def test_eval_under_a_non_ascii_directory(self, tmp_path):
        # eval prints a path's non-ASCII characters as themselves, in UTF-8;
        # a stdout that cannot encode them is an i/o error
        state = cmd_gen(2, 2, seed=7, out=tmp_path / "\u00e9tats \u03c8" / "rho.json")
        src = str(Path(cli.__file__).resolve().parents[1])
        procs = [subprocess.run([sys.executable, "-m", "qrelent", "eval", str(state), str(state)],
                                env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING=encoding),
                                capture_output=True, check=False)
                 for encoding in ("utf-8", "ascii")]
        assert procs[0].returncode == 0, procs[0].stderr
        doc = _strict_json(procs[0].stdout.decode("utf-8"))
        assert doc["rho_path"] == doc["sigma_path"] == str(state)
        assert "\u00e9tats \u03c8".encode() in procs[0].stdout
        assert procs[1].returncode == 3
        assert procs[1].stdout == b""
        assert procs[1].stderr.startswith(b"i/o error:") and procs[1].stderr.count(b"\n") == 1

    def test_eval_path_that_is_not_utf8(self, tmp_path, capsys):
        # a file name's byte 0xff, held by Python as a lone surrogate, has no
        # UTF-8 text: it is written as the escape \xff
        state = cmd_gen(2, 2, seed=7, out=tmp_path / os.fsdecode(b"st\xffte.json"))
        assert main(["eval", str(state), str(state)]) == 0
        doc = _strict_json(capsys.readouterr().out)
        assert doc["rho_path"] == str(tmp_path / "st\\xffte.json")

    def test_gen_then_eval_round_trip(self, tmp_path):
        p1 = cmd_gen(4, 4, seed=3, out=tmp_path / "a.json")
        p2 = cmd_gen(4, 2, seed=4, out=tmp_path / "b.json")
        doc = cmd_eval(p1, p2, [1.5])
        assert doc["dim"] == 4


class TestVerify:
    def test_counterexample_serialization(self, tmp_path, rng):
        from qrelent.harness import _SuiteRun

        run = _SuiteRun("demo", tmp_path, seed=3)
        states = (sample_density(2, 2, rng), sample_density(2, 2, rng))
        for _ in _bare_instances(run, 4, 1):
            run.le("forced", 1.5, 1.0, 0.0, states=states, q=2.0)
        assert run.failures == 1
        assert run.counterexample_path is not None
        doc = json.loads((tmp_path / "counterexample_demo_context.json").read_text())
        assert doc == {"suite": "demo", "seed": 3, "trial": 0, "salt": 4, "check": "forced",
                       "margin": -0.5, "q": 2.0, "rho_path": doc["rho_path"],
                       "sigma_path": doc["sigma_path"]}
        assert read_state(doc["rho_path"]).dim == 2

    def test_counterexample_context_is_indented_json(self, tmp_path, rng, json_docs):
        from qrelent.harness import _SuiteRun

        states = (sample_density(2, 2, rng), sample_density(2, 2, rng))
        with_states = _SuiteRun("numeric", tmp_path, seed=3)
        verdict_only = _SuiteRun("verdict", tmp_path, seed=3)  # margin null
        for _ in _bare_instances(with_states, 4, 1):
            with_states.le("forced", 1.5, 1.0, 0.0, states=states, q=2.0)
            verdict_only.verdict("forced", False, label="\u00e9\t")
        assert len(json_docs) == 2
        for run, doc in zip((with_states, verdict_only), json_docs):
            assert open(run.counterexample_path, encoding="ascii").read() == _indented(doc)
        assert json_docs[1]["margin"] is None

    def test_report_is_indented_json(self, tmp_path, json_docs):
        config = SweepConfig(dims=(2, 3), trials=3, seed=4, output_path=str(tmp_path / "r.json"))
        cmd_verify(config)
        (doc,) = json_docs
        assert isinstance(doc["config"]["dims"], tuple)
        assert (tmp_path / "r.json").read_text(encoding="ascii") == _indented(doc) + "\n"

    @pytest.mark.parametrize("lhs, rhs, written", [
        (math.nan, 1.0, "nan"), (1.0, math.nan, "nan"), (math.inf, 1.0, "-inf"),
    ])
    def test_non_finite_margin_is_a_string(self, lhs, rhs, written, tmp_path, monkeypatch):
        import qrelent.harness as hz

        def failing_suite(run, config, count):
            run.instances_run += 1
            run.le("forced", lhs, rhs, 0.0)

        monkeypatch.setattr(hz, "_SUITES", (("forced", failing_suite, 5),))
        assert main(["verify", "--trials", "5", "--out", str(tmp_path / "r.json")]) == 1
        context = tmp_path / "counterexample_forced_context.json"
        assert _strict_json(context.read_text(encoding="ascii"))["margin"] == written
        _strict_json((tmp_path / "r.json").read_text(encoding="ascii"))

    def test_failure_exit_code_and_report(self, tmp_path, monkeypatch):
        import qrelent.harness as hz

        def failing_suite(run, config, count):
            run.instances_run += 1
            run.le("forced", 1.0, 0.0, 0.0)

        monkeypatch.setattr(hz, "_SUITES", (("forced", failing_suite, 5),))
        assert main(["verify", "--trials", "5",
                     "--out", str(tmp_path / "r.json")]) == 1
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["all_passed"] is False
        assert doc["suites"][0]["failures"] == 1

    def test_counterexample_replays(self, tmp_path, monkeypatch):
        import qrelent.harness as hz
        from qrelent.bounds import BoundReport

        # the third thm1 instance (trial 2) fails: its report has rhs -1
        calls = []

        def thm1_bounds(pair, q):
            calls.append(q)
            rhs = -1.0 if len(calls) == 3 else 1.0
            return [BoundReport("forced", 0.0, rhs, rhs > 0.0)] * 2

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

    def test_common_kernel_counterexample_replays(self, tmp_path, monkeypatch):
        import qrelent.harness as hz
        from qrelent.bounds import BoundReport
        from qrelent.states import sample_common_support_pair

        # the fourth thm2 instance (trial 3, odd, so a pair with a common
        # kernel) fails: its first report has rhs -1
        calls = []

        def thm2_bound(pair, q, variant):
            calls.append((pair.rho.rank, pair.sigma.rank))
            rhs = -1.0 if len(calls) == 7 else 1.0
            return BoundReport("forced", 0.0, rhs, rhs > 0.0)

        monkeypatch.setattr(hz, "thm2_bound", thm2_bound)
        monkeypatch.setattr(hz, "_SUITES", (("thm2_soundness", hz._suite_thm2, 1),))
        dims = (2, 3, 5)
        report = cmd_verify(SweepConfig(dims=dims, trials=6, seed=13,
                                        output_path=str(tmp_path / "r.json")))
        assert report.suites[0].failures == 1
        doc = json.loads((tmp_path / "counterexample_thm2_soundness_context.json").read_text())
        assert (doc["seed"], doc["trial"], doc["salt"]) == (13, 3, 8)
        # the replay recipe's common-kernel branch: the support rank k and
        # rho's rank on it follow the dimension draw, then the pair
        rng = trial_stream(doc["seed"], doc["trial"], doc["salt"])
        d = int(rng.choice(dims))
        k = int(rng.integers(1, d))
        rho_rank = int(rng.integers(1, k + 1))
        pair = sample_common_support_pair(d, k, rng, rho_rank)
        assert (pair[0].rank, pair[1].rank) == calls[6] == (rho_rank, k)
        for label, state in zip(("rho", "sigma"), pair):
            replay = tmp_path / f"replay_{label}.json"
            write_state(replay, state)
            assert replay.read_bytes() == open(doc[f"{label}_path"], "rb").read()

    @pytest.mark.parametrize("suite, builder, patched, salt, trial", [
        ("divergence_envelope", "_suite_envelope", "thm3_bound", 14, 0),
        ("tightness_crossover", "_suite_crossover", "thm2_bound", 15, 1),
    ])
    def test_probe_counterexamples_replay(self, tmp_path, monkeypatch,
                                          suite, builder, patched, salt, trial):
        import dataclasses

        import qrelent.harness as hz

        honest, states = getattr(hz, patched), []

        def forced(pair, q, variant):
            # the seventh evaluation fails: its bound is negative
            states.append(pair.rho)
            rep = honest(pair, q, variant)
            return dataclasses.replace(rep, rhs=-1.0, holds=False) if len(states) == 7 else rep

        monkeypatch.setattr(hz, patched, forced)
        monkeypatch.setattr(hz, "_SUITES", ((suite, getattr(hz, builder), 1),))
        report = cmd_verify(SweepConfig(trials=40, seed=5, output_path=str(tmp_path / "r.json")))
        assert report.suites[0].failures == 1
        doc = json.loads((tmp_path / f"counterexample_{suite}_context.json").read_text())
        assert (doc["seed"], doc["trial"], doc["salt"]) == (5, trial, salt)
        rho = sample_density(4, 4, trial_stream(doc["seed"], doc["trial"], doc["salt"]))
        assert np.array_equal(rho.matrix, states[6].matrix)

    # thm2 at seed 2 comes closest at trial 11, a common-kernel pair
    @pytest.mark.parametrize("builder, seed", [("_suite_thm1", 17), ("_suite_thm2", 2),
                                               ("_suite_thm3", 17)])
    def test_closest_replays(self, builder, seed):
        # the suite's tightest instance redraws from (seed, trial, salt), and
        # its bound gives the recorded ratio bit for bit
        from qrelent.bounds import UPPER_BOUNDS
        from qrelent.states import sample_common_support_pair

        config = SweepConfig(dims=(2, 3, 5), seed=seed)
        run = harness._SuiteRun("demo", None, config.seed)
        getattr(harness, builder)(run, config, 30)
        closest = run.closest
        rng = trial_stream(config.seed, closest["trial"], closest["salt"])
        d = int(rng.choice(config.dims))
        if builder != "_suite_thm1" and closest["trial"] % 2 == 1:
            k = int(rng.integers(1, d))
            rho, sigma = sample_common_support_pair(d, k, rng, int(rng.integers(1, k + 1)))
        else:
            rho, sigma = sample_density(d, d, rng), sample_density(d, d, rng)
        pair = PairEval(rho, sigma)
        reports = [rep for spec in UPPER_BOUNDS if spec.applies(closest["q"])
                   for rep in spec.evaluate(pair, closest["q"])]
        if closest["check"] == "rhs1_le_rhs2":
            ratio = reports[0].rhs / reports[1].rhs
        else:
            (rep,) = [rep for rep in reports if rep.name == closest["check"]]
            ratio = rep.lhs / rep.rhs
        assert ratio == closest["ratio"]

    def test_small_run_passes(self, tmp_path):
        config = SweepConfig(seed=1, trials=30, output_path=str(tmp_path / "report.json"))
        report = cmd_verify(config)
        assert report.passed
        names = [s.name for s in report.suites]
        assert "thm1_soundness" in names and "lemma1_psd_gap" in names
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["all_passed"] is True

    def test_report_shape(self, tmp_path):
        cmd_verify(SweepConfig(seed=2, trials=5, output_path=str(tmp_path / "report.json")))
        doc = json.loads((tmp_path / "report.json").read_text())
        assert sorted(doc) == ["all_passed", "config", "seed", "suites"]
        assert [s["name"] for s in doc["suites"]] == [name for name, _, _ in harness._SUITES]
        for suite in doc["suites"]:
            assert sorted(suite) == ["closest", "counterexample_path", "failures",
                                     "instances_run", "name", "worst_slack"]

    def test_report_byte_determinism(self, tmp_path):
        for name in ("r1.json", "r2.json"):
            cmd_verify(SweepConfig(seed=5, trials=20, output_path=str(tmp_path / name)))
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


class TestExperimentHelpers:
    def test_envelope_records(self):
        records = divergence_envelope(seed=1, d=4)
        assert len(records) == 18
        assert all(rec["holds"] for rec in records)
        assert all(rec["ratio"] <= rec["envelope_constant"] * (1 + 1e-9) + 1e-9
                   for rec in records)

    def test_crossover_records(self):
        records = tightness_crossover(seed=1, trials=3, d=4)
        assert len(records) == 12
        assert all(rec["tighter"] for rec in records)

    @pytest.mark.parametrize("seed", [-1, 1 << 40])
    def test_probes_check_the_seed(self, seed):
        # as the CLI does: such a seed would alias another seed's streams
        with pytest.raises(ConfigError):
            divergence_envelope(seed=seed, d=4)
        with pytest.raises(ConfigError):
            tightness_crossover(seed=seed, trials=1, d=4)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_crossover_needs_a_trial(self, trials):
        # no trial would tabulate nothing and report "0/0 cases"
        with pytest.raises(ConfigError):
            tightness_crossover(seed=1, trials=trials, d=4)

    @pytest.mark.parametrize("script", ["divergence_rate.py", "tightness_crossover.py"])
    @pytest.mark.parametrize("argv", [["--d", "1"], ["--seed", "-1"]])
    def test_probe_script_usage_error(self, script, argv):
        _assert_script_usage_error(script, argv)

    @pytest.mark.parametrize("script, argv", [
        ("tightness_crossover.py", ["--trials", "0"]),
        ("tightness_crossover.py", ["--trials", "-3"]),
        ("quadrature_budget.py", ["--operands", "0"]),
        ("quadrature_budget.py", ["--operands", "-2"]),
        ("quadrature_budget.py", ["--seed", "-1"]),
        ("cold_start.py", ["--runs", "0"]),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else value)
    def test_script_bad_count_or_seed(self, script, argv):
        _assert_script_usage_error(script, argv)


def test_cold_start_outside_an_install():
    # -S and no PYTHONPATH: the interpreter cannot import qrelent, and the
    # script says how to point it at the tree
    script = Path(__file__).resolve().parents[1] / "scripts" / "cold_start.py"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-S", str(script), "--runs", "1"], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "PYTHONPATH=src" in proc.stderr


def _assert_script_usage_error(script: str, argv: list[str]) -> None:
    """A bad argument is one line on stderr and exit 2, as in the CLI."""
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(scripts / script), *argv], check=False,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


#: the exit code cli.main documents for each error type of qrelent.errors
EXIT_CODES = {
    "UsageError": 2, "NonHermitianInput": 2, "NonFiniteInput": 2, "DomainViolation": 2,
    "NotPSD": 2, "NotNormalized": 2, "BadSpectrum": 2, "DimensionMismatch": 2,
    "QOutOfRange": 2, "BadFactorization": 2, "PreconditionFailed": 2, "ConfigError": 2,
    "ParseError": 3,
    "InternalError": 4, "ConvergenceFailure": 4, "InternalInconsistency": 4,
}
ERROR_TYPES = [v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)]


class TestCli:
    @pytest.mark.parametrize("error", ERROR_TYPES, ids=lambda error: error.__name__)
    def test_exit_code_by_error_type(self, error, monkeypatch, capsys):
        def fail(args):
            raise error("forced")

        monkeypatch.setattr(cli, "_run_eval", fail)
        assert main(["eval", "rho.json", "sigma.json"]) == EXIT_CODES[error.__name__]
        assert "forced" in capsys.readouterr().err

    def test_every_error_type_has_an_exit_code(self):
        assert sorted(EXIT_CODES) == sorted(error.__name__ for error in ERROR_TYPES)

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

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_non_finite_literal_exit_three(self, token, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"dim": 1, "re": [[{token}]], "im": [[0.0]]}}')
        good = cmd_gen(1, 1, seed=7, out=tmp_path / "good.json")
        assert main(["eval", str(bad), str(good)]) == 3
        assert main(["eval", str(good), str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error:")

    @pytest.mark.parametrize("deep", [
        "[" * 100_000 + "]" * 100_000,
        '{"a": ' * 100_000 + "1" + "}" * 100_000,
    ], ids=["arrays", "objects"])
    def test_deep_nesting_exit_codes(self, deep, tmp_path):
        # a fresh process per command, so a decoder that overflows the C stack
        # fails this test and not the whole run
        (tmp_path / "deep.json").write_text(deep)
        cmd_gen(2, 2, seed=7, out=tmp_path / "good.json")
        sweep = ["sweep", "--dims", "2", "--q", "2", "--b0", "0.25", "--trials", "1",
                 "--out", "s.csv"]
        src = str(Path(cli.__file__).resolve().parents[1])
        for argv, code, prefix in (
            (["eval", "deep.json", "good.json"], 3, "i/o error:"),
            (["eval", "good.json", "deep.json"], 3, "i/o error:"),
            ([*sweep, "--config", "deep.json"], 2, "error:"),
            (["verify", "--trials", "1", "--out", "v.json", "--config", "deep.json"], 2, "error:"),
        ):
            proc = subprocess.run([sys.executable, "-m", "qrelent", *argv], cwd=tmp_path,
                                  env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                                  text=True, check=False)
            assert proc.returncode == code, proc.stderr[-2000:]
            assert proc.stdout == ""
            assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.json", "good.json"]

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

    def test_zero_weight_overflow_exit_zero(self, tmp_path, capsys):
        # rho has no weight on sigma's b = 1e-10 column: D_q at q = 40 is finite
        paths = [tmp_path / "rho.json", tmp_path / "sigma.json"]
        for path, diag in zip(paths, ([1.0, 0.0], [0.9999999999, 1e-10])):
            write_state(path, DensityMatrix(np.diag(diag)))
        assert main(["eval", *map(str, paths), "--q", "40"]) == 0
        dq = json.loads(capsys.readouterr().out)["per_q"][0]["Dq"]
        # 40-digit mpmath on the stored spectrum: (b^-39 - 1)/39, b = 0.9999999999
        assert abs(dq - 1.00000008474037133e-10) <= 1e-14 * 1.00000008474037133e-10

    def test_usage_error_exit_two(self, tmp_path, capsys):
        state = cmd_gen(2, 2, seed=7, out=tmp_path / "s.json")
        assert main(["eval", str(state), str(state), "--q", "0.5"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("q_arg", ["", ","])
    def test_eval_empty_q_exit_two(self, q_arg, tmp_path, capsys):
        state = cmd_gen(2, 2, seed=7, out=tmp_path / "s.json")
        assert main(["eval", str(state), str(state), "--q", q_arg]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_eval_default_q_is_two(self, tmp_path, capsys):
        state = cmd_gen(2, 2, seed=7, out=tmp_path / "s.json")
        assert main(["eval", str(state), str(state)]) == 0
        assert [entry["q"] for entry in json.loads(capsys.readouterr().out)["per_q"]] == [2.0]

    @pytest.mark.parametrize("argv", [
        ["gen", "--d", "2", "--rank", "2", "--seed", "18446744073709551621"],
        ["gen", "--d", "2", "--rank", "2", "--seed", "-1"],
        ["sweep", "--dims", "2", "--q", "2", "--b0", "0.25", "--trials", "1", "--seed", "-1"],
        ["sweep", "--dims", "2", "--q", "2", "--b0", "0.25", "--trials", "1",
         "--seed", "18446744073709551615"],
        ["verify", "--trials", "1", "--seed", str(2**40)],
    ], ids=lambda argv: f"{argv[0]} {argv[-1]}")
    def test_seed_outside_forty_bits_exit_two(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_self_test_runs_once_per_process(self, tmp_path, monkeypatch, capsys,
                                             uncached_self_test):
        calls = []
        self_test = quadrature.self_test
        monkeypatch.setattr(quadrature, "self_test", lambda: calls.append(1) or self_test())
        rho, sigma = (str(cmd_gen(2, 2, seed, tmp_path / f"{seed}.json")) for seed in (1, 2))
        assert main(["eval", rho, sigma]) == 0
        sweep = ["sweep", "--dims", "2", "--trials", "1", "--out", str(tmp_path / "s.csv")]
        assert main(sweep) == 0
        assert main(["eval", sigma, rho]) == 0
        assert len(calls) == 1

    def test_failed_self_test_exits_two(self, tmp_path, monkeypatch, capsys, uncached_self_test):
        # a raised error is not cached: every command runs the self-test again
        calls = []

        def failing():
            calls.append(1)
            raise ConfigError("forced self-test failure")

        monkeypatch.setattr(quadrature, "self_test", failing)
        rho = str(cmd_gen(2, 2, 1, tmp_path / "rho.json"))
        out = ["--out", str(tmp_path / "out")]
        for argv in (["eval", rho, rho], ["sweep", "--dims", "2", *out], ["verify", *out]):
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: forced self-test failure\n"
        assert len(calls) == 3
        assert not (tmp_path / "out").exists()

    def test_parser_is_shared(self):
        assert cli.build_parser() is cli.build_parser()

    def test_repeated_calls_match_fresh_processes(self, tmp_path, monkeypatch, capsys):
        # one process runs every command in turn on the shared parser; each
        # exit code, output and artifact equals that of a fresh process
        states = ("rho.json", "sigma.json")
        sequence = [
            ["verify", "--trials", "2", "--dims", "2,3", "--seed", "5", "--out", "v.json"],
            ["sweep", "--dims", "2", "--q", "1.5,2", "--b0", "0.25", "--trials", "2",
             "--seed", "3", "--out", "s.csv"],
            ["eval", *states, "--q", "1.5,2"],
            ["eval", *reversed(states), "--q", "1.5,2"],
            ["gen", "--d", "3", "--rank", "2", "--seed", "9", "--out", "g.json"],
            ["eval", *states, "--bogus"],
            ["sweep", "--help"],
            ["eval", "missing.json", "rho.json"],
            ["eval", "g.json", "g.json", "--q", "3"],
        ]
        monkeypatch.setenv("COLUMNS", "80")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        runs = {}
        for mode in ("shared", "fresh"):
            work = tmp_path / mode
            work.mkdir()
            write_state(work / states[0], DensityMatrix(np.diag([0.5, 0.3, 0.2])))
            write_state(work / states[1], DensityMatrix(np.diag([0.2, 0.2, 0.6])))
            monkeypatch.chdir(work)
            results = []
            for argv in sequence:
                if mode == "shared":
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
                    captured = capsys.readouterr()
                    results.append((code, captured.out, captured.err))
                else:
                    proc = subprocess.run([sys.executable, "-m", "qrelent", *argv], env=env,
                                          capture_output=True, text=True, check=False)
                    results.append((proc.returncode, proc.stdout, proc.stderr))
            artifacts = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
            runs[mode] = results, artifacts
        assert [code for code, _, _ in runs["shared"][0]] == [0, 0, 0, 0, 0, 2, 0, 3, 0]
        assert runs["shared"] == runs["fresh"]

    def test_only_verify_imports_scipy(self, tmp_path):
        # a fresh interpreter runs gen, eval and sweep without loading scipy;
        # verify, whose quadrature suites factor operators with it, still passes
        script = """if True:
            import json, sys
            from qrelent.cli import main
            codes = [main(["gen", "--d", "8", "--rank", "8", "--seed", "2", "--out", "rho.json"]),
                     main(["gen", "--d", "8", "--rank", "5", "--seed", "3", "--out", "sigma.json"]),
                     main(["eval", "rho.json", "sigma.json", "--q", "1.5,2,3"]),
                     main(["eval", "sigma.json", "rho.json", "--q", "2"]),
                     main(["sweep", "--dims", "8", "--trials", "2", "--seed", "1",
                           "--out", "s.csv"])]
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            codes.append(main(["verify", "--trials", "5", "--seed", "1", "--out", "v.json"]))
            sys.stderr.write(json.dumps([codes, loaded]))
        """
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, check=False,
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        codes, loaded = json.loads(proc.stderr)
        assert codes == [0, 0, 0, 0, 0, 0]
        assert loaded == []

    def test_only_eval_imports_orjson(self, tmp_path):
        # a fresh interpreter runs gen, sweep and verify without loading orjson;
        # eval loads it on its first state file
        script = """if True:
            import json, sys
            from qrelent.cli import main
            def orjson_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] == "orjson")
            codes = [main(["gen", "--d", "4", "--rank", "4", "--seed", "2", "--out", "rho.json"]),
                     main(["gen", "--d", "4", "--rank", "3", "--seed", "3", "--out", "sigma.json"]),
                     main(["sweep", "--dims", "4", "--q", "2", "--b0", "0.25", "--trials", "2",
                           "--seed", "1", "--out", "s.csv"]),
                     main(["verify", "--trials", "5", "--seed", "1", "--out", "v.json"])]
            before = orjson_modules()
            codes.append(main(["eval", "rho.json", "sigma.json", "--q", "2"]))
            sys.stderr.write(json.dumps([codes, before, orjson_modules()]))
        """
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, check=False,
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        codes, before, after = json.loads(proc.stderr)
        assert codes == [0, 0, 0, 0, 0]
        assert before == []
        assert "orjson" in after

    def test_internal_error_exit_four(self, tmp_path, capsys, monkeypatch):
        # a cross-route check that no pair passes: the routes "disagree"
        monkeypatch.setattr(entropy, "CROSS_CHECK_TOL", -1.0)
        state = cmd_gen(4, 4, seed=7, out=tmp_path / "s.json")
        assert main(["eval", str(state), str(state), "--q", "2"]) == 4
        assert capsys.readouterr().err.startswith("internal error:")

    def test_eval_past_float_range_exit_zero(self, tmp_path, capsys):
        # b0^(1-q) = 1e390 alone overflows at q = Q_MAX; D_q stays finite
        # while it fits in float64, and is +inf, with a +inf thm3 rhs, past it
        rho = cmd_gen(16, 16, seed=7, out=tmp_path / "rho.json")
        write_state(tmp_path / "sigma.json", sigma_family(16, 1e-10))
        assert main(["eval", str(rho), str(tmp_path / "sigma.json"),
                     "--q", "3,34,35,40"]) == 0
        per_q = json.loads(capsys.readouterr().out)["per_q"]
        assert [type(e["Dq"]) for e in per_q] == [float, float, str, str]
        assert 1e304 < per_q[1]["Dq"] < 1e305
        for entry in per_q[2:]:
            rep = entry["reports"]["thm3_rhs"]
            assert entry["Dq"] == rep["lhs"] == rep["rhs"] == "inf"
            assert rep["holds"] is True and rep["slack"] is None

    def test_eval_first_float_range_pair(self, tmp_path, capsys):
        # rho = diag(0.5, 0.5), sigma = diag(1 - 1e-10, 1e-10): D_32 in closed
        # form at 40 digits, then past the float range from q = 33 on
        paths = [tmp_path / "rho.json", tmp_path / "sigma.json"]
        paths[0].write_text('{"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}')
        paths[1].write_text('{"dim": 2, "re": [[0.9999999999, 0], [0, 1e-10]], '
                            '"im": [[0, 0], [0, 0]]}')
        assert main(["eval", *map(str, paths), "--q", "32,33,40"]) == 0
        per_q = json.loads(capsys.readouterr().out)["per_q"]
        assert abs(per_q[0]["Dq"] - 7.5106659243183666e298) <= 1e-12 * 7.5106659243183666e298
        assert per_q[0]["reports"]["thm3_rhs"]["rhs"] == "inf"
        for entry in per_q[1:]:
            assert entry["Dq"] == entry["reports"]["thm3_rhs"]["rhs"] == "inf"
            assert entry["reports"]["thm3_rhs"]["holds"] is True

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


@pytest.mark.parametrize("lhs, rhs, allowance, holds, worst", [
    (1.0, 1.0, 0.0, True, 0.0),  # a margin of exactly 0 holds
    (2.0, 1.0, 1.0, True, 0.0),
    (0.5, 1.0, 0.0, True, 0.5),
    (1.0, 0.5, 0.25, False, -0.25),
    (math.nan, 1.0, 0.0, False, None),  # a NaN margin fails
    (1.0, math.nan, 0.0, False, None),
    (0.0, 1.0, math.nan, False, None),
    (math.inf, 1.0, 0.0, False, None),  # -inf fails and is not recorded
    (0.0, -math.inf, 0.0, False, None),
    (5.0, math.inf, 0.0, True, None),  # +inf holds and is not recorded
    (math.inf, math.inf, 0.0, True, None),
    (math.nan, math.inf, 0.0, False, None),
])
def test_inequality_rule(lhs, rhs, allowance, holds, worst):
    from qrelent.bounds import margin

    assert (margin(lhs, rhs, allowance) >= 0.0) is holds
    run = harness._SuiteRun("demo", None, 1)
    run.le("rule", lhs, rhs, allowance)
    assert (run.failures, run.worst_slack) == (0 if holds else 1, worst)


def test_closest_is_largest_finite_ratio():
    run = harness._SuiteRun("demo", None, 1)
    assert run.closest is None
    for name, lhs, rhs in (("zero_rhs", 1.0, 0.0), ("inf_rhs", 1.0, math.inf),
                           ("inf_lhs", math.inf, 1.0), ("negative_rhs", -1.0, -1.0)):
        run.le(name, lhs, rhs, 1.0)
    assert run.closest is None
    for _ in _bare_instances(run, 6, 1):
        run.le("first", 1.0, 4.0, 0.0, q=1.5)
        run.le("tie", 2.0, 8.0, 0.0)
        run.le("lower", 0.1, 4.0, 0.0)
    assert run.closest == {"check": "first", "ratio": 0.25, "trial": 0, "salt": 6, "q": 1.5}


@given(seed=st.integers(0, 2**63), salt=st.integers(0, 16),
       dims=st.lists(st.integers(2, 8), min_size=1, max_size=7))
@settings(max_examples=60, deadline=None)
def test_instances_draw_as_choice(seed, salt, dims):
    # each instance is counted and its dimension drawn, as rng.choice(dims)
    # draws it, before its draw is called; the draw and then the checks read
    # the trial's stream on from where rng.choice leaves it
    run = harness._SuiteRun("demo", None, seed)

    def draw(i, rng, d):
        assert run.instances_run == i + 1
        reference = trial_stream(seed, i, salt=salt)
        assert d == int(reference.choice(dims))
        assert rng.standard_normal(3).tolist() == reference.standard_normal(3).tolist()
        return [], reference

    for i, rng, reference in run.block_draws(salt, 4, dims, draw, list,
                                             lambda made, drawn: drawn):
        assert rng.standard_normal(3).tolist() == reference.standard_normal(3).tolist()
    assert run.instances_run == 4

    # with no dims, draw gets the trial's stream before any draw
    def draw_undimensioned(i, rng, d):
        assert d is None
        fresh = trial_stream(seed, i, salt=salt)
        assert rng.standard_normal(3).tolist() == fresh.standard_normal(3).tolist()
        return [], i

    instances = run.block_draws(salt, 3, None, draw_undimensioned, DensityMatrix.stack,
                                lambda made, drawn: drawn)
    assert [(i, instance) for i, _, instance in instances] == [(0, 0), (1, 1), (2, 2)]
    assert run.instances_run == 7


#: the suites that draw their instances and build them in blocks: all but
#: the two probes
_STACKING_SUITES = {"_suite_linalg_norms", "_suite_quadrature", "_suite_states",
                    "_suite_entropy", "_suite_thm1", "_suite_thm2", "_suite_thm3",
                    "_suite_lower", "_suite_lemma1", "_suite_lemma2", "_suite_lemma3"}
#: suite -> the kernel calls of one block, in order, each with its matrices
#: per instance: the construction kernel, then any kernel its build calls
_BLOCK_CALLS = {"_suite_linalg_norms": [("HermitianOperator", 2)],
                "_suite_quadrature": [("haar_bases", 1)],
                "_suite_states": [("DensityMatrix", 4), ("haar_bases", 1), ("DensityMatrix", 1)],
                "_suite_lemma1": [("HermitianOperator", 2)],
                "_suite_lemma2": [("HermitianOperator", 2)],
                "_suite_lemma3": [("HermitianOperator", 2)]}
#: the suites of harness._pairs, whose blocks make their states, the Haar
#: bases of their common-kernel pairs, then their contexts
_PAIR_SUITES = {"_suite_entropy", "_suite_thm1", "_suite_thm2", "_suite_thm3", "_suite_lower"}
#: the block of _suite_entropy's properties (30 // 5 instances): its states,
#: two Haar bases, six derived states and ten contexts per instance
_PROPERTY_CALLS = [("DensityMatrix", 10), ("haar_bases", 2), ("DensityMatrix", 6),
                   ("PairEval.stack", 10)]
#: probe -> its calls, which no block size changes
_PROBE_CALLS = {"_suite_envelope": [("PairEval.stack", 6)],
                "_suite_crossover": [("PairEval.stack", 20)]}


def _runs_of(calls: list, sub: list) -> int:
    """The number of places where ``sub`` is a contiguous run of ``calls``."""
    return sum(calls[k : k + len(sub)] == sub for k in range(len(calls)))


@pytest.mark.parametrize("builder", [b.__name__ for _, b, _ in harness._SUITES])
def test_block_size_changes_no_result(monkeypatch, builder):
    # with one instance per block, as with the default blocks, a suite gives
    # the same record; a suite that draws in blocks calls each of its kernels
    # once per block, and the probes make the same calls either way
    calls = []
    stack = HermitianOperator.stack.__func__
    pair_stack = PairEval.stack.__func__

    def counted(cls, matrices):
        calls.append((cls.__name__, len(matrices)))
        return stack(cls, matrices)

    def counted_pairs(cls, operands):
        operands = list(operands)
        calls.append(("PairEval.stack", len(operands)))
        return pair_stack(cls, operands)

    def counted_bases(ginibres):
        calls.append(("haar_bases", len(ginibres)))
        return haar_bases(ginibres)

    # DensityMatrix inherits the kernel of HermitianOperator
    monkeypatch.setattr(HermitianOperator, "stack", classmethod(counted))
    monkeypatch.setattr(PairEval, "stack", classmethod(counted_pairs))
    monkeypatch.setattr(harness, "haar_bases", counted_bases)

    def run_suite(block_bytes):
        monkeypatch.setattr(harness, "_BLOCK_BYTES", block_bytes)
        calls.clear()
        run = harness._SuiteRun(builder, None, 5)
        getattr(harness, builder)(run, SweepConfig(seed=5), 30)
        return run, list(calls)

    default, default_calls = run_suite(harness._BLOCK_BYTES)
    alone, alone_calls = run_suite(1)
    for key in harness.SUITE_FIELDS:
        assert getattr(alone, key) == getattr(default, key), key
    assert default.failures == 0
    if builder in _STACKING_SUITES:
        assert default.instances_run >= 30
        # every instance draws at least one matrix, alone in its block
        assert len([n for _, n in alone_calls if n]) >= 30 > len(default_calls)
    else:
        assert alone_calls == default_calls == _PROBE_CALLS[builder]
    if builder in _BLOCK_CALLS:
        # 30 instances fill one default block, and alone each makes every call
        stages = _BLOCK_CALLS[builder]
        assert default_calls == [(kernel, 30 * n) for kernel, n in stages]
        assert alone_calls == stages * 30
    if builder in _PAIR_SUITES:
        # the first 30 instances: one block, or 30 of three calls each
        kernels = ["DensityMatrix", "haar_bases", "PairEval.stack"]
        assert [kernel for kernel, _ in default_calls[:3]] == kernels
        assert default_calls[2] == ("PairEval.stack", 30)
        assert [kernel for kernel, _ in alone_calls[:90]] == kernels * 30
        assert alone_calls[2:90:3] == [("PairEval.stack", 1)] * 30
    if builder == "_suite_entropy":
        assert _runs_of(default_calls, [(kernel, 6 * n) for kernel, n in _PROPERTY_CALLS]) == 1
        assert _runs_of(alone_calls, _PROPERTY_CALLS) == 6


@pytest.mark.parametrize("block_bytes", [1, 1 << 18])
def test_block_restores_each_instance(tmp_path, monkeypatch, block_bytes):
    # a failure in the fourth thm2 instance records trial 3, however many
    # instances share its block
    from qrelent.bounds import BoundReport

    calls = []

    def thm2_bound(pair, q, variant):
        calls.append(q)
        rhs = -1.0 if len(calls) == 7 else 1.0
        return BoundReport("forced", 0.0, rhs, rhs > 0.0)

    monkeypatch.setattr(harness, "thm2_bound", thm2_bound)
    monkeypatch.setattr(harness, "_BLOCK_BYTES", block_bytes)
    run = harness._SuiteRun("thm2_soundness", tmp_path, 9)
    harness._suite_thm2(run, SweepConfig(seed=9), 10)
    assert run.failures == 1
    doc = json.loads((tmp_path / "counterexample_thm2_soundness_context.json").read_text())
    assert (doc["seed"], doc["trial"], doc["salt"]) == (9, 3, 8)


def _forced_power_diff(calls):
    # the first report of n = 2 in the fourth instance fails: 18 reports per
    # instance, n = 1 first with its three p
    from qrelent.bounds import BoundReport

    def power_diff_bound(ops, n, p):
        calls.append(n)
        rhs = -1.0 if len(calls) == 3 * 18 + 4 else 1.0
        return BoundReport("forced", 0.0 if n > 1 else rhs, rhs, rhs > 0.0)

    return "power_diff_bound", power_diff_bound


def _forced_composition(calls):
    # the fourth instance's composed exponential is off by the identity: three
    # apply_function calls per instance, composed first
    original = harness.apply_function

    def apply_function(h, f):
        calls.append(h)
        result = original(h, f)
        if len(calls) == 3 * 3 + 1:
            return HermitianOperator(result.matrix + np.eye(result.dim))
        return result

    return "apply_function", apply_function


@pytest.mark.parametrize("block_bytes", [1, 1 << 18])
@pytest.mark.parametrize("suite, builder, salt, forced", [
    ("lemma2_power_diff", "_suite_lemma2", 12, _forced_power_diff),
    ("linalg_norms", "_suite_linalg_norms", 1, _forced_composition),
])
def test_block_replays_lemma_and_norm_instances(tmp_path, monkeypatch, block_bytes, suite,
                                                builder, salt, forced):
    # the checks of a block solved together run with their own instance
    # current: a failure in the fourth instance records trial 3 and the
    # suite's salt, however many instances share its block
    calls = []
    monkeypatch.setattr(harness, *forced(calls))
    monkeypatch.setattr(harness, "_BLOCK_BYTES", block_bytes)
    run = harness._SuiteRun(suite, tmp_path, 9)
    getattr(harness, builder)(run, SweepConfig(seed=9), 10)
    assert run.instances_run == 10 and run.failures == 1
    doc = json.loads((tmp_path / f"counterexample_{suite}_context.json").read_text())
    assert (doc["seed"], doc["trial"], doc["salt"]) == (9, 3, salt)
    assert doc["margin"] < 0.0


def test_verify_solves_a_block_at_a_time(monkeypatch):
    # LAPACK calls on one matrix (a 2-D input, or a stack of one) in one
    # 40-trial request.  Before the lemma, norm, state and Haar draws were
    # solved in blocks these were 239 eigh, 234 eigvalsh and 127 qr, and 45
    # eigh before the compressions were solved per rank across dimensions;
    # the bounds are the counts measured since, so a change that solves one
    # matrix at a time again fails here
    counts = dict.fromkeys(("eigh", "eigvalsh", "qr"), 0)
    for name in counts:
        def counting(a, *args, _original=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += math.prod(np.shape(a)[:-2]) == 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    assert cmd_verify(SweepConfig(trials=40, seed=5)).passed
    assert counts["eigh"] <= 11 and counts["eigvalsh"] <= 5 and counts["qr"] <= 11, counts
