import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrelent import states
from qrelent.entropy import PairEval
from qrelent.errors import (
    BadFactorization,
    BadSpectrum,
    ConvergenceFailure,
    DimensionMismatch,
    NonFiniteInput,
    NonHermitianInput,
    NotNormalized,
    NotPSD,
    ParseError,
)
from qrelent.linalg import EIG_TOL, HermitianOperator
from qrelent.states import (
    TOL_INCL,
    DensityMatrix,
    density_with_spectrum,
    ginibre,
    haar_bases,
    haar_unitary,
    json_text,
    kernel_included,
    partial_trace,
    read_state,
    sample_common_support_pair,
    sample_density,
    state_arrays,
    state_text,
    stream_seed,
    tensor,
    trial_stream,
    write_atomic,
    write_state,
)


class TestDensityFromMatrix:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2) / 2.0)
        np.testing.assert_allclose(rho.spectrum, [0.5, 0.5])
        assert rho.rank == 2

    def test_pure_state_support(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        assert rho.rank == 1
        np.testing.assert_allclose(rho.support_projector.matrix, np.diag([1.0, 0.0]),
                                   atol=1e-14)

    def test_trace_violation(self):
        with pytest.raises(NotNormalized):
            DensityMatrix(np.diag([0.6, 0.5]))

    def test_negative_eigenvalue(self):
        with pytest.raises(NotPSD):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_clamps_round_off_negatives(self):
        rho = DensityMatrix(np.diag([1.0 + 1e-12, -1e-12]))
        assert rho.rank == 1
        assert rho.spectrum[0] == 0.0
        assert math.fsum(rho.spectrum) == pytest.approx(1.0, abs=1e-14)


class TestSampleDensity:
    def test_scalar_state(self, rng):
        rho = sample_density(1, 1, rng)
        np.testing.assert_allclose(rho.matrix, [[1.0]], atol=1e-14)

    def test_rank_and_trace(self, rng):
        rho = sample_density(4, 2, rng)
        assert rho.rank == 2
        assert math.fsum(rho.spectrum) == pytest.approx(1.0, abs=1e-12)

    def test_seed_determinism(self):
        a = sample_density(2, 2, 42)
        b = sample_density(2, 2, 42)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_rank_bounds(self, rng):
        with pytest.raises(BadSpectrum):
            sample_density(2, 3, rng)

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, seed, d):
        gen = np.random.Generator(np.random.SFC64(seed))
        rank = int(gen.integers(1, d + 1))
        rho = sample_density(d, rank, gen)
        assert np.all(rho.spectrum >= 0.0)
        assert math.fsum(rho.spectrum) == pytest.approx(1.0, abs=1e-10)
        assert rho.rank == rank
        proj = rho.support_projector.matrix
        assert np.max(np.abs(proj @ proj - proj)) <= 1e-8
        assert np.trace(proj).real == pytest.approx(rank, abs=1e-10)


class TestDensityWithSpectrum:
    def test_trivial(self, rng):
        rho = density_with_spectrum([1.0], rng)
        np.testing.assert_allclose(rho.matrix, [[1.0]])

    def test_spectrum_preserved(self, rng):
        rho = density_with_spectrum([0.75, 0.25], rng)
        np.testing.assert_allclose(rho.spectrum, [0.25, 0.75], atol=1e-10)

    def test_bad_sum(self, rng):
        with pytest.raises(BadSpectrum):
            density_with_spectrum([0.5, 0.6], rng)

    def test_negative_entry(self, rng):
        with pytest.raises(BadSpectrum):
            density_with_spectrum([1.1, -0.1], rng)

    def test_exact_zeros_survive(self, rng):
        rho = density_with_spectrum([0.0, 0.3, 0.7], rng)
        assert rho.rank == 2
        assert rho.spectrum[0] == 0.0


class TestHaarUnitary:
    def test_unitarity(self, rng):
        u = haar_unitary(5, rng)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(5), atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 16, 64])
    def test_matches_numpy_qr(self, d):
        # the Haar draw is np.linalg.qr of the Ginibre draw with the phases of
        # diag(R) pulled into Q: bitwise with one LAPACK build, within 1e-14 across builds
        for seed in range(10):
            gen = np.random.Generator(np.random.SFC64(seed))
            z = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
            q, r = np.linalg.qr(z)
            diag = np.diagonal(r)
            expect = q * (diag / np.abs(diag))
            u = haar_unitary(d, np.random.Generator(np.random.SFC64(seed)))
            assert u.flags.c_contiguous
            np.testing.assert_allclose(u, expect, rtol=0.0, atol=1e-14)

    def test_draws_load_no_scipy(self):
        # a fresh interpreter draws through every Haar caller without loading scipy
        script = """if True:
            import json, sys
            from qrelent.states import (density_with_spectrum, haar_unitary,
                                        sample_common_support_pair)
            u = haar_unitary(4, 1)
            rho = density_with_spectrum([0.1, 0.2, 0.7], 2)
            pair = sample_common_support_pair(5, 3, 3)
            sys.stdout.write(json.dumps(sorted(m for m in sys.modules
                                               if m.split(".")[0] == "scipy")))
        """
        src = str(Path(states.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], check=False, capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []


class TestKernelInclusion:
    def test_full_rank_sigma(self, rng):
        sigma = sample_density(3, 3, rng)
        rho = sample_density(3, 1, rng)
        assert kernel_included(sigma, rho)

    def test_pure_sigma_mixed_rho(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        sigma = DensityMatrix(np.diag([1.0, 0.0]))
        assert not kernel_included(sigma, rho)

    def test_common_kernel(self):
        rho = DensityMatrix(np.diag([0.6, 0.4, 0.0]))
        sigma = DensityMatrix(np.diag([0.5, 0.5, 0.0]))
        assert kernel_included(sigma, rho)

    def test_reflexive(self, rng):
        rho = sample_density(4, 2, rng)
        assert kernel_included(rho, rho)

    def test_rotated_embedded_pair(self, rng):
        rho, sigma = sample_common_support_pair(5, 3, rng, rho_rank=2)
        assert sigma.rank == 3 and rho.rank == 2
        assert kernel_included(sigma, rho)
        assert not kernel_included(rho, sigma)

    @pytest.mark.parametrize("d", [4, 64])
    @pytest.mark.parametrize("weight,included", [(1e-13, True), (1e-11, False)])
    def test_weight_either_side_of_tolerance(self, rng, d, weight, included):
        # TOL_INCL = 1e-12: rho puts `weight` on one vector of the d/2-dim
        # kernel of sigma, in a Haar-random frame shared by both states
        assert TOL_INCL == 1e-12
        u = haar_unitary(d, rng)
        half = d // 2
        sigma_spec = np.concatenate([np.zeros(half), np.full(half, 1.0 / half)])
        rho_spec = np.concatenate([[weight], np.zeros(half - 1),
                                   np.full(half, (1.0 - weight) / half)])
        sigma = DensityMatrix.from_eigensystem(sigma_spec, u)
        rho = DensityMatrix.from_eigensystem(rho_spec, u)
        assert sigma.rank == half and rho.rank == half + 1
        assert kernel_included(sigma, rho) is included


class TestTensor:
    def test_identity_factor(self, rng):
        rho = sample_density(3, 3, rng)
        unit = DensityMatrix(np.array([[1.0]]))
        np.testing.assert_allclose(tensor(rho, unit).matrix, rho.matrix, atol=1e-14)

    def test_diagonal_products(self):
        a = DensityMatrix(np.diag([0.5, 0.5]))
        b = DensityMatrix(np.diag([0.75, 0.25]))
        out = tensor(a, b)
        np.testing.assert_allclose(np.sort(np.diag(out.matrix).real),
                                   [0.125, 0.125, 0.375, 0.375], atol=1e-14)

    def test_rank_multiplicative(self, rng):
        r1 = sample_density(3, 2, rng)
        r2 = sample_density(4, 3, rng)
        assert tensor(r1, r2).rank == 6


class TestUnsortedEigensystems:
    """Eigensystems given out of order still come out ascending, with each
    eigenvector following its eigenvalue."""

    @staticmethod
    def _assert_sorted(state, expected_spectrum):
        w, u = state.spectrum, state.eigenvectors
        assert np.all(np.diff(w) >= 0.0)
        np.testing.assert_array_equal(w, np.sort(expected_spectrum))
        np.testing.assert_allclose((u * w) @ u.conj().T, state.matrix, atol=1e-15)
        op_w, op_u = state.eig()
        np.testing.assert_array_equal(op_w, w)
        np.testing.assert_array_equal(op_u, u)
        assert state.rank == np.count_nonzero(expected_spectrum)

    def test_sigma_family(self):
        from qrelent.harness import sigma_family

        sigma = sigma_family(4, 0.1)  # spectrum given as 0.7, 0.1, 0.1, 0.1
        self._assert_sorted(sigma, [0.7, 0.1, 0.1, 0.1])
        np.testing.assert_array_equal(np.abs(sigma.eigenvectors[:, -1]), [1.0, 0.0, 0.0, 0.0])

    def test_tensor(self, rng):
        r1 = sample_density(3, 2, rng)
        r2 = sample_density(2, 2, rng)
        self._assert_sorted(tensor(r1, r2), np.kron(r1.spectrum, r2.spectrum))

    def test_caller_arrays_stay_writable(self):
        w = np.array([0.25, 0.75])
        u = np.eye(2, dtype=np.complex128)
        DensityMatrix.from_eigensystem(w, u)
        assert w.flags.writeable and u.flags.writeable
        np.testing.assert_array_equal(w, [0.25, 0.75])


class TestNonFiniteEigensystem:
    """A NaN or infinite eigenvalue or eigenvector entry is a NonFiniteInput,
    not a NaN state nor an untyped error of the trace sum."""

    @pytest.mark.parametrize("w", [[math.nan, 0.5, 0.5], [math.inf, -math.inf, 1.0],
                                   [math.inf, 0.5, 0.5]])
    def test_eigenvalues(self, w):
        with pytest.raises(NonFiniteInput):
            DensityMatrix.from_eigensystem(w, np.eye(3))

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf)])
    def test_eigenvectors(self, bad):
        u = np.eye(3, dtype=np.complex128)
        u[1, 2] = bad
        with pytest.raises(NonFiniteInput):
            DensityMatrix.from_eigensystem([0.2, 0.3, 0.5], u)


class TestPartialTrace:
    def test_product_state_recovers_factor(self, rng):
        rho_a = sample_density(2, 2, rng)
        rho_b = sample_density(3, 3, rng)
        joint = tensor(rho_a, rho_b)
        reduced = partial_trace(joint, 2, 3, "A")
        np.testing.assert_allclose(reduced.matrix, rho_a.matrix, atol=1e-12)
        reduced_b = partial_trace(joint, 2, 3, "B")
        np.testing.assert_allclose(reduced_b.matrix, rho_b.matrix, atol=1e-12)

    def test_maximally_entangled_reduction(self):
        # oracle: direct index sums over the 4x4 projector onto (|00>+|11>)/sqrt(2)
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        joint = np.outer(psi, psi.conj())
        expected = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for k in range(2):
                expected[i, k] = math.fsum(joint[2 * i + j, 2 * k + j].real for j in range(2))
        np.testing.assert_allclose(expected, np.eye(2) / 2.0, atol=1e-15)
        reduced = partial_trace(DensityMatrix(joint), 2, 2, "A")
        np.testing.assert_allclose(reduced.matrix, expected, atol=1e-12)

    def test_bad_factorization(self, rng):
        rho = sample_density(6, 6, rng)
        with pytest.raises(BadFactorization):
            partial_trace(rho, 2, 2, "A")


class TestSpectralSummary:
    def test_fixture_pair(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        sigma = DensityMatrix(np.diag([0.75, 0.25]))
        s = PairEval(rho, sigma).summary
        assert s == {"a1": 0.5, "b1": 0.75, "b0": 0.25, "lambda0": 0.25, "lambda1": 0.75}

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_ordering_invariants(self, seed):
        gen = np.random.Generator(np.random.SFC64(seed))
        d = int(gen.integers(2, 7))
        rho = sample_density(d, int(gen.integers(1, d + 1)), gen)
        sigma = sample_density(d, int(gen.integers(1, d + 1)), gen)
        s = PairEval(rho, sigma).summary
        assert 0.0 <= s["lambda0"] <= s["b0"] <= s["b1"] <= s["lambda1"] <= 1.0
        assert s["a1"] <= s["lambda1"]


#: JSON leaves as the program's artifacts hold them, and the float corner cases
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.floats().map(np.float64)
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
    | st.text()
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=30,
)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(_JSON_TREES)
    @example({"b": [], "a": {}, "\u00e9\n\x00\U0001f600": ("\x7f", None, True, 1, -0.0)})
    @example([np.float64(math.nan), np.float64(math.inf), np.float64(-math.inf), 2**70])
    def test_matches_json_dumps(self, tree):
        assert json_text(tree) == json.dumps(tree, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [np.int64(1), np.float32(0.5), {"a": object()}])
    def test_rejects_what_json_rejects(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            json_text(value)


class TestStateFiles:
    def test_round_trip(self, rng, tmp_path):
        # entries are written with 17 significant digits, so the file holds the
        # exact float64 values; the reader re-canonicalizes through its own
        # eigendecomposition, which may shift the reconstruction by one ulp
        rho = sample_density(4, 3, rng)
        path = tmp_path / "state.json"
        write_state(path, rho)
        back = read_state(path)
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-14)
        assert back.rank == rho.rank
        np.testing.assert_allclose(back.spectrum, rho.spectrum, atol=1e-14)

    def test_writer_is_deterministic(self, rng, tmp_path):
        rho = sample_density(3, 3, rng)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_state(p1, rho)
        write_state(p2, rho)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seventeen_digit_payload(self, rng, tmp_path):
        rho = sample_density(2, 2, rng)
        path = tmp_path / "state.json"
        write_state(path, rho)
        doc = json.loads(path.read_text())
        assert doc["dim"] == 2
        assert np.asarray(doc["re"]).shape == (2, 2)

    def test_writer_creates_missing_directories(self, rng, tmp_path):
        path = tmp_path / "a" / "b" / "state.json"
        write_state(path, sample_density(2, 2, rng))
        assert read_state(path).dim == 2
        assert [p.name for p in path.parent.iterdir()] == ["state.json"]

    def test_failed_write_removes_its_temporary_file(self, tmp_path):
        path = tmp_path / "out.txt"
        write_atomic(path, "old\n")
        with pytest.raises(UnicodeEncodeError):
            write_atomic(path, "not ascii: \u00e9\n")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_existing_temporary_directory_is_kept(self, tmp_path):
        (tmp_path / "out.txt.tmp").mkdir()
        with pytest.raises(IsADirectoryError):
            write_atomic(tmp_path / "out.txt", "text\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt.tmp"]

    def test_parse_error_on_garbage(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            read_state(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_parse_error_on_non_finite_entry(self, tmp_path, token):
        path = tmp_path / "nan.json"
        path.write_text(f'{{"dim": 2, "re": [[0.5, {token}], [{token}, 0.5]], '
                        '"im": [[0.0, 0.0], [0.0, 0.0]]}')
        with pytest.raises(ParseError):
            read_state(path)

    def test_parse_error_on_wrong_shape(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"dim": 2, "re": [[1.0]], "im": [[0.0]]}')
        with pytest.raises(ParseError):
            read_state(path)

    @pytest.mark.parametrize("dim, re", [
        ("1.5", "[[1.0]]"), ("true", "[[1.0]]"), ('"1"', "[[1.0]]"), ("null", "[[1.0]]"),
        ("[1]", "[[1.0]]"), ("1", "[[true]]"), ("1", '[["1"]]'), ("1", "[[null]]"),
        ("1", "[[{}]]"), ("1", "[[[1.0]]]"), ("1", "[[1.0, 0.0]]"), ("1", "[1.0]"),
    ])
    def test_parse_error_on_what_the_writer_never_writes(self, tmp_path, dim, re):
        # the writer's grammar: an integer dim and dim x dim arrays of JSON numbers
        path = tmp_path / "odd.json"
        path.write_text(f'{{"dim": {dim}, "re": {re}, "im": [[0.0]]}}')
        with pytest.raises(ParseError):
            read_state(path)
        path.write_text(f'{{"dim": {dim}, "re": [[1.0]], "im": {re.replace("1.0", "0.0")}}}')
        with pytest.raises(ParseError):
            read_state(path)

    @pytest.mark.parametrize("token", ["true", "false"])
    @pytest.mark.parametrize("name", ["re", "im"])
    def test_parse_error_on_bool_among_numbers(self, tmp_path, name, token):
        # numpy reads [0.5, true] as [0.5, 1.0]; the writer writes no 't' or 'f'
        parts = {"re": "[[0.5, 0.0], [0.0, 0.5]]", "im": "[[0.0, 0.0], [0.0, 0.0]]"}
        parts[name] = parts[name].replace("0.0]", f"{token}]", 1)
        path = tmp_path / "bool.json"
        path.write_text(f'{{"dim": 2, "re": {parts["re"]}, "im": {parts["im"]}}}')
        with pytest.raises(ParseError, match="bool"):
            read_state(path)

    def test_negative_zero_round_trip(self):
        # "-0" would read back as the integer 0, so the writer prints "-0.0"
        re = np.array([[0.5, -0.0], [-0.0, 0.5]])
        im = np.array([[-0.0, 0.0], [-0.0, -0.0]])
        text = state_text(re, im)
        assert "-0," not in text and "-0]" not in text
        for got, want in zip(state_arrays(text.encode()), (re, im)):
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text", ["[]", "1", '"state"', "null", '{"re": [[1.0]], "im": [[0.0]]}'])
    def test_parse_error_on_other_documents(self, tmp_path, text):
        path = tmp_path / "odd.json"
        path.write_text(text)
        with pytest.raises(ParseError):
            read_state(path)

    def test_integer_entries_are_numbers(self, tmp_path):
        # the writer prints 1.0 as "1"; an integer "-0" reads as 0
        path = tmp_path / "one.json"
        path.write_text('{"dim": 1, "re": [[1]], "im": [[-0]]}')
        assert read_state(path).matrix.tolist() == [[1.0]]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=2 * d * d, max_size=2 * d * d)))
    @example([5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
              0.0, -0.0, 1e300, -1e-300])
    @example([1.7976931348623157e308, -1.7976931348623157e308, 1e-300, -1e300,
              4.9406564584124654e-324, 0.1, -0.0, 1.0])
    def test_decode_matches_json(self, entries):
        # the entry arrays hold the bits json.loads gives on the writer's text
        d = math.isqrt(len(entries) // 2)
        parts = np.array(entries, dtype=np.float64).reshape(2, d, d)
        text = state_text(parts[0], parts[1])
        doc = json.loads(text)
        assert doc["dim"] == d
        for name, got, want in zip(("re", "im"), state_arrays(text.encode()), parts):
            expected = np.asarray(doc[name], dtype=np.float64)
            assert got.dtype == np.float64
            assert got.tobytes() == expected.tobytes(), name
            # 17 digits round-trip every value, and "-0.0" keeps its sign
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_stream_seed_formula():
    assert stream_seed(5, 3, 1) == 5 ^ 3 ^ (1 << 40)
    assert stream_seed(-1, 0, 0) == 2**64 - 1
    for seed, trial, salt in ((1, 0, 0), (7, 12, 9), (2**70 + 3, 5, 15)):
        reference = np.random.Generator(np.random.SFC64(stream_seed(seed, trial, salt)))
        assert (trial_stream(seed, trial, salt).standard_normal(4).tolist()
                == reference.standard_normal(4).tolist())


def test_mixing_closure(rng):
    rho = sample_density(4, 4, rng)
    other = sample_density(4, 2, rng)
    for lam in (0.0, 0.3, 1.0):
        mix = DensityMatrix(lam * rho.matrix + (1.0 - lam) * other.matrix)
        assert math.fsum(mix.spectrum) == pytest.approx(1.0, abs=1e-12)


# The state constructor in its plain numpy form, kept as the reference that
# DensityMatrix must match bit for bit.
_EPS = float(np.finfo(np.float64).eps)


def _reference_hermitian(matrix, tol):
    mat = np.array(matrix, dtype=np.complex128)
    if not np.isfinite(mat).all():
        raise NonFiniteInput("matrix has a NaN or infinite entry")
    mat_h = mat.conj().T
    herm = (mat + mat_h) / 2.0
    asym = float(np.abs(mat - mat_h).max())
    scale = max(1.0, float(np.linalg.norm(herm, "fro")))
    if asym > tol * scale:
        raise NonHermitianInput(f"asymmetry {asym:.3e} exceeds tolerance {tol * scale:.3e}")
    return herm, asym


def _reference_from_ascending(w, u, tol):
    w_min = float(w.min())
    if w_min < -tol:
        raise NotPSD(f"eigenvalue {w_min!r} below -{tol:.1e}")
    w = np.array(w, dtype=np.float64)
    w[w <= w.size * _EPS * max(1.0, float(np.abs(w).max()))] = 0.0
    total = math.fsum(w.tolist())
    if total <= 0.0:
        raise NotPSD("spectrum vanished entirely after thresholding")
    w = w / total
    mat = (u * w) @ u.conj().T
    mat = (mat + mat.conj().T) / 2.0
    return w, mat, u, int(np.count_nonzero(w))


def _reference_state(matrix, tol=1e-10):
    """(spectrum, matrix, basis, rank) of DensityMatrix(matrix)."""
    herm, _ = _reference_hermitian(matrix, tol)
    tr = float(np.trace(herm).real)
    if abs(tr - 1.0) > tol:
        raise NotNormalized(f"trace {tr!r} differs from 1 beyond {tol:.1e}")
    w, u = np.linalg.eigh(herm)
    scale = max(1.0, float(np.abs(w).max()))
    u_h = u.conj().T
    if float(np.abs((u * w) @ u_h - herm).max()) > EIG_TOL * scale:
        raise ConvergenceFailure("eigendecomposition failed reconstruction check")
    if float(np.abs(u_h @ u - np.eye(w.size)).max()) > EIG_TOL:
        raise ConvergenceFailure("eigenvector matrix is not unitary")
    return _reference_from_ascending(w, u, tol)


def _reference_from_eigensystem(w, u, tol=1e-10):
    """(spectrum, matrix, basis, rank) of DensityMatrix.from_eigensystem(w, u)."""
    tr = math.fsum(w.tolist())
    if abs(tr - 1.0) > tol:
        raise NotNormalized(f"spectrum sums to {tr!r}, not 1 within {tol:.1e}")
    order = np.argsort(w, kind="stable")
    return _reference_from_ascending(w[order], u[:, order], tol)


def _outcome(build):
    """The four state arrays as (dtype, shape, bytes), or the error raised."""
    try:
        got = build()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    if isinstance(got, DensityMatrix):
        got = (got.spectrum, got.matrix, got.eigenvectors, got.rank)
    *arrays, rank = got
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays], rank


#: how each eigenvalue slot of a drawn spectrum is filled
_SLOTS = ("positive", "zero", "roundoff_negative", "below_cut", "at_cut", "above_cut")


#: "none" and "asymmetric" (within tolerance) build; the others are the
#: error paths of the constructor
_DEFECTS = ("none", "asymmetric", "not_psd", "not_normalized", "non_hermitian", "non_finite")


@st.composite
def _spectrum_cases(draw, max_dim=16, defects=_DEFECTS):
    """A spectrum of dimension 1..max_dim with exact zeros, round-off
    negatives inside -tol and entries on either side of the zero threshold,
    a Haar basis, and one of ``defects``: none, an asymmetry within
    tolerance, or one that each error path of the constructor rejects."""
    d = draw(st.integers(1, max_dim))
    slots = draw(st.lists(st.sampled_from(_SLOTS), min_size=d - 1, max_size=d - 1))
    defect = draw(st.sampled_from(defects))
    rng = np.random.Generator(np.random.SFC64(draw(st.integers(0, 2**32 - 1))))
    cut = d * _EPS  # zero threshold of a spectrum inside [-1, 1]
    fill = {
        "zero": lambda: 0.0,
        "roundoff_negative": lambda: -(10.0 ** rng.uniform(-16.0, -12.0)),
        "below_cut": lambda: float(np.nextafter(cut, 0.0)),
        "at_cut": lambda: cut,
        "above_cut": lambda: float(np.nextafter(cut, 1.0)),
    }
    w = np.array([fill[s]() if s in fill else -1.0 for s in ["positive"] + slots])
    big = w == -1.0
    weights = rng.exponential(size=int(big.sum()))
    w[big] = weights / math.fsum(weights)
    if defect == "not_psd":
        w[-1] = -(10.0 ** rng.uniform(-9.0, -3.0))
        w[big] *= 1.0 - w[-1]
    elif defect == "not_normalized":
        w *= 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, -1.0)
    return d, rng.permutation(w), haar_unitary(d, rng), defect, rng


def _case_matrix(case) -> np.ndarray:
    """U diag(w) U^dag of a _spectrum_cases draw, with its matrix defect."""
    d, w, u, defect, rng = case
    m = (u * w) @ u.conj().T
    if defect in ("asymmetric", "non_hermitian"):
        # asymmetry below and above the 1e-10 tolerance
        size = rng.uniform(-14.0, -11.0) if defect == "asymmetric" else rng.uniform(-9.0, -6.0)
        noise = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = m + 10.0**size * noise
    elif defect == "non_finite":
        i, j = rng.integers(0, d, size=2)
        m[i, j] = rng.choice([complex(math.nan, 0.0), complex(0.0, math.inf), -math.inf])
    return m


class TestLeanConstructor:
    """DensityMatrix matches the reference algorithm above bit for bit:
    spectrum, matrix, basis and rank, and every error path."""

    @given(case=_spectrum_cases())
    @settings(max_examples=300, deadline=None)
    def test_from_eigensystem_matches_reference(self, case):
        d, w, u, defect, _ = case
        if defect in ("asymmetric", "non_hermitian", "non_finite"):
            return  # matrix-only defects
        assert _outcome(lambda: DensityMatrix.from_eigensystem(w, u)) == _outcome(
            lambda: _reference_from_eigensystem(w, u))

    @given(case=_spectrum_cases())
    @settings(max_examples=300, deadline=None)
    def test_from_matrix_matches_reference(self, case):
        m = _case_matrix(case)
        expect = _outcome(lambda: _reference_state(m))
        assert _outcome(lambda: DensityMatrix(m)) == expect
        # the operator's own symmetrisation
        ref = _outcome(lambda: _reference_hermitian(m, 1e-10))
        if isinstance(ref[0], type):
            assert _outcome(lambda: HermitianOperator(m)) == ref
        else:
            h = HermitianOperator(m)
            herm, _ = _reference_hermitian(m, 1e-10)
            assert h.matrix.tobytes() == herm.tobytes()

    @pytest.mark.parametrize("defect,error", [
        ("not_psd", NotPSD), ("not_normalized", NotNormalized),
        ("non_hermitian", NonHermitianInput), ("non_finite", NonFiniteInput)])
    def test_each_error_path_is_reached(self, defect, error):
        rng = np.random.Generator(np.random.SFC64(7))
        u = haar_unitary(4, rng)
        w = np.array([0.1, 0.2, 0.3, 0.4])
        if defect == "not_psd":
            w = np.array([-1e-6, 0.2, 0.3, 0.5 + 1e-6])
        elif defect == "not_normalized":
            w = w * 1.01
        m = (u * w) @ u.conj().T
        if defect == "non_hermitian":
            m[0, 1] += 1e-6
        elif defect == "non_finite":
            m[2, 3] = math.nan
        with pytest.raises(error) as got:
            DensityMatrix(m)
        with pytest.raises(error) as expect:
            _reference_state(m)
        assert str(got.value) == str(expect.value)


def _error(build):
    """(type, message) of the error ``build`` raises, or None."""
    try:
        build()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return None


class TestStateIsOperator:
    """A state is its HermitianOperator: every constructor returns one whose
    spectrum and eigenvectors are the arrays its cached eig() returns."""

    @staticmethod
    def _assert_operator(state):
        assert isinstance(state, HermitianOperator)
        assert not hasattr(state, "op")
        w, u = state.eig()
        assert state.spectrum is w and state.eigenvectors is u
        assert state.eigenvalues() is w
        assert state.dim == w.size == state.matrix.shape[0]

    def test_from_matrix(self, rng):
        self._assert_operator(DensityMatrix(sample_density(4, 3, rng).matrix))

    def test_stacked(self, rng):
        for state in DensityMatrix.stack([sample_density(d, d, rng).matrix for d in (2, 3, 2)]):
            self._assert_operator(state)

    def test_from_eigensystem(self, rng):
        self._assert_operator(DensityMatrix.from_eigensystem([0.0, 0.25, 0.75],
                                                             haar_unitary(3, rng)))


class TestStackedKernel:
    """DensityMatrix.stack on stacks of mixed dimension (1..8) and rank, with
    spectra on both sides of the rank cut d * eps * max(1, lambda_max): each
    state is bit-identical to its matrix built alone, and one bad matrix in
    a stack raises the error it raises alone."""

    @given(cases=st.lists(_spectrum_cases(8, ("none", "asymmetric")), min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_each_state_matches_its_own_build(self, cases):
        matrices = [_case_matrix(case) for case in cases]
        stacked = DensityMatrix.stack(matrices)
        assert len(stacked) == len(matrices)
        for m, state in zip(matrices, stacked):
            assert _outcome(lambda: state) == _outcome(lambda: DensityMatrix(m))
            for a in (state.spectrum, state.matrix, state.eigenvectors):
                assert not a.flags.writeable

    @given(good=st.lists(_spectrum_cases(8, ("none",)), max_size=8),
           bad=_spectrum_cases(8, ("not_psd", "not_normalized", "non_hermitian", "non_finite")),
           at=st.integers(0, 8))
    @settings(max_examples=150, deadline=None)
    def test_one_bad_matrix_raises_its_own_error(self, good, bad, at):
        matrices = [_case_matrix(case) for case in good]
        m = _case_matrix(bad)
        matrices.insert(min(at, len(matrices)), m)
        assert _error(lambda: DensityMatrix.stack(matrices)) == _error(lambda: DensityMatrix(m))

    @pytest.mark.parametrize("defect,error", [
        ("not_psd", NotPSD), ("not_normalized", NotNormalized),
        ("non_hermitian", NonHermitianInput), ("non_finite", NonFiniteInput)])
    def test_each_error_path_is_reached_in_a_stack(self, defect, error):
        rng = np.random.Generator(np.random.SFC64(11))
        u = haar_unitary(4, rng)
        w = np.array([0.1, 0.2, 0.3, 0.4])
        if defect == "not_psd":
            w = np.array([-1e-6, 0.2, 0.3, 0.5 + 1e-6])
        elif defect == "not_normalized":
            w = w * 1.01
        m = (u * w) @ u.conj().T
        if defect == "non_hermitian":
            m[0, 1] += 1e-6
        elif defect == "non_finite":
            m[2, 3] = math.nan
        others = [sample_density(d, d, rng).matrix for d in (4, 2, 4, 3)]
        with pytest.raises(error) as alone:
            DensityMatrix(m)
        with pytest.raises(error) as stacked:
            DensityMatrix.stack(others[:2] + [m] + others[2:])
        assert str(stacked.value) == str(alone.value)

    def test_empty_stack(self):
        assert DensityMatrix.stack([]) == []

    def test_stack_of_one_is_the_constructor(self, rng):
        m = sample_density(5, 3, rng).matrix
        (state,) = DensityMatrix.stack([m])
        assert _outcome(lambda: state) == _outcome(lambda: DensityMatrix(m))


@pytest.mark.parametrize("build", [HermitianOperator.from_eigensystem,
                                   DensityMatrix.from_eigensystem], ids=["operator", "state"])
@pytest.mark.parametrize("w, u, error", [
    ([0.5, 0.5], np.eye(3), DimensionMismatch),
    ([[0.5, 0.5]], np.eye(2), DimensionMismatch),
    ([0.5, 0.5], np.eye(2)[:, :1], DimensionMismatch),
    ([math.nan, 1.0], np.eye(2), NonFiniteInput),
    ([0.5, 0.5], [[1.0, math.inf], [0.0, 1.0]], NonFiniteInput),
], ids=["basis_too_large", "values_not_vector", "basis_not_square", "nan_value", "inf_vector"])
def test_eigensystem_rejected_by_both_constructors(build, w, u, error):
    # both constructors run the one eigensystem check, before any trace gate
    with pytest.raises(error):
        build(w, u)



def test_haar_bases_are_lone_bits():
    # one QR per dimension over a block of d = 1..8 gives each basis the bits
    # of haar_unitary and of the lone QR with the phases of diag(R) pulled in
    dims = (3, 1, 8, 2, 5, 8, 4, 6, 7, 3, 1, 2)
    ginibres = [ginibre(np.random.Generator(np.random.SFC64(seed)), (d, d))
                for seed, d in enumerate(dims)]
    for seed, (d, g, u) in enumerate(zip(dims, ginibres, haar_bases(ginibres))):
        q, r = np.linalg.qr(g)
        diag = np.diagonal(r).copy()
        diag[diag == 0] = 1.0
        assert u.flags.c_contiguous
        assert np.array_equal(u, np.multiply(q, diag / np.abs(diag), order="C"))
        assert np.array_equal(u, haar_unitary(d, np.random.Generator(np.random.SFC64(seed))))
