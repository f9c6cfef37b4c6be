"""Verification suites, parameter sweeps, single-pair evaluation, and state
generation with deterministic CSV/JSON artifacts.

Randomness policy: every trial draws from a private SFC64 stream seeded with
``states.stream_seed(seed, trial, salt)`` (each suite folds in a fixed salt),
so outputs are byte-identical across runs for a given configuration, and every
artifact is written through ``states.write_atomic``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import quadrature
from .bounds import (
    BOUNDS,
    UPPER_BOUNDS,
    BoundReport,
    OperatorPair,
    PairEval,
    TOL_BOUND,
    frechet_check,
    lemma3_bound,
    lower_bounds,
    power_diff_bound,
    thm1_bounds,
    thm2_bound,
    thm3_bound,
)
from .entropy import (
    classical_relative_q,
    extended_to_json,
    quantum_relative_q,
    relative_entropy_vn,
)
from .errors import ConfigError
from .linalg import (
    PSD_TOL,
    HermitianOperator,
    apply_function,
    schatten_norm,
    singular_values,
)
from .states import (
    DensityMatrix,
    density_with_spectrum,
    haar_unitary,
    kernel_included,
    partial_trace,
    read_state,
    sample_common_support_pair,
    sample_density,
    stream_seed,
    tensor,
    trial_stream,
    write_atomic,
    write_state,
)


@dataclass(frozen=True)
class SweepConfig:
    dims: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)
    q_grid: tuple[float, ...] = (1.5, 2.0)
    b0_grid: tuple[float, ...] = (0.1, 0.01)
    trials: int = 1000
    seed: int = 1
    output_path: str | None = None

    def validate(self) -> None:
        if not self.dims or any(not 1 <= d <= 256 for d in self.dims):
            raise ConfigError(f"dims must be nonempty integers in [1, 256], got {self.dims!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")

    def echo_dict(self) -> dict:
        """Configuration echo for artifact headers; excludes the output path so
        identical runs to different files stay byte-identical."""
        return {
            "dims": list(self.dims),
            "q_grid": list(self.q_grid),
            "b0_grid": list(self.b0_grid),
            "trials": self.trials,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepConfig":
        """Fields from a parsed JSON object; an unknown key or a value of the
        wrong JSON type is a ConfigError."""
        unknown = set(doc) - set(_CONFIG_TYPES)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for key, value in doc.items():
            expected, accepts, convert = _CONFIG_TYPES[key]
            if not accepts(value):
                raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}")
            kwargs[key] = convert(value)
        return cls(**kwargs)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _list_of(is_item):
    return lambda value: isinstance(value, list) and all(map(is_item, value))


def _floats(values) -> tuple[float, ...]:
    return tuple(map(float, values))


#: config key -> (JSON type in words, type test, conversion to the field value)
_CONFIG_TYPES = {
    "dims": ("a list of integers", _list_of(_is_int), tuple),
    "q_grid": ("a list of numbers", _list_of(_is_number), _floats),
    "b0_grid": ("a list of numbers", _list_of(_is_number), _floats),
    "trials": ("an integer", _is_int, int),
    "seed": ("an integer", _is_int, int),
    "output_path": ("a string or null", lambda v: v is None or isinstance(v, str), lambda v: v),
}


@dataclass
class SuiteResult:
    name: str
    instances_run: int
    failures: int
    worst_slack: float | None
    counterexample_path: str | None = None


@dataclass
class VerifyReport:
    seed: int
    suites: list[SuiteResult]

    @property
    def passed(self) -> bool:
        return all(s.failures == 0 for s in self.suites)

    def suite(self, name: str) -> SuiteResult:
        for s in self.suites:
            if s.name == name:
                return s
        raise KeyError(name)


class _SuiteRun:
    """Accumulates margins for one suite; a negative margin is a failure and
    serializes the offending instance to disk (first failure only)."""

    def __init__(self, name: str, out_dir: Path | None, seed: int):
        self.name = name
        self.out_dir = out_dir
        self.seed = seed
        self.instances = 0
        self.failures = 0
        self.worst: float | None = None
        self.counterexample_path: str | None = None
        self._instance: dict = {}

    def stream(self, trial: int, salt: int) -> np.random.Generator:
        """Count one instance and return its stream; a counterexample from it
        records the trial and salt, which with the seed redraw it."""
        self.instances += 1
        self._instance = {"trial": trial, "salt": salt}
        return trial_stream(self.seed, trial, salt=salt)

    def check(self, margin: float, states=None, context: dict | None = None) -> None:
        margin = float(margin)
        if math.isfinite(margin):
            self.worst = margin if self.worst is None else min(self.worst, margin)
        if margin < 0.0:
            self.failures += 1
            self._record(states, context, margin)

    def check_bool(self, ok: bool, states=None, context: dict | None = None) -> None:
        if not ok:
            self.failures += 1
            self._record(states, context, None)

    def _record(self, states, context, margin) -> None:
        if self.counterexample_path is not None or self.out_dir is None:
            return
        stem = self.out_dir / f"counterexample_{self.name}"
        doc = {"suite": self.name, "seed": self.seed, "margin": margin, **self._instance}
        doc.update(context or {})
        if states is not None:
            for label, state in zip(("rho", "sigma"), states):
                write_state(f"{stem}_{label}.json", state)
            doc["rho_path"] = f"{stem}_rho.json"
            doc["sigma_path"] = f"{stem}_sigma.json"
        write_atomic(f"{stem}_context.json", json.dumps(doc, sort_keys=True, indent=2))
        self.counterexample_path = f"{stem}_context.json"

    def result(self) -> SuiteResult:
        return SuiteResult(
            self.name, self.instances, self.failures, self.worst, self.counterexample_path
        )


def sigma_family(d: int, b0: float) -> DensityMatrix:
    """The diagonal family (1 - b0 (d-1)) |0><0| + b0 (I - |0><0|).

    Its smallest eigenvalue equals b0 for b0 <= 1/d, which makes it the
    canonical probe for divergence rates as b0 -> 0.
    """
    if not 0.0 < b0 <= 1.0 / d:
        raise ConfigError(f"b0 must lie in (0, 1/{d}], got {b0}")
    spec = np.full(d, b0)
    spec[0] = 1.0 - b0 * (d - 1)
    return DensityMatrix.from_eigensystem(spec, np.eye(d, dtype=np.complex128))


def _rand_complex(rng, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _rand_herm(rng, d: int) -> HermitianOperator:
    return HermitianOperator((lambda g: (g + g.conj().T) / 2.0)(_rand_complex(rng, d)))


def _rand_pd(rng, d: int, trace_one: bool = False) -> HermitianOperator:
    g = _rand_complex(rng, d)
    m = g @ g.conj().T / d
    if trace_one:
        m /= np.trace(m).real
    return HermitianOperator(m)


def _conditioned_pd(rng, d: int, log10_cond: float) -> HermitianOperator:
    """Strictly positive matrix with condition number 10^log10_cond exactly."""
    exponents = -log10_cond * rng.uniform(0.0, 1.0, size=d)
    exponents[0] = 0.0
    if d > 1:
        exponents[1] = -log10_cond
    scale = 10.0 ** rng.uniform(-2.0, 2.0)
    w = scale * 10.0**exponents
    u = haar_unitary(d, rng)
    return HermitianOperator.from_eigensystem(w, u)


def _sample_pair(rng, d: int, rank_deficient: bool) -> tuple[DensityMatrix, DensityMatrix]:
    """Instance family for the bound sweeps: either a full-rank pair or a
    pair with an exact common kernel (sigma full-rank on the shared support)."""
    if not rank_deficient or d < 2:
        return sample_density(d, d, rng), sample_density(d, d, rng)
    k = int(rng.integers(1, d))
    rho_rank = int(rng.integers(1, k + 1))
    return sample_common_support_pair(d, k, rng, rho_rank=rho_rank)


def _instances(run: _SuiteRun, config: SweepConfig, count: int, salt: int, max_dim: float = 8):
    """(trial, stream, d) per suite instance: the stream from ``run.stream`` and
    a dimension drawn from it among the configured dims in [2, max_dim]."""
    dims = [d for d in config.dims if 2 <= d <= max_dim] or [2]
    for i in range(count):
        rng = run.stream(i, salt)
        # the draw of rng.choice(dims), without converting dims to an array
        yield i, rng, dims[int(rng.integers(0, len(dims), dtype=np.int64))]


def _sample_q(rng, exact_every: int, i: int, lo: float = 1.0, hi: float = 2.0) -> float:
    if exact_every and i % exact_every == 0:
        return hi
    return float(lo + (hi - lo) * rng.uniform(np.nextafter(0.0, 1.0), 1.0))


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_linalg_norms(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    tol = 1e-10
    for _, rng, d in _instances(run, config, count, salt=1, max_dim=math.inf):
        x, y, z = (_rand_complex(rng, d) for _ in range(3))
        xy = x @ y
        xyz = xy @ z
        # one singular-value solve per matrix serves all of its norms
        sx, sy, sz, sxy, sxyz = map(singular_values, (x, y, z, xy, xyz))
        for p in (1.0, 2.0, math.inf):
            rhs = schatten_norm(sx, math.inf) * schatten_norm(sy, p) * schatten_norm(sz, math.inf)
            scale = max(1.0, rhs)
            run.check(rhs + tol * scale - schatten_norm(sxyz, p),
                      context={"check": "holder", "p": p})
            sub_rhs = schatten_norm(sx, p) * schatten_norm(sy, p)
            run.check(sub_rhs + tol * max(1.0, sub_rhs) - schatten_norm(sxy, p),
                      context={"check": "submultiplicative", "p": p})
        tr_rhs = schatten_norm(sx, math.inf) * schatten_norm(sz, math.inf) * schatten_norm(sy, 1.0)
        run.check(tr_rhs + tol * max(1.0, tr_rhs) - abs(np.trace(xyz)),
                  context={"check": "trace_bound"})
        for p_lo, p_hi in ((1.0, 2.0), (2.0, math.inf), (1.0, math.inf)):
            run.check(schatten_norm(sx, p_lo) + tol - schatten_norm(sx, p_hi),
                      context={"check": "p_monotone"})
        h = _rand_herm(rng, d)
        delta = HermitianOperator(h.matrix - (h.trace() / d) * np.eye(d))
        s_delta = singular_values(delta)
        run.check(0.5 * schatten_norm(s_delta, 1.0) + tol - schatten_norm(s_delta, math.inf),
                  context={"check": "traceless_half"})
        composed = apply_function(h, lambda lam: math.exp(lam / 2.0) ** 2)
        stepped = apply_function(apply_function(h, lambda lam: math.exp(lam / 2.0)),
                                 lambda lam: lam**2)
        scale = max(1.0, schatten_norm(composed, math.inf))
        err = float(np.max(np.abs(composed.matrix - stepped.matrix)))
        run.check(1e-10 * scale - err, context={"check": "composition"})


def _suite_quadrature(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    r_values = (0.1, 0.5, 0.9)
    # deterministic scalar fixtures
    run.instances += 1
    for a, r, expect in ((4.0, 0.5, 2.0), (8.0, 1.0 / 3.0, 2.0), (1.0, 0.7, 1.0)):
        for form in ("first", "second"):
            got = quadrature.frac_power_scalar(a, r, form=form)
            run.check(1e-10 - abs(got - expect) / expect,
                      context={"check": "scalar_fixture", "a": a, "r": r, "form": form})
    for i, rng, d in _instances(run, config, count, salt=2):
        a_op = _conditioned_pd(rng, d, log10_cond=float(rng.uniform(0.0, 6.0)))
        norm_inf = schatten_norm(a_op, math.inf)
        # one resolvent stack per form serves all three exponents
        firsts = quadrature.frac_power_operator(a_op, r_values, form="first")
        seconds = (quadrature.frac_power_operator(a_op, r_values, form="second")
                   if i % 4 == 0 else (None,) * len(r_values))
        for r, first, second in zip(r_values, firsts, seconds):
            spectral = apply_function(a_op, lambda lam: lam**r)
            budget = 1e-8 * norm_inf**r
            err = float(np.max(np.abs(first.matrix - spectral.matrix)))
            run.check(budget - err, context={"check": "oracle_first", "r": r})
            if second is not None:
                err2 = float(np.max(np.abs(second.matrix - first.matrix)))
                run.check(1e-8 * max(1.0, norm_inf**r) - err2,
                          context={"check": "forms_agree", "r": r})
        # scalar resolvent-pair identity against its closed form; scales are
        # kept at the density-eigenvalue range and well separated, so the
        # closed-form value stays O(100) and the absolute 1e-10 comparison is
        # meaningful in float64
        a0 = float(rng.uniform(0.2, 1.0))
        b0 = a0 * float(rng.uniform(0.25, 0.8))
        for r in r_values:
            closed = quadrature.resolvent_pair_closed_form(a0, b0, r)
            got = quadrature.resolvent_pair_integral(a0, b0, r)
            run.check(1e-10 - abs(got - closed), context={"check": "pair_identity", "r": r})
            lam0 = min(a0, b0)
            envelope = lam0 ** (-(r + 1.0))
            run.check(envelope + 1e-12 * envelope - closed,
                      context={"check": "pair_envelope", "r": r})
        limit_base = float(rng.uniform(0.1, 1.0))
        got = quadrature.resolvent_pair_integral(limit_base, limit_base, 0.5)
        run.check(1e-10 - abs(got - 0.5 * limit_base**-1.5), context={"check": "pair_limit"})


def _suite_states(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    for _, rng, d in _instances(run, config, count, salt=3, max_dim=math.inf):
        rank = int(rng.integers(1, d + 1))
        rho = sample_density(d, rank, rng)
        run.check(float(np.min(rho.spectrum)), context={"check": "psd"})
        run.check(1e-10 - abs(math.fsum(rho.spectrum) - 1.0), context={"check": "unit_trace"})
        run.check_bool(rho.rank == rank, states=(rho, rho),
                       context={"check": "rank", "expected": rank})
        proj = rho.support_projector.matrix
        run.check(PSD_TOL - float(np.max(np.abs(proj @ proj - proj))),
                  context={"check": "projector_idempotent"})
        run.check(1e-10 - abs(float(np.trace(proj).real) - rho.rank),
                  context={"check": "projector_trace"})
        run.check_bool(kernel_included(rho, rho), context={"check": "kernel_reflexive"})
        # exact-spectrum construction round-trips
        raw = rng.exponential(size=d)
        zeros = int(rng.integers(0, d))
        if zeros:
            raw[np.argsort(raw)[:zeros]] = 0.0
        spec = np.sort(raw / math.fsum(raw))
        controlled = density_with_spectrum(spec, rng)
        run.check(1e-10 - float(np.max(np.abs(controlled.spectrum - spec))),
                  context={"check": "spectrum_roundtrip"})
        # mixing closure
        lam = float(rng.uniform(0.0, 1.0))
        other = sample_density(d, d, rng)
        mix = DensityMatrix(lam * rho.matrix + (1.0 - lam) * other.matrix)
        run.check_bool(mix.dim == d, context={"check": "mixing_closure"})
        if d >= 2:
            deficient = sample_density(d, d - 1, rng)
            full = sample_density(d, d, rng)
            run.check_bool(not kernel_included(deficient, full),
                           context={"check": "kernel_excluded"})


def _suite_entropy(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    for i, rng, d in _instances(run, config, count, salt=4):
        rho, sigma = _sample_pair(rng, d, rank_deficient=(i % 3 == 2))
        q = _sample_q(rng, exact_every=10, i=i)
        value = quantum_relative_q(rho, sigma, q).value
        run.check(value + 1e-10, states=(rho, sigma), context={"check": "positivity", "q": q})
        dist = schatten_norm(rho.matrix - sigma.matrix, 1.0)
        if dist > 1e-4:
            run.check_bool(value > 1e-10, states=(rho, sigma),
                           context={"check": "zero_only_at_equality", "q": q})
        if i % 25 == 0:
            self_val = quantum_relative_q(rho, rho, q).value
            run.check(1e-10 - abs(self_val), context={"check": "self_zero", "q": q})

    dims = [d for d in config.dims if 2 <= d <= 8] or [2]
    small = max(1, count // 5)
    for i in range(small):
        rng = run.stream(i, 5)
        q = _sample_q(rng, exact_every=7, i=i)
        # pseudoadditivity on tensor products
        d1, d2 = int(rng.choice([2, 3])), int(rng.choice([2, 3]))
        r1, s1 = sample_density(d1, d1, rng), sample_density(d1, d1, rng)
        r2, s2 = sample_density(d2, d2, rng), sample_density(d2, d2, rng)
        v1 = quantum_relative_q(r1, s1, q).value
        v2 = quantum_relative_q(r2, s2, q).value
        joint = quantum_relative_q(tensor(r1, r2), tensor(s1, s2), q).value
        expect = v1 + v2 + (q - 1.0) * v1 * v2
        run.check(1e-9 - abs(joint - expect), context={"check": "pseudoadditive", "q": q})
        # joint convexity
        d = int(rng.choice(dims))
        ra, sa = sample_density(d, d, rng), sample_density(d, d, rng)
        rb, sb = sample_density(d, d, rng), sample_density(d, d, rng)
        lam = float(rng.uniform(0.0, 1.0))
        mix_r = DensityMatrix(lam * ra.matrix + (1.0 - lam) * rb.matrix)
        mix_s = DensityMatrix(lam * sa.matrix + (1.0 - lam) * sb.matrix)
        mixed = quantum_relative_q(mix_r, mix_s, q).value
        base = quantum_relative_q(ra, sa, q).value
        averaged = lam * base + (1.0 - lam) * quantum_relative_q(rb, sb, q).value
        run.check(averaged + 1e-9 - mixed, states=(mix_r, mix_s),
                  context={"check": "joint_convexity", "q": q})
        # monotonicity under partial trace
        da, db = int(rng.choice([2, 3])), int(rng.choice([2, 3]))
        rho_ab = sample_density(da * db, da * db, rng)
        sigma_ab = sample_density(da * db, da * db, rng)
        whole = quantum_relative_q(rho_ab, sigma_ab, q).value
        reduced = quantum_relative_q(
            partial_trace(rho_ab, da, db, "A"), partial_trace(sigma_ab, da, db, "A"), q
        ).value
        run.check(whole + 1e-9 - reduced, states=(rho_ab, sigma_ab),
                  context={"check": "partial_trace_monotone", "q": q})
        # unitary invariance
        u = haar_unitary(d, rng)
        rot = quantum_relative_q(
            DensityMatrix(u @ ra.matrix @ u.conj().T),
            DensityMatrix(u @ sa.matrix @ u.conj().T),
            q,
        ).value
        run.check(1e-9 * (1.0 + abs(base)) - abs(rot - base),
                  context={"check": "unitary_invariance", "q": q})
        # reduction to the classical formula for commuting states; pairing of
        # the two spectra follows the shared eigenbasis columns
        spec_a = rng.dirichlet(np.ones(d)) * 0.8 + 0.2 / d
        spec_b = rng.dirichlet(np.ones(d)) * 0.8 + 0.2 / d
        basis = haar_unitary(d, rng)
        qa = DensityMatrix.from_eigensystem(spec_a, basis)
        qb = DensityMatrix.from_eigensystem(spec_b, basis)
        quantum = quantum_relative_q(qa, qb, q).value
        classical = classical_relative_q(spec_a, spec_b, q).value
        run.check(1e-10 - abs(quantum - classical),
                  context={"check": "classical_reduction", "q": q})

    # q -> 1 consistency on fixed pairs
    for pair_idx in range(2):
        rng = run.stream(pair_idx, 6)
        d = 2 + 2 * pair_idx
        rho, sigma = sample_density(d, d, rng), sample_density(d, d, rng)
        d1 = relative_entropy_vn(rho, sigma).value
        ratios = []
        for k in range(2, 6):
            q = 1.0 + 10.0**-k
            dq = quantum_relative_q(rho, sigma, q).value
            ratios.append(abs(dq - d1) / (q - 1.0))
        bound = 2.0 * ratios[0] + 1e-9
        for ratio in ratios[1:]:
            run.check(bound - ratio, states=(rho, sigma), context={"check": "q_to_1"})


def _suite_thm1(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    for i, rng, d in _instances(run, config, count, salt=7):
        rho, sigma = sample_density(d, d, rng), sample_density(d, d, rng)
        q = _sample_q(rng, exact_every=10, i=i)
        pair = PairEval(rho, sigma)
        reports = thm1_bounds(pair, q)
        for rep in reports:
            run.check(rep.margin, states=(rho, sigma), context={"check": rep.name, "q": q})
        # the spectral-norm bound is never looser than the halved trace-norm one
        run.check(reports[1].rhs + 1e-12 * (1.0 + reports[1].rhs) - reports[0].rhs,
                  states=(rho, sigma), context={"check": "rhs1_le_rhs2", "q": q})


def _suite_thm2(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    for i, rng, d in _instances(run, config, count, salt=8):
        rho, sigma = _sample_pair(rng, d, rank_deficient=(i % 2 == 1))
        q = _sample_q(rng, exact_every=10, i=i)
        pair = PairEval(rho, sigma)
        for variant in ("general", "traceless"):
            rep = thm2_bound(pair, q, variant)
            run.check(rep.margin, states=(rho, sigma), context={"check": rep.name, "q": q})


def _suite_thm3(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    for i, rng, d in _instances(run, config, count, salt=9):
        rho, sigma = _sample_pair(rng, d, rank_deficient=(i % 2 == 1))
        if i % 5 == 4:
            q = float(rng.choice([2.0, 3.0, 4.0]))
        elif i % 2 == 0:
            q = _sample_q(rng, exact_every=0, i=i)
        else:
            q = _sample_q(rng, exact_every=0, i=i, lo=2.0, hi=6.0)
        pair = PairEval(rho, sigma)
        rep = thm3_bound(pair, q, "general")
        run.check(rep.margin, states=(rho, sigma), context={"check": rep.name, "q": q})
        q2 = _sample_q(rng, exact_every=10, i=i)
        rep2 = thm3_bound(pair, q2, "q2")
        run.check(rep2.margin, states=(rho, sigma), context={"check": rep2.name, "q": q2})


def _suite_lower(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    for i, rng, d in _instances(run, config, count, salt=10):
        rho, sigma = _sample_pair(rng, d, rank_deficient=(i % 4 == 3))
        q = _sample_q(rng, exact_every=10, i=i)
        p = 0.0 if i % 10 == 5 else float(rng.uniform(0.0, 1.0))
        pair = PairEval(rho, sigma)
        for rep in lower_bounds(pair, q, p):
            run.check_bool(rep.holds, states=(rho, sigma),
                           context={"check": rep.name, "q": q, "p": p})
            if rep.slack is not None and math.isfinite(rep.slack):
                run.check(rep.slack + TOL_BOUND, states=(rho, sigma),
                          context={"check": rep.name + "_slack", "q": q, "p": p})


def _suite_lemma1(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    r_values = (0.1, 0.5, 0.9)
    for _, rng, d in _instances(run, config, count, salt=11):
        a_op = _rand_pd(rng, d)
        b_op = _rand_pd(rng, d)
        for r, rep in zip(r_values, frechet_check(OperatorPair(a_op, b_op), r_values)):
            run.check(rep.rhs + 1e-7, context={"check": "psd_gap", "r": r})


def _suite_lemma2(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    for _, rng, d in _instances(run, config, count, salt=12):
        x, y = _rand_herm(rng, d), _rand_herm(rng, d)
        ops = OperatorPair(x, y)
        for n in range(1, 7):
            for p in (1.0, 2.0, math.inf):
                rep = power_diff_bound(ops, n, p)
                run.check(rep.margin, context={"check": "power_diff", "n": n, "p": p})
                if n == 1:
                    scale = max(1.0, rep.rhs)
                    run.check(1e-10 * scale - abs(rep.rhs - rep.lhs.value),
                              context={"check": "n1_equality", "p": p})


def _suite_lemma3(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    for i, rng, d in _instances(run, config, count, salt=13):
        rank = d if i % 3 else max(1, d - 1)
        g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        a_m = g @ g.conj().T
        a_op = HermitianOperator(a_m / np.trace(a_m).real)
        b_op = _rand_pd(rng, d, trace_one=True)
        ops = OperatorPair(a_op, b_op)
        for s in (0.25, 0.5, 0.75):
            rep = lemma3_bound(ops, s)
            run.check(rep.margin, context={"check": "lemma3", "s": s})


ENVELOPE_B0 = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
ENVELOPE_Q = (1.5, 2.0, 3.0)


def divergence_envelope(seed: int, d: int = 4) -> list[dict]:
    """Divergence-rate probe on the sigma_family grid with one fixed random rho.

    Each record carries D_q, the general b0^(1-q) bound, and the rescaled
    ratio D_q * b0^(q-1) next to its b0-free envelope constant.
    """
    rng = trial_stream(seed, 0, salt=14)
    rho = sample_density(d, d, rng)
    records = []
    for q in ENVELOPE_Q:
        for b0 in ENVELOPE_B0:
            pair = PairEval(rho, sigma_family(d, b0))
            rep = thm3_bound(pair, q, "general")
            dq = rep.lhs.value
            ratio = dq * b0 ** (q - 1.0)
            constant = rep.extras["ceiling_factor"] * pair.summary.lambda1 ** (
                q - 1.0
            ) * pair.distances["trace_norm"]
            records.append(
                {
                    "q": q,
                    "b0": b0,
                    "Dq": dq,
                    "thm3_rhs": rep.rhs,
                    "ratio": ratio,
                    "envelope_constant": constant,
                    "holds": rep.holds,
                }
            )
    return records


CROSSOVER_B0 = (1e-3, 1e-4, 1e-5, 1e-6)


def tightness_crossover(seed: int, trials: int, d: int = 4) -> list[dict]:
    """Compare the quadratic-in-b0 bound against the b0^(1-q) one at q = 2 for
    small b0, where the latter must win in every trial."""
    records = []
    for trial in range(trials):
        rng = trial_stream(seed, trial, salt=15)
        rho = sample_density(d, d, rng)
        for b0 in CROSSOVER_B0:
            pair = PairEval(rho, sigma_family(d, b0))
            rep2 = thm2_bound(pair, 2.0, "general")
            rep3 = thm3_bound(pair, 2.0, "q2")
            records.append(
                {
                    "trial": trial,
                    "b0": b0,
                    "thm2_rhs": rep2.rhs,
                    "thm3q2_rhs": rep3.rhs,
                    "tighter": rep3.rhs < rep2.rhs,
                }
            )
    return records


def _suite_envelope(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    del count
    for rec in divergence_envelope(config.seed, d=4):
        run.instances += 1
        run.check_bool(rec["holds"], context={"check": "dq_le_thm3", **{k: rec[k] for k in ("q", "b0")}})
        run.check(rec["envelope_constant"] * (1.0 + TOL_BOUND) + TOL_BOUND - rec["ratio"],
                  context={"check": "ratio_bounded", "q": rec["q"], "b0": rec["b0"]})


def _suite_crossover(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    trials = max(5, count // 40)
    for rec in tightness_crossover(config.seed, trials, d=4):
        run.instances += 1
        run.check(rec["thm2_rhs"] - rec["thm3q2_rhs"],
                  context={"check": "crossover", "trial": rec["trial"], "b0": rec["b0"]})


# suite name -> (builder, divisor): the builder gets max(1, config.trials // divisor)
_SUITES = (
    ("linalg_norms", _suite_linalg_norms, 5),
    ("quadrature_oracle", _suite_quadrature, 5),
    ("state_invariants", _suite_states, 1),
    ("entropy_properties", _suite_entropy, 1),
    ("thm1_soundness", _suite_thm1, 1),
    ("thm2_soundness", _suite_thm2, 1),
    ("thm3_soundness", _suite_thm3, 1),
    ("lower_bound_soundness", _suite_lower, 1),
    ("lemma1_psd_gap", _suite_lemma1, 5),
    ("lemma2_power_diff", _suite_lemma2, 2),
    ("lemma3_frac_trace", _suite_lemma3, 2),
    ("divergence_envelope", _suite_envelope, 1),
    ("tightness_crossover", _suite_crossover, 1),
)


def cmd_verify(config: SweepConfig) -> VerifyReport:
    """Run every property suite; counterexamples are serialized next to the
    report when an output path is configured."""
    config.validate()
    quadrature.self_test()
    out_dir = Path(config.output_path).parent if config.output_path else None
    results = []
    for name, builder, divisor in _SUITES:
        run = _SuiteRun(name, out_dir, config.seed)
        builder(run, config, max(1, config.trials // divisor))
        results.append(run.result())
    report = VerifyReport(seed=config.seed, suites=results)
    if config.output_path:
        doc = {
            "seed": config.seed,
            "config": config.echo_dict(),
            "all_passed": report.passed,
            "suites": [asdict(s) for s in report.suites],
        }
        write_atomic(config.output_path, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return report


CSV_COLUMNS = (
    ("d", "q", "b0", "trial", "seed", "Dq", "D1", "dist_tr", "dist_sp")
    + tuple(col for spec in UPPER_BOUNDS for col in spec.columns)
    + ("pinsker_lhs", "ratio_dq_b0", "vacuous")
)


def _csv_num(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def sweep_row(pair: PairEval, q: float, b0: float, trial: int, stream_seed: int) -> dict:
    """One record of the sweep CSV for a given state pair; an upper bound whose
    q gate or hypotheses fail is ``nan`` in its columns and named in ``vacuous``."""
    dq = pair.dq(q).value
    row = {
        "d": pair.rho.dim,
        "q": q,
        "b0": b0,
        "trial": trial,
        "seed": stream_seed,
        "Dq": dq,
        "D1": pair.d1.value,
        "dist_tr": pair.distances["trace_norm"],
        "dist_sp": pair.distances["spectral_norm"],
        "pinsker_lhs": 0.5 * pair.distances["trace_norm"] ** 2,
        "ratio_dq_b0": dq * b0 ** (q - 1.0),
    }
    vacuous: list[str] = []
    for spec in UPPER_BOUNDS:
        reports = spec.evaluate(pair, q) if spec.applies(q) else None
        if reports is None or reports[0].vacuous:
            vacuous.append(spec.name)
            row.update(dict.fromkeys(spec.columns, math.nan))
        else:
            row.update(zip(spec.columns, (rep.rhs for rep in reports)))
    row["vacuous"] = ";".join(vacuous)
    return row


def _csv_line(row: dict) -> str:
    return ",".join(
        str(row[col]) if col in ("d", "trial", "seed", "vacuous") else _csv_num(float(row[col]))
        for col in CSV_COLUMNS
    )


def cmd_sweep(config: SweepConfig) -> Path:
    """Grid sweep over (d, q, b0, trial) against the sigma_family states.

    Every row pairs sigma_family(d, b0) with a random full-rank rho drawn from
    the per-trial stream, so rows with equal (d, trial) share the same rho
    across the whole (q, b0) grid.  Each rho and sigma is built once, each
    pair evaluated once for all q, and the rows are written in (d, q, b0,
    trial) order.
    """
    config.validate()
    if not config.q_grid or any(q <= 1.0 for q in config.q_grid):
        raise ConfigError(f"q_grid must be nonempty with every q above 1, got {config.q_grid!r}")
    d_max = max(config.dims)
    if not config.b0_grid or any(not 0.0 < b <= 1.0 / d_max for b in config.b0_grid):
        raise ConfigError(
            f"b0_grid must be nonempty with every b0 in (0, 1/{d_max}], got {config.b0_grid!r}"
        )
    if not config.output_path:
        raise ConfigError("output_path is required")
    quadrature.self_test()
    out = Path(config.output_path)
    lines = [
        "# config: " + json.dumps(config.echo_dict(), sort_keys=True),
        f"# seed: {config.seed}",
        ",".join(CSV_COLUMNS),
    ]
    for d in config.dims:
        sigmas = [sigma_family(d, b0) for b0 in config.b0_grid]
        rows: dict[tuple[int, int, int], str] = {}
        for trial in range(config.trials):
            seed = stream_seed(config.seed, trial, 0)
            rho = sample_density(d, d, trial_stream(config.seed, trial))
            for bi, (b0, sigma) in enumerate(zip(config.b0_grid, sigmas)):
                pair = PairEval(rho, sigma)
                for qi, q in enumerate(config.q_grid):
                    rows[qi, bi, trial] = _csv_line(sweep_row(pair, q, b0, trial, seed))
        lines.extend(rows[key] for key in sorted(rows))
    write_atomic(out, "\n".join(lines) + "\n")
    return out


def _report_to_json(rep: BoundReport) -> dict:
    return {
        "lhs": extended_to_json(rep.lhs),
        "rhs": rep.rhs if math.isfinite(rep.rhs) else "inf",
        "slack": rep.slack,
        "holds": rep.holds,
        "vacuous": rep.vacuous,
    }


def cmd_eval(rho_path, sigma_path, q_list) -> dict:
    """Evaluate D_q, the q -> 1 anchor, and every applicable bound for a state
    pair loaded from JSON files; returns a JSON-serializable report."""
    quadrature.self_test()
    pair = PairEval(read_state(rho_path), read_state(sigma_path))
    per_q = []
    for q in q_list:
        q = float(q)
        dq = pair.dq(q)
        reports = {
            rep.name: _report_to_json(rep)
            for spec in BOUNDS
            if spec.applies(q)
            for rep in spec.evaluate(pair, q)
        }
        per_q.append({"q": q, "Dq": extended_to_json(dq), "reports": reports})
    return {
        "rho_path": str(rho_path),
        "sigma_path": str(sigma_path),
        "dim": pair.rho.dim,
        "spectral_summary": asdict(pair.summary),
        "distances": pair.distances,
        "D1": extended_to_json(pair.d1),
        "per_q": per_q,
    }


def cmd_gen(d: int, rank: int, seed: int, out) -> Path:
    """Sample one random state and write it to the JSON state format."""
    if not 1 <= rank <= d:
        raise ConfigError(f"rank must satisfy 1 <= rank <= d, got rank={rank}, d={d}")
    if not 1 <= d <= 256:
        raise ConfigError(f"dimension must lie in [1, 256], got {d}")
    if not out:
        raise ConfigError("an output path is required")
    write_state(out, sample_density(d, rank, trial_stream(seed, 0)))
    return Path(out)
