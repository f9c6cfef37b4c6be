"""Verification suites, parameter sweeps, single-pair evaluation, and state
generation with deterministic CSV/JSON artifacts.

Randomness policy: every trial draws from a private SFC64 stream seeded with
``states.stream_seed(seed, trial, salt)`` (each suite folds in a fixed salt),
so outputs are byte-identical across runs for a given configuration, and every
artifact is written through ``states.write_atomic``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import quadrature
from .bounds import (
    BOUNDS,
    UPPER_BOUNDS,
    BoundReport,
    PairEval,
    TOL_BOUND,
    ceiling_factor,
    frechet_check,
    lemma3_bound,
    lower_bounds,
    margin,
    power_diff_bound,
    thm1_bounds,
    thm2_bound,
    thm3_bound,
)
from .entropy import Q_MAX, classical_relative_q, quantum_relative_q
from .errors import ConfigError
from .linalg import (
    MAX_DIM,
    PSD_TOL,
    HermitianOperator,
    OperatorPair,
    apply_function,
    exact_sum,
    schatten_norm,
    singular_values,
    stackwise,
)
from .states import (
    DensityMatrix,
    _fmt17,
    draw_common_support_pair,
    draw_density,
    embed_common_support,
    ginibre,
    haar_bases,
    json_text,
    kernel_included,
    partial_trace_matrix,
    probability_vector,
    read_state,
    sample_density,
    stream_seed,
    tensor,
    trial_stream,
    write_atomic,
    write_state,
)

#: root seeds lie in [0, 2^SEED_BITS): stream_seed keeps 64 bits and puts the
#: salt at bit 40, so a seed outside would draw another seed's streams
SEED_BITS = 40


@functools.cache
def _self_test() -> None:
    """quadrature.self_test, run by the first command of a process: its
    result cannot change within one.  A raised ConfigError is not cached, so
    every later command raises it again."""
    quadrature.self_test()


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 1 << SEED_BITS:
        raise ConfigError(f"seed must lie in [0, 2^{SEED_BITS}), got {seed}")


@dataclass(frozen=True)
class SweepConfig:
    dims: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)
    q_grid: tuple[float, ...] = (1.5, 2.0)
    b0_grid: tuple[float, ...] = (0.1, 0.01)
    trials: int = 1000
    seed: int = 1
    output_path: str | None = None

    def validate(self) -> None:
        if not self.dims or any(not 1 <= d <= MAX_DIM for d in self.dims):
            raise ConfigError(
                f"dims must be nonempty integers in [1, {MAX_DIM}], got {self.dims!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")
        _check_seed(self.seed)
        # from_dict's rule for the grids, which every report echoes
        for key in ("q_grid", "b0_grid"):
            if not all(map(_is_number, getattr(self, key))):
                raise ConfigError(f"{key} must be {_CONFIG_TYPES[key][0]}, "
                                  f"got {getattr(self, key)!r}")

    def echo_dict(self) -> dict:
        """Configuration echo for artifact headers; excludes the output path so
        identical runs to different files stay byte-identical."""
        echo = asdict(self)
        del echo["output_path"]
        return echo

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
    # in the float range: json reads NaN and +-Infinity, which no JSON document
    # may echo, and float() of a larger integer overflows
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _list_of(is_item):
    return lambda value: isinstance(value, list) and all(map(is_item, value))


def _floats(values) -> tuple[float, ...]:
    return tuple(map(float, values))


#: config key -> (JSON type in words, type test, conversion to the field value)
_CONFIG_TYPES = {
    "dims": ("a list of integers", _list_of(_is_int), tuple),
    "q_grid": ("a list of finite numbers", _list_of(_is_number), _floats),
    "b0_grid": ("a list of finite numbers", _list_of(_is_number), _floats),
    "trials": ("an integer", _is_int, int),
    "seed": ("an integer", _is_int, int),
    "output_path": ("a string or null", lambda v: v is None or isinstance(v, str), lambda v: v),
}


#: the record of one suite in the verify report, attributes of its _SuiteRun
SUITE_FIELDS = ("name", "instances_run", "failures", "worst_slack", "counterexample_path",
                "closest")


@dataclass
class VerifyReport:
    suites: list[_SuiteRun]

    @property
    def passed(self) -> bool:
        return all(s.failures == 0 for s in self.suites)

    def suite(self, name: str) -> _SuiteRun:
        for s in self.suites:
            if s.name == name:
                return s
        raise KeyError(name)


class _SuiteRun:
    """Accumulates the checks of one suite, and is its record in the report
    (SUITE_FIELDS); a failed check serializes the offending instance to disk
    (first failure only)."""

    def __init__(self, name: str, out_dir: Path | None, seed: int):
        self.name = name
        self.out_dir = out_dir
        self.seed = seed
        self.instances_run = 0
        self.failures = 0
        self.worst_slack: float | None = None
        self.closest: dict | None = None
        self.counterexample_path: str | None = None
        self._instance: dict = {}

    def block_draws(self, salt: int, count: int, dims: list[int] | None, draw, kernel, build):
        """(trial, stream, instance) per instance, trials 0 to count - 1: the
        one path from (seed, trial, salt) to an instance.

        Each instance is counted and opens its own stream, from which d is
        drawn first, as rng.choice(dims) draws it (None when ``dims`` is None).
        ``draw(trial, stream, d)`` then makes every random draw that feeds the
        instance and returns its raw matrices with whatever else it drew.
        Instances are drawn in blocks of _BLOCK_BYTES of raw matrices, and
        one ``kernel`` call makes every raw matrix of a block: the states of
        ``DensityMatrix.stack``, the operators of ``HermitianOperator.stack``
        or the unitaries of ``haar_bases``.  ``build(made, drawn)`` receives
        what each instance's matrices made and its draws, one entry per
        instance, before the block's first instance is yielded, and returns
        the block's instances: its evaluation contexts or checks, solved
        together, with whatever of the draws the checks read.  A counterexample
        records the trial and salt of the instance last yielded, which with
        the seed redraw it.  The checks may go on drawing from the stream: no
        other instance uses it.
        """
        block, size = [], 0
        for trial in range(count):
            self.instances_run += 1
            rng = trial_stream(self.seed, trial, salt)
            # the draw of rng.choice(dims), without converting dims to an array
            d = None if dims is None else dims[int(rng.integers(0, len(dims), dtype=np.int64))]
            matrices, drawn = draw(trial, rng, d)
            block.append((trial, rng, matrices, drawn))
            size += sum(m.nbytes for m in matrices)
            if size < _BLOCK_BYTES and trial + 1 < count:
                continue
            built = iter(kernel([m for *_, ms, _ in block for m in ms]))
            made = [[next(built) for _ in ms] for *_, ms, _ in block]
            for (trial, rng, *_), instance in zip(block, build(made, [dr for *_, dr in block])):
                self._instance = {"trial": trial, "salt": salt}
                yield trial, rng, instance
            block, size = [], 0

    def le(self, name: str, lhs: float, rhs: float, allowance: float, states=None,
           **where) -> None:
        """Check lhs <= rhs within ``allowance`` by ``bounds.margin``; ``where``
        names the check's parameters in a counterexample and in ``closest``.

        A finite margin counts toward ``worst_slack``.  Of the checks with a
        finite lhs and 0 < rhs < inf, the one with the largest lhs/rhs is
        ``closest``, recorded with its instance's trial and salt so it can be
        redrawn.
        """
        lhs, rhs = float(lhs), float(rhs)
        m = margin(lhs, rhs, float(allowance))
        if math.isfinite(m):
            self.worst_slack = m if self.worst_slack is None else min(self.worst_slack, m)
        if not m >= 0.0:  # a NaN margin fails
            self.failures += 1
            self._record(states, name, where, m)
        if math.isfinite(lhs) and 0.0 < rhs < math.inf and (
                self.closest is None or lhs / rhs > self.closest["ratio"]):
            self.closest = {"check": name, "ratio": lhs / rhs, **self._instance, **where}

    def verdict(self, name: str, ok: bool, states=None, **where) -> None:
        """Check a verdict with no number behind it: ``ok`` false is a failure."""
        if not ok:
            self.failures += 1
            self._record(states, name, where, None)

    def _record(self, states, name: str, where: dict, m: float | None) -> None:
        if self.counterexample_path is not None or self.out_dir is None:
            return
        stem = self.out_dir / f"counterexample_{self.name}"
        doc = {"suite": self.name, "seed": self.seed, "margin": _json_value(m), **self._instance,
               "check": name, **where}
        if states is not None:
            for label, state in zip(("rho", "sigma"), states):
                write_state(f"{stem}_{label}.json", state)
            doc["rho_path"] = f"{stem}_rho.json"
            doc["sigma_path"] = f"{stem}_sigma.json"
        write_atomic(f"{stem}_context.json", json_text(doc))
        self.counterexample_path = f"{stem}_context.json"


def sigma_family(d: int, b0: float) -> DensityMatrix:
    """The diagonal family (1 - b0 (d-1)) |0><0| + b0 (I - |0><0|).

    Its smallest eigenvalue equals b0 for d >= 2 and b0 <= 1/d, which makes
    it the canonical probe for divergence rates as b0 -> 0.  Its eigenvector
    matrix is a permutation of the identity, a standard basis
    (``linalg.basis_rows``), so its matrix and each pair's overlap and
    compression against it are index gathers, not d^3 products.  A b0 at or below
    the state's zero threshold (about d * 2.2e-16) is a ConfigError, since
    the state would lose eigenvalue b0 and its full rank.
    """
    if d < 2:
        raise ConfigError(f"the b0 family needs dimension d >= 2, got {d}")
    if not 0.0 < b0 <= 1.0 / d:
        raise ConfigError(f"b0 must lie in (0, 1/{d}], got {b0}")
    spec = np.full(d, b0)
    spec[0] = 1.0 - b0 * (d - 1)
    sigma = DensityMatrix.from_eigensystem(spec, np.eye(d, dtype=np.complex128))
    if sigma.rank < d:
        raise ConfigError(f"b0 = {b0} is at or below the zero threshold of a state of "
                          f"dimension {d}, so sigma would not have full rank")
    return sigma


def _herm_draw(rng, d: int) -> np.ndarray:
    """(G + G^dag)/2 of a d x d Ginibre draw: exactly Hermitian, so it is
    the matrix of its HermitianOperator bit for bit."""
    g = ginibre(rng, (d, d))
    return (g + g.conj().T) / 2.0


def _pd_draw(rng, d: int, trace_one: bool = False) -> np.ndarray:
    g = ginibre(rng, (d, d))
    m = g @ g.conj().T / d
    if trace_one:
        m /= np.trace(m).real
    return m


def _conditioned_spectrum(rng, d: int, log10_cond: float) -> np.ndarray:
    """Strictly positive spectrum with condition number 10^log10_cond exactly."""
    exponents = -log10_cond * rng.uniform(0.0, 1.0, size=d)
    exponents[0] = 0.0
    if d > 1:
        exponents[1] = -log10_cond
    scale = 10.0 ** rng.uniform(-2.0, 2.0)
    return scale * 10.0**exponents


def _dims(config: SweepConfig, max_dim: float) -> list[int]:
    """The configured dimensions in [2, max_dim], or [2] if there are none."""
    return [d for d in config.dims if 2 <= d <= max_dim] or [2]


#: bytes per kernel call of the matrices that draws return (states, lemma and
#: norm operands, the quadrature suite's Ginibre draws): a suite draws
#: instances until theirs reach this size, makes them with one kernel call and
#: checks them in order, so a block's memory stays bounded.  What a draw keeps
#: beside its matrices, as the other suites' Ginibre draws, does not count
_BLOCK_BYTES = 1 << 18


def _pairs(run: _SuiteRun, config: SweepConfig, count: int, salt: int, deficient):
    """(trial, stream, PairEval) per instance of the bound sweeps' family: a
    full-rank pair, or where ``deficient(trial)`` holds a pair with an exact
    common kernel, sigma full-rank on the shared support.  The PairEvals of
    a block are made together, so its overlaps, compressions and distances
    are solved by stacked calls."""

    def draw(trial, rng, d):
        if not deficient(trial):
            return [draw_density(d, d, rng), draw_density(d, d, rng)], None
        k = int(rng.integers(1, d))
        rho_rank = int(rng.integers(1, k + 1))
        rho_k, sigma_k, g = draw_common_support_pair(d, k, rng, rho_rank)
        return [rho_k, sigma_k], g

    def build(states, ginibres):
        bases = iter(haar_bases([g for g in ginibres if g is not None]))
        return PairEval.stack(pair if g is None else embed_common_support(*pair, next(bases))
                              for pair, g in zip(states, ginibres))

    return run.block_draws(salt, count, _dims(config, 8), draw, DensityMatrix.stack, build)


def _sample_q(rng, exact_every: int, i: int, lo: float = 1.0, hi: float = 2.0) -> float:
    if exact_every and i % exact_every == 0:
        return hi
    return float(lo + (hi - lo) * rng.uniform(np.nextafter(0.0, 1.0), 1.0))


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_linalg_norms(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    tol = 1e-10

    def draw(trial, rng, d):
        x, y, z = (ginibre(rng, (d, d)) for _ in range(3))
        h = _herm_draw(rng, d)
        # h's traceless part, as h.matrix - (h.trace() / d) I reads it
        return [h, h - (np.trace(h).real / d) * np.eye(d)], (x, y, z)

    def build(operands, drawn):
        """Per instance h, its traceless part, XYZ, and the singular values
        of X, Y, Z, XY and XYZ, of which one stack per dimension serves
        every norm of the block."""
        products = []
        for x, y, z in drawn:
            xy = x @ y
            products += [x, y, z, xy, xy @ z]
        values = stackwise(singular_values, products)
        return [(h, delta, products[5 * k + 4], values[5 * k : 5 * k + 5])
                for k, (h, delta) in enumerate(operands)]

    for _, _, (h, delta, xyz, (sx, sy, sz, sxy, sxyz)) in run.block_draws(
            1, count, _dims(config, math.inf), draw, HermitianOperator.stack, build):
        for p in (1.0, 2.0, math.inf):
            rhs = schatten_norm(sx, math.inf) * schatten_norm(sy, p) * schatten_norm(sz, math.inf)
            run.le("holder", schatten_norm(sxyz, p), rhs, tol * max(1.0, rhs), p=p)
            sub_rhs = schatten_norm(sx, p) * schatten_norm(sy, p)
            run.le("submultiplicative", schatten_norm(sxy, p), sub_rhs,
                   tol * max(1.0, sub_rhs), p=p)
        tr_rhs = schatten_norm(sx, math.inf) * schatten_norm(sz, math.inf) * schatten_norm(sy, 1.0)
        run.le("trace_bound", abs(np.trace(xyz)), tr_rhs, tol * max(1.0, tr_rhs))
        for p_lo, p_hi in ((1.0, 2.0), (2.0, math.inf), (1.0, math.inf)):
            run.le("p_monotone", schatten_norm(sx, p_hi), schatten_norm(sx, p_lo), tol)
        s_delta = singular_values(delta)
        run.le("traceless_half", schatten_norm(s_delta, math.inf),
               0.5 * schatten_norm(s_delta, 1.0), tol)
        composed = apply_function(h, lambda lam: math.exp(lam / 2.0) ** 2)
        stepped = apply_function(apply_function(h, lambda lam: math.exp(lam / 2.0)),
                                 lambda lam: lam**2)
        scale = max(1.0, schatten_norm(composed, math.inf))
        err = float(np.max(np.abs(composed.matrix - stepped.matrix)))
        run.le("composition", err, 0.0, 1e-10 * scale)


def _suite_quadrature(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    r_values = (0.1, 0.5, 0.9)
    # deterministic scalar fixtures
    run.instances_run += 1
    for a, r, expect in ((4.0, 0.5, 2.0), (8.0, 1.0 / 3.0, 2.0), (1.0, 0.7, 1.0)):
        for form in ("first", "second"):
            got = quadrature.frac_power_scalar(a, r, form=form)
            run.le("scalar_fixture", abs(got - expect) / expect, 0.0, 1e-10,
                   a=a, r=r, form=form)

    # a spectrum of a drawn condition number, then its Haar basis
    def draw(trial, rng, d):
        w = _conditioned_spectrum(rng, d, float(rng.uniform(0.0, 6.0)))
        return [ginibre(rng, (d, d))], w

    def build(bases, spectra):
        return [HermitianOperator.from_eigensystem(w, u) for (u,), w in zip(bases, spectra)]

    for i, rng, a_op in run.block_draws(2, count, _dims(config, 8), draw, haar_bases, build):
        norm_inf = schatten_norm(a_op, math.inf)
        # one resolvent stack per form serves all three exponents
        firsts = quadrature.frac_power_operator(a_op, r_values, form="first")
        seconds = (quadrature.frac_power_operator(a_op, r_values, form="second")
                   if i % 4 == 0 else (None,) * len(r_values))
        for r, first, second in zip(r_values, firsts, seconds):
            spectral = apply_function(a_op, lambda lam: lam**r)
            err = float(np.max(np.abs(first.matrix - spectral.matrix)))
            run.le("oracle_first", err, 0.0, 1e-8 * norm_inf**r, r=r)
            if second is not None:
                err2 = float(np.max(np.abs(second.matrix - first.matrix)))
                run.le("forms_agree", err2, 0.0, 1e-8 * max(1.0, norm_inf**r), r=r)
        # scalar resolvent-pair identity against its closed form; scales are
        # kept at the density-eigenvalue range and well separated, so the
        # closed-form value stays O(100) and the absolute 1e-10 comparison is
        # meaningful in float64
        a0 = float(rng.uniform(0.2, 1.0))
        b0 = a0 * float(rng.uniform(0.25, 0.8))
        for r in r_values:
            closed = quadrature.resolvent_pair_closed_form(a0, b0, r)
            got = quadrature.resolvent_pair_integral(a0, b0, r)
            run.le("pair_identity", abs(got - closed), 0.0, 1e-10, r=r)
            envelope = min(a0, b0) ** (-(r + 1.0))
            run.le("pair_envelope", closed, envelope, 1e-12 * envelope, r=r)
        limit_base = float(rng.uniform(0.1, 1.0))
        closed = quadrature.resolvent_pair_closed_form(limit_base, limit_base, 0.5)
        got = quadrature.resolvent_pair_integral(limit_base, limit_base, 0.5)
        run.le("pair_limit", abs(got - closed), 0.0, 1e-10)


def _draw_state_checks(trial, rng, d):
    """Matrices of the states rho (of a drawn rank), other, and for d >= 2 a
    rank-deficient and a full-rank state; the controlled spectrum with the
    Ginibre draw of its Haar basis, and the mixing weight, are drawn in
    between, in the order the checks use them."""
    rank = int(rng.integers(1, d + 1))
    rho = draw_density(d, rank, rng)
    # exact-spectrum construction round-trips
    raw = rng.exponential(size=d)
    zeros = int(rng.integers(0, d))
    if zeros:
        raw[np.argsort(raw)[:zeros]] = 0.0
    spec = np.sort(raw / exact_sum(raw))
    g = ginibre(rng, (d, d))
    lam = float(rng.uniform(0.0, 1.0))
    matrices = [rho, draw_density(d, d, rng)]
    if d >= 2:
        matrices += [draw_density(d, d - 1, rng), draw_density(d, d, rng)]
    return matrices, (rank, spec, g, lam)


def _suite_states(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    def build(states, drawn):
        """Per instance its states, the state of density_with_spectrum and
        the mixture of rho and other, with rho's drawn rank and the
        controlled spectrum.  The block's Haar bases come from one
        haar_bases call and its mixtures from one stack call."""
        bases = haar_bases([g for _, _, g, _ in drawn])
        mixes = DensityMatrix.stack([lam * rho.matrix + (1.0 - lam) * other.matrix
                                     for (rho, other, *_), (*_, lam) in zip(states, drawn)])
        return [(made, DensityMatrix.from_eigensystem(probability_vector(spec), u), mix, rank,
                 spec) for made, (rank, spec, _, _), u, mix in zip(states, drawn, bases, mixes)]

    for _, _, ((rho, _, *extra), controlled, mix, rank, spec) in run.block_draws(
            3, count, _dims(config, math.inf), _draw_state_checks, DensityMatrix.stack, build):
        run.le("psd", 0.0, np.min(rho.spectrum), 0.0)
        run.le("unit_trace", abs(exact_sum(rho.spectrum) - 1.0), 0.0, 1e-10)
        run.verdict("rank", rho.rank == rank, states=(rho, rho), expected=rank)
        proj = rho.support_projector.matrix
        run.le("projector_idempotent", np.max(np.abs(proj @ proj - proj)), 0.0, PSD_TOL)
        run.le("projector_trace", abs(float(np.trace(proj).real) - rho.rank), 0.0, 1e-10)
        run.verdict("kernel_reflexive", kernel_included(rho, rho))
        run.le("spectrum_roundtrip", np.max(np.abs(controlled.spectrum - spec)), 0.0, 1e-10)
        run.verdict("mixing_closure", mix.dim == rho.dim)
        if extra:
            deficient, full = extra
            run.verdict("kernel_excluded", not kernel_included(deficient, full))


def _suite_entropy(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    for i, rng, pair in _pairs(run, config, count, 4, lambda i: i % 3 == 2):
        rho, sigma = pair.rho, pair.sigma
        q = _sample_q(rng, exact_every=10, i=i)
        value = pair.dq(q)
        run.le("positivity", 0.0, value, 1e-10, states=(rho, sigma), q=q)
        if pair.distances["trace_norm"] > 1e-4:
            run.verdict("zero_only_at_equality", value > 1e-10, states=(rho, sigma), q=q)
        if i % 25 == 0:
            run.le("self_zero", abs(quantum_relative_q(rho, rho, q)), 0.0, 1e-10, q=q)

    dims = _dims(config, 8)

    def draw_properties(i, rng, _):
        q = _sample_q(rng, exact_every=7, i=i)
        d1, d2 = int(rng.choice([2, 3])), int(rng.choice([2, 3]))
        matrices = [draw_density(n, n, rng) for n in (d1, d1, d2, d2)]
        d = int(rng.choice(dims))
        matrices += [draw_density(d, d, rng) for _ in range(4)]
        lam = float(rng.uniform(0.0, 1.0))
        da, db = int(rng.choice([2, 3])), int(rng.choice([2, 3]))
        matrices += [draw_density(da * db, da * db, rng) for _ in range(2)]
        g = ginibre(rng, (d, d))
        spec_a = rng.dirichlet(np.ones(d)) * 0.8 + 0.2 / d
        spec_b = rng.dirichlet(np.ones(d)) * 0.8 + 0.2 / d
        # the Ginibre draws of the rotation and of the commuting pair's basis
        return matrices, (q, lam, da, db, g, spec_a, spec_b, ginibre(rng, (d, d)))

    def build_properties(states, drawn):
        """Per instance its ten pairs, in the order the checks read them, and
        its draws: the two tensor factors and their product, the mixture of
        the two pairs of dimension d and those pairs, the bipartite pair and
        its reduction, the rotation of the first d pair, and the commuting
        pair.  The block's Haar bases come from one haar_bases call, and its
        mixtures, rotations and reductions from one stack call."""
        bases = iter(haar_bases([g for drawn_k in drawn for g in (drawn_k[4], drawn_k[7])]))
        matrices, commuting_bases = [], []
        for (*_, ra, sa, rb, sb, rho_ab, sigma_ab), (_, lam, da, db, *_) in zip(states, drawn):
            u, basis = next(bases), next(bases)
            u_h = u.conj().T
            matrices += [lam * ra.matrix + (1.0 - lam) * rb.matrix,
                         lam * sa.matrix + (1.0 - lam) * sb.matrix,
                         u @ ra.matrix @ u_h, u @ sa.matrix @ u_h,
                         partial_trace_matrix(rho_ab, da, db, "A"),
                         partial_trace_matrix(sigma_ab, da, db, "A")]
            commuting_bases.append(basis)
        made = iter(DensityMatrix.stack(matrices))
        pairs = []
        for (r1, s1, r2, s2, ra, sa, rb, sb, rho_ab, sigma_ab), drawn_k, basis in zip(
                states, drawn, commuting_bases):
            mix_r, mix_s, rot_r, rot_s, red_r, red_s = (next(made) for _ in range(6))
            spec_a, spec_b = drawn_k[5:7]
            pairs += [(r1, s1), (r2, s2), (tensor(r1, r2), tensor(s1, s2)), (mix_r, mix_s),
                      (ra, sa), (rb, sb), (rho_ab, sigma_ab), (red_r, red_s), (rot_r, rot_s),
                      (DensityMatrix.from_eigensystem(spec_a, basis),
                       DensityMatrix.from_eigensystem(spec_b, basis))]
        contexts = PairEval.stack(pairs)
        return [(contexts[10 * k : 10 * k + 10], drawn_k) for k, drawn_k in enumerate(drawn)]

    for _, _, (pairs, drawn) in run.block_draws(5, max(1, count // 5), None, draw_properties,
                                                DensityMatrix.stack, build_properties):
        q, lam, _, _, _, spec_a, spec_b, _ = drawn
        first, second, joint, mix, pair_a, pair_b, whole, reduced, rot, commuting = pairs
        # pseudoadditivity on tensor products
        v1, v2 = first.dq(q), second.dq(q)
        expect = v1 + v2 + (q - 1.0) * v1 * v2
        run.le("pseudoadditive", abs(joint.dq(q) - expect), 0.0, 1e-9, q=q)
        # joint convexity
        base = pair_a.dq(q)
        averaged = lam * base + (1.0 - lam) * pair_b.dq(q)
        run.le("joint_convexity", mix.dq(q), averaged, 1e-9, states=(mix.rho, mix.sigma), q=q)
        # monotonicity under partial trace
        run.le("partial_trace_monotone", reduced.dq(q), whole.dq(q), 1e-9,
               states=(whole.rho, whole.sigma), q=q)
        # unitary invariance
        run.le("unitary_invariance", abs(rot.dq(q) - base), 0.0, 1e-9 * (1.0 + abs(base)), q=q)
        # reduction to the classical formula for commuting states; pairing of
        # the two spectra follows the shared eigenbasis columns
        classical = classical_relative_q(spec_a, spec_b, q)
        run.le("classical_reduction", abs(commuting.dq(q) - classical), 0.0, 1e-10, q=q)

    # q -> 1 consistency on fixed pairs, each on one PairEval for D_1 and every q
    def draw_fixed(i, rng, _):
        return [draw_density(2 + 2 * i, 2 + 2 * i, rng) for _ in range(2)], None

    for _, _, pair in run.block_draws(6, 2, None, draw_fixed, DensityMatrix.stack,
                                      lambda states, _: PairEval.stack(states)):
        ratios = []
        for k in range(2, 10):
            q = 1.0 + 10.0**-k
            ratios.append(abs(pair.dq(q) - pair.d1) / (q - 1.0))
        for ratio in ratios[1:]:
            run.le("q_to_1", ratio, 2.0 * ratios[0], 1e-9, states=(pair.rho, pair.sigma))


def _suite_thm1(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    for i, rng, pair in _pairs(run, config, count, 7, lambda i: False):
        q = _sample_q(rng, exact_every=10, i=i)
        states, reports = (pair.rho, pair.sigma), thm1_bounds(pair, q)
        for rep in reports:
            run.le(rep.name, rep.lhs, rep.rhs, rep.allowance, states, q=q)
        # the spectral-norm bound is never looser than the halved trace-norm one
        rhs1, rhs2 = reports[0].rhs, reports[1].rhs
        run.le("rhs1_le_rhs2", rhs1, rhs2, 1e-12 * (1.0 + rhs2), states, q=q)


def _suite_thm2(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    for i, rng, pair in _pairs(run, config, count, 8, lambda i: i % 2 == 1):
        q = _sample_q(rng, exact_every=10, i=i)
        for rep in (thm2_bound(pair, q, v) for v in ("general", "traceless")):
            run.le(rep.name, rep.lhs, rep.rhs, rep.allowance, (pair.rho, pair.sigma), q=q)


def _suite_thm3(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    for i, rng, pair in _pairs(run, config, count, 9, lambda i: i % 2 == 1):
        if i % 5 == 4:
            q = float(rng.choice([2.0, 3.0, 4.0]))
        elif i % 2 == 0:
            q = _sample_q(rng, exact_every=0, i=i)
        else:
            q = _sample_q(rng, exact_every=0, i=i, lo=2.0, hi=6.0)
        for variant, q in (("general", q), ("q2", _sample_q(rng, exact_every=10, i=i))):
            rep = thm3_bound(pair, q, variant)
            run.le(rep.name, rep.lhs, rep.rhs, rep.allowance, (pair.rho, pair.sigma), q=q)


def _suite_lower(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    for i, rng, pair in _pairs(run, config, count, 10, lambda i: i % 4 == 3):
        rho, sigma = pair.rho, pair.sigma
        q = _sample_q(rng, exact_every=10, i=i)
        p = 0.0 if i % 10 == 5 else float(rng.uniform(0.0, 1.0))
        for rep in lower_bounds(pair, q, p):
            run.verdict(rep.name, rep.holds, states=(rho, sigma), q=q, p=p)
            run.le(rep.name + "_slack", 0.0, rep.rhs - rep.lhs, TOL_BOUND,
                   states=(rho, sigma), q=q, p=p)


def _suite_lemma1(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    r_values = (0.1, 0.5, 0.9)

    def draw(trial, rng, d):
        return [_pd_draw(rng, d), _pd_draw(rng, d)], None

    def build(operands, _):
        return frechet_check([OperatorPair(a, b) for a, b in operands], r_values)

    for _, _, reports in run.block_draws(11, count, _dims(config, 8), draw,
                                         HermitianOperator.stack, build):
        for r, rep in zip(r_values, reports):
            run.le("psd_gap", rep.lhs, rep.rhs, rep.allowance, r=r)


def _suite_lemma2(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    def draw(trial, rng, d):
        return [_herm_draw(rng, d), _herm_draw(rng, d)], None

    for _, _, ops in run.block_draws(12, count, _dims(config, 8), draw, HermitianOperator.stack,
                                     lambda operands, _: OperatorPair.stack(operands, range(2, 7))):
        for n in range(1, 7):
            for p in (1.0, 2.0, math.inf):
                rep = power_diff_bound(ops, n, p)
                run.le(rep.name, rep.lhs, rep.rhs, rep.allowance, n=n, p=p)
                if n == 1:
                    run.le("n1_equality", abs(rep.rhs - rep.lhs), 0.0,
                           1e-10 * max(1.0, rep.rhs), p=p)


def _suite_lemma3(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    def draw(i, rng, d):
        rank = d if i % 3 else max(1, d - 1)
        return [draw_density(d, rank, rng), _pd_draw(rng, d, trace_one=True)], None

    for _, _, ops in run.block_draws(13, count, _dims(config, 8), draw, HermitianOperator.stack,
                                     lambda operands, _: OperatorPair.stack(operands, ())):
        for s in (0.25, 0.5, 0.75):
            rep = lemma3_bound(ops, s)
            run.le(rep.name, rep.lhs, rep.rhs, rep.allowance, s=s)


ENVELOPE_B0 = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
ENVELOPE_Q = (1.5, 2.0, 3.0)


def divergence_envelope(seed: int, d: int) -> list[dict]:
    """Divergence-rate probe on the sigma_family grid with one fixed random rho.

    Each record carries D_q, the general b0^(1-q) bound, and the rescaled
    ratio D_q * b0^(q-1) next to its b0-free envelope constant, with the
    trial and salt of rho's stream.  Each b0 builds one sigma and one pair,
    which every q evaluates; the pairs are made together by PairEval.stack.
    The seed must lie where the CLI's seeds do.
    """
    _check_seed(seed)
    trial, salt = 0, 14
    rho = sample_density(d, d, trial_stream(seed, trial, salt))
    pairs = PairEval.stack((rho, sigma_family(d, b0)) for b0 in ENVELOPE_B0)
    records = []
    for q in ENVELOPE_Q:
        for b0, pair in zip(ENVELOPE_B0, pairs):
            rep = thm3_bound(pair, q, "general")
            dq = rep.lhs
            ratio = pair.scaled_dq(q, b0)
            constant = ceiling_factor(q) * pair.summary["lambda1"] ** (
                q - 1.0
            ) * pair.distances["trace_norm"]
            records.append(
                {
                    "trial": trial,
                    "salt": salt,
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


def tightness_crossover(seed: int, trials: int, d: int) -> list[dict]:
    """Compare the quadratic-in-b0 bound against the b0^(1-q) one at q = 2 for
    small b0, where the latter must win in every trial.  Each record carries
    the trial and salt of rho's stream; each b0 builds one sigma for every
    trial, and one PairEval.stack call makes every pair.  The seed must lie
    where the CLI's seeds do, and trials must be at least 1."""
    _check_seed(seed)
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    records, salt = [], 15
    sigmas = [sigma_family(d, b0) for b0 in CROSSOVER_B0]
    rhos = [sample_density(d, d, trial_stream(seed, trial, salt)) for trial in range(trials)]
    pairs = iter(PairEval.stack((rho, sigma) for rho in rhos for sigma in sigmas))
    for trial in range(trials):
        for b0 in CROSSOVER_B0:
            pair = next(pairs)
            rep2 = thm2_bound(pair, 2.0, "general")
            rep3 = thm3_bound(pair, 2.0, "q2")
            records.append(
                {
                    "trial": trial,
                    "salt": salt,
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
        run.instances_run += 1
        where = {k: rec[k] for k in ("trial", "salt", "q", "b0")}
        run.verdict("dq_le_thm3", rec["holds"], **where)
        run.le("ratio_bounded", rec["ratio"], rec["envelope_constant"] * (1.0 + TOL_BOUND),
               TOL_BOUND, **where)


def _suite_crossover(run: _SuiteRun, config: SweepConfig, count: int) -> None:
    trials = max(5, count // 40)
    for rec in tightness_crossover(config.seed, trials, d=4):
        run.instances_run += 1
        run.le("crossover", rec["thm3q2_rhs"], rec["thm2_rhs"], 0.0,
               **{k: rec[k] for k in ("trial", "salt", "b0")})


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
    _self_test()
    out_dir = Path(config.output_path).parent if config.output_path else None
    runs = []
    for name, builder, divisor in _SUITES:
        run = _SuiteRun(name, out_dir, config.seed)
        builder(run, config, max(1, config.trials // divisor))
        runs.append(run)
    report = VerifyReport(runs)
    if config.output_path:
        doc = {
            "seed": config.seed,
            "config": config.echo_dict(),
            "all_passed": report.passed,
            "suites": [{key: getattr(run, key) for key in SUITE_FIELDS} for run in runs],
        }
        write_atomic(config.output_path, json_text(doc) + "\n")
    return report


CSV_COLUMNS = (
    ("d", "q", "b0", "trial", "seed", "Dq", "D1", "dist_tr", "dist_sp")
    + tuple(col for spec in UPPER_BOUNDS for col in spec.columns)
    + ("pinsker_lhs", "ratio_dq_b0", "vacuous")
)


def sweep_row(pair: PairEval, q: float, b0: float, trial: int, stream_seed: int) -> dict:
    """One record of the sweep CSV for a given state pair; an upper bound whose
    q gate or hypotheses fail is ``nan`` in its columns and named in ``vacuous``."""
    dq = pair.dq(q)
    row = {
        "d": pair.rho.dim,
        "q": q,
        "b0": b0,
        "trial": trial,
        "seed": stream_seed,
        "Dq": dq,
        "D1": pair.d1,
        "dist_tr": pair.distances["trace_norm"],
        "dist_sp": pair.distances["spectral_norm"],
        "pinsker_lhs": 0.5 * pair.distances["trace_norm"] ** 2,
        "ratio_dq_b0": pair.scaled_dq(q, b0),
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
        str(row[col]) if col in ("d", "trial", "seed", "vacuous") else _fmt17(row[col])
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
    if not config.q_grid or not all(1.0 < q <= Q_MAX for q in config.q_grid):
        raise ConfigError(
            f"q_grid must be nonempty with every q in (1, {Q_MAX}], got {config.q_grid!r}"
        )
    d_max = max(config.dims)
    if not config.b0_grid or any(not 0.0 < b <= 1.0 / d_max for b in config.b0_grid):
        raise ConfigError(
            f"b0_grid must be nonempty with every b0 in (0, 1/{d_max}], got {config.b0_grid!r}"
        )
    if not config.output_path:
        raise ConfigError("output_path is required")
    _self_test()
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
            rho = sample_density(d, d, trial_stream(config.seed, trial, 0))
            for bi, (b0, sigma) in enumerate(zip(config.b0_grid, sigmas)):
                pair = PairEval(rho, sigma)
                for qi, q in enumerate(config.q_grid):
                    rows[qi, bi, trial] = _csv_line(sweep_row(pair, q, b0, trial, seed))
        lines.extend(rows[key] for key in sorted(rows))
    write_atomic(out, "\n".join(lines) + "\n")
    return out


def _json_value(x: float | None):
    """``x`` as JSON holds it: None, a finite float, or else its repr, as "inf"."""
    return x if x is None or math.isfinite(x) else repr(x)


def _report_to_json(rep: BoundReport) -> dict:
    return {
        "lhs": _json_value(rep.lhs),
        "rhs": _json_value(rep.rhs),
        "slack": rep.slack,
        "holds": rep.holds,
        "vacuous": rep.vacuous,
    }


def cmd_eval(rho_path, sigma_path, q_list) -> dict:
    """Evaluate D_q, the q -> 1 anchor, and every applicable bound for a state
    pair loaded from JSON files; returns a JSON-serializable report.  An empty
    q_list is a ConfigError."""
    if not q_list:
        raise ConfigError("q_list must be nonempty")
    _self_test()
    pair = PairEval(read_state(rho_path), read_state(sigma_path))
    # bytes of a file name that are not UTF-8 (lone surrogates in a str) become \x escapes
    paths = [os.fsencode(p).decode("utf-8", "backslashreplace") for p in (rho_path, sigma_path)]
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
        per_q.append({"q": q, "Dq": _json_value(dq), "reports": reports})
    return {
        "rho_path": paths[0],
        "sigma_path": paths[1],
        "dim": pair.rho.dim,
        "spectral_summary": pair.summary,
        "distances": pair.distances,
        "D1": _json_value(pair.d1),
        "per_q": per_q,
    }


def cmd_gen(d: int, rank: int, seed: int, out) -> Path:
    """Sample one random state and write it to the JSON state format."""
    if not 1 <= rank <= d:
        raise ConfigError(f"rank must satisfy 1 <= rank <= d, got rank={rank}, d={d}")
    if not 1 <= d <= MAX_DIM:
        raise ConfigError(f"dimension must lie in [1, {MAX_DIM}], got {d}")
    if not out:
        raise ConfigError("an output path is required")
    _check_seed(seed)
    write_state(out, sample_density(d, rank, trial_stream(seed, 0, 0)))
    return Path(out)
