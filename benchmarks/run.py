"""qrelent benchmark: drives the verify, sweep and eval CLI commands.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload {verify,sweep,eval,all} --seed N \
        --seconds S --trace {0,1}

One process, one client, closed loop: the next request starts when the
previous one returns.  Every request goes through ``qrelent.cli.main`` with
its standard output captured.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs the request set untraced and then traced and prints the
per-layer metrics.  The last line of standard output is one JSON object;
the exit code is 1 when an output check fails.  See README.md.
"""

from __future__ import annotations

import os

# one BLAS thread per process; set before numpy is imported anywhere
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import Calibration  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("verify", "sweep", "eval")
#: fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 7
#: quadrature work that must stay at zero calls on sweep and eval
QUADRATURE_WORK = ("quadrature.frac_power_operator", "quadrature.frechet_integral_rhs",
                   "quadrature.frac_power_scalar", "quadrature.resolvent_pair_integral",
                   "quadrature.cho_factor")
#: traced names each workload must reach, the proof that the tracer is complete
MUST_HIT = {
    "verify": QUADRATURE_WORK + (
        "quadrature.self_test", "entropy.quantum_relative_q", "entropy.relative_entropy_vn",
        "entropy.quantum_relative_q_low", "linalg.eigh", "linalg.eigvalsh",
        "linalg.schatten_norm", "linalg.apply_function", "linalg.psd_gap",
        "states.DensityMatrix", "states.sample_density", "states.kernel_included",
        "bounds.thm1_bounds", "bounds.thm2_bound", "bounds.thm3_bound",
        "bounds.lower_bounds", "bounds.frechet_check", "bounds.power_diff_bound",
        "bounds.lemma3_bound"),
    "sweep": (
        "quadrature.self_test", "entropy.quantum_relative_q", "entropy.relative_entropy_vn",
        "linalg.eigh", "linalg.eigvalsh", "linalg.schatten_norm", "states.DensityMatrix",
        "states.sample_density", "states.kernel_included", "bounds.thm1_bounds",
        "bounds.thm2_bound", "bounds.thm3_bound"),
    "eval": (
        "quadrature.self_test", "entropy.quantum_relative_q", "entropy.relative_entropy_vn",
        "entropy.quantum_relative_q_low", "linalg.eigh", "linalg.eigvalsh",
        "linalg.schatten_norm", "states.DensityMatrix", "states.read_state",
        "states.write_state", "states.kernel_included", "bounds.thm1_bounds",
        "bounds.thm2_bound", "bounds.thm3_bound", "bounds.lower_bounds"),
}


def import_program():
    """Import qrelent from this checkout's source tree, and nothing else."""
    if not (SRC / "qrelent" / "__init__.py").is_file():
        sys.exit(f"error: program source {SRC / 'qrelent'} not found; "
                 "run from the root of a qrelent checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qrelent.cli
    import qrelent.quadrature

    if Path(qrelent.__file__).resolve().parent != SRC / "qrelent":
        sys.exit(f"error: imported qrelent from {qrelent.__file__}, not from {SRC}")
    return qrelent


def setup(workload, seed: int, work: Path):
    """What every run pays before its first request: import, the quadrature
    self-test, and the workload's inputs."""
    qrelent = import_program()
    qrelent.quadrature.self_test()
    return qrelent.cli.main, workload.prepare(seed, work)


def probe_setup(name: str, seed: int, run_dir: Path, calibration) -> tuple[float, float]:
    """Median over SETUP_PROBES fresh processes of the time from spawn to the
    end of their set-up (reported by a line on their standard output):
    (corrected for the host's speed, as measured)."""
    times = []
    corrected = []
    for k in range(SETUP_PROBES):
        calibration.run()
        calibration.run()
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload",
                name, "--seed", str(seed), "--work", str(run_dir / f"probe{k}")]
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            watchdog = threading.Timer(60.0, proc.kill)
            watchdog.start()
            try:
                ready = proc.stdout.readline()
                times.append(time.perf_counter() - start)
                proc.wait()
            finally:
                watchdog.cancel()
        if proc.returncode != 0 or ready != b"ready\n":
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        corrected.append(calibration.correct(times[-1], start))
    return statistics.median(corrected), statistics.median(times)


def env_stamp() -> dict:
    """Cores, versions and the BLAS thread count each loaded OpenBLAS reports."""
    import ctypes

    import numpy
    import scipy

    blas = {}
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_config.restype = ctypes.c_char_p
                blas[Path(path).name] = {"config": get_config().decode(),
                                         "threads": get_threads()}
                break
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_pinned": BLAS_THREADS,
        "openblas": blas,
    }


def call_cli(main, argv, span=None):
    """One request: (exit code or None, exception or None, stdout, seconds)."""
    out = io.StringIO()
    rc = exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with span if span is not None else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                rc = main(argv)
            except (Exception, SystemExit) as err:  # a failed request, counted
                exc = err
            elapsed = time.perf_counter() - start
    return rc, exc, out.getvalue(), elapsed


class Runner:
    """Replays the request set in whole rounds and keeps every count."""

    def __init__(self, workload, main, requests, calibration):
        self.workload = workload
        self.main = main
        self.requests = requests
        self.baseline: dict[int, tuple[bytes, int]] = {}
        self.attempted = self.failed = self.rounds = 0
        self.samples: list[list[float]] = [[] for _ in requests]
        self.starts: list[list[float]] = [[] for _ in requests]
        self.ok_ops = [0] * len(requests)
        self.problems: list[str] = []
        self.errors: dict[str, int] = {}
        self.calibration = calibration

    def _finish(self, i: int, req, rc, exc, stdout: str) -> int:
        """Checks outside the timed body; returns the operations that succeeded."""
        wl = self.workload
        if rc != 0:
            self.attempted += req.expected_ops
            self.failed += req.expected_ops
            label = type(exc).__name__ if exc is not None else f"exit code {rc}"
            self.errors[label] = self.errors.get(label, 0) + 1
            problem = wl.on_failure(req, rc, exc)
            if problem:
                self.problems.append(problem)
            return 0
        artifact = req.artifact.read_bytes() if req.artifact else stdout.encode()
        problems = []
        if i not in self.baseline:
            problems = wl.check(req, artifact)
            self.baseline[i] = (artifact, wl.ops(req, artifact))
            req.expected_ops = self.baseline[i][1]
        elif artifact != self.baseline[i][0]:
            problems = [f"{' '.join(req.argv)}: output bytes differ from the first run"]
        self.attempted += req.expected_ops
        if problems:
            self.problems.extend(problems)
            self.failed += req.expected_ops
            return 0
        return req.expected_ops

    def round(self, tracer=None) -> tuple[int, float]:
        """Every request once: (operations attempted, seconds of request time)."""
        round_time = 0.0
        round_ops = 0
        for i, req in enumerate(self.requests):
            span = tracer.request(f"r{tracer.round}.{i}") if tracer is not None else None
            self.starts[i].append(time.perf_counter())
            rc, exc, stdout, elapsed = call_cli(self.main, req.argv, span)
            round_time += elapsed
            self.calibration.tick(elapsed)
            self.samples[i].append(elapsed)
            self.ok_ops[i] += self._finish(i, req, rc, exc, stdout)
            round_ops += req.expected_ops
        self.rounds += 1
        return round_ops, round_time

    def fastest(self) -> list[float]:
        """Each request's fastest repeat, corrected for the host's speed at the
        time of the repeat.  Bursts of load from other tenants only ever add
        time, and the fastest of many repeats is the steadiest estimate of
        what the request itself costs; see calibrate.py for the phases."""
        correct = self.calibration.correct
        return [min(correct(t, at) for t, at in zip(samples, starts))
                for samples, starts in zip(self.samples, self.starts)]


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(name: str, seed: int, seconds: float, run_dir: Path):
    workload = WORKLOADS[name]
    main, requests = setup(workload, seed, run_dir / "inputs")
    calibration = Calibration()
    setup_s, setup_raw = probe_setup(name, seed, run_dir, calibration)
    call_cli(main, requests[0].argv)  # warm-up: lazily built node tables, not counted
    runner = Runner(workload, main, requests, calibration)
    spent = 0.0
    while spent < seconds:
        spent += runner.round()[1]
    fastest = runner.fastest()
    raw = [min(samples) for samples in runner.samples]
    ok_per_round = sum(runner.ok_ops) / runner.rounds
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok_per_round / sum(fastest), "1/s"),
        "op_p50_ms": (percentile(fastest, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(fastest, 90) * 1e3, "ms"),
        "ok_frac": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"{len(requests)} requests x {runner.rounds} rounds, {spent:.1f} s of request time; "
        f"fail_frac {runner.failed / runner.attempted:.6g} "
        f"({runner.failed} of {runner.attempted} ops)",
        f"calibration kernel: {len(calibration.samples)} runs, fastest "
        f"{min(calibration.samples) * 1e3:.2f} ms, median "
        f"{statistics.median(calibration.samples) * 1e3:.2f} ms; uncorrected: "
        f"setup_s {setup_raw:.4g} s, ops_per_s {ok_per_round / sum(raw):.4g}/s, "
        f"op_p50_ms {percentile(raw, 50) * 1e3:.4g}, op_p90_ms {percentile(raw, 90) * 1e3:.4g}",
    ]
    return runner, metrics, notes


def per_layer(name: str, seed: int, seconds: float, run_dir: Path):
    from tracer import Tracer

    workload = WORKLOADS[name]
    tracer = Tracer()
    tracer.install()
    tracer.round = -1
    with tracer.request("setup"):
        main, requests = setup(workload, seed, run_dir / "inputs")
    tracer.uninstall()
    call_cli(main, requests[0].argv)
    runner = Runner(workload, main, requests, Calibration())
    # untraced and traced rounds alternate, so drift in machine speed cancels
    # out of the overhead; the per-layer numbers come from the traced rounds
    spent = 0.0
    traced_rounds = traced_ops = 0
    plain_fastest = traced_fastest = None
    while traced_rounds == 0 or spent < seconds:
        spent += runner.round()[1]
        plain_fastest = _fold_min(plain_fastest, runner)
        tracer.round = traced_rounds
        tracer.install()
        try:
            ops, elapsed = runner.round(tracer)
        finally:
            tracer.uninstall()
        traced_fastest = _fold_min(traced_fastest, runner)
        spent += elapsed
        traced_ops += ops
        traced_rounds += 1
    ops_per_round = traced_ops / traced_rounds
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{name}.csv")
    layers = tracer.layer_metrics(traced_rounds, ops_per_round)
    layers["trace.overhead_frac"] = sum(traced_fastest) / sum(plain_fastest) - 1.0

    problems = [f"tracer: {n} was not reached on {name}"
                for n in MUST_HIT[name] if n not in tracer.hit and n not in tracer.missing]
    if name != "verify":
        problems += [f"tracer: {n} ran {layers[n + '.calls']} times per round on {name}, "
                     "expected 0" for n in QUADRATURE_WORK if layers[n + ".calls"]]
    runner.problems.extend(problems)
    metrics = {key: (value, _layer_unit(key)) for key, value in layers.items()}
    notes = [f"traced rounds {traced_rounds} alternating with as many untraced, "
             f"ops per round {ops_per_round:g}"]
    if tracer.missing:
        notes.append(f"not in the program, reported as 0: {', '.join(sorted(tracer.missing))}")
    notes.append("traced counts per round: " + json.dumps(
        {k: v for k, v in layers.items() if k.endswith(".calls") and v}, sort_keys=True))
    return runner, metrics, notes


def _fold_min(fastest, runner) -> list[float]:
    """Fastest latency per request so far, folding in the round just run."""
    latest = [samples[-1] for samples in runner.samples]
    return latest if fastest is None else [min(a, b) for a, b in zip(fastest, latest)]


def _layer_unit(key: str) -> str:
    if key.endswith(".calls") or key.endswith("_per_integral") or key.endswith("_per_op") \
            or key.endswith("precondition_failed"):
        return "count"
    if key.endswith("_s") or key.endswith(".s"):
        return "s"
    return "ratio"


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    import_program()
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        measure = per_layer if trace else end_to_end
        runner, metrics, notes = measure(name, seed, seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("env " + json.dumps(env_stamp(), sort_keys=True))
    print(f"workload {name} seed {seed} seconds {seconds:g} trace {trace}")
    for note in notes:
        print(note)
    for label, count in sorted(runner.errors.items()):
        print(f"failed requests: {count} x {label}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:44s} {value:14.6g} {unit}")
    for problem in runner.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    correct = not runner.problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; exits 1 if any of them fails."""
    results = {}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            code = 1
        results[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps({"correct": code == 0 and all(r and r["correct"] for r in results.values()),
                      "workloads": results}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup(WORKLOADS[args.workload], args.seed, Path(args.work))
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
