"""The three benchmark workloads: their requests, inputs and output checks.

Each workload turns the benchmark seed into a fixed set of ``qrelent`` CLI
requests.  The benchmark replays the set in rounds; a request's output is
checked in full the first time it succeeds and must be byte-identical in every
later round.  See README.md for why each workload looks the way it does.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

#: relative slack of the bound verdicts, the program's TOL_BOUND
TOL_BOUND = 1e-9
#: agreement required between the program's D_q and the Schur-Pade reference
#: for well-conditioned sigma: the program's own cross-route tolerance
TOL_REFERENCE = 1e-9
EPS = float(np.finfo(np.float64).eps)


@dataclass
class Request:
    argv: list[str]
    #: operations attempted when the request fails before reporting its count
    expected_ops: int = 1
    #: file the command writes; None means its standard output is the artifact
    artifact: Path | None = None
    meta: dict = field(default_factory=dict)


def _q_arg(values) -> str:
    return ",".join(repr(float(q)) for q in values)


class Verify:
    """``qrelent verify`` on the default dims 2..8 with a reduced trial count,
    several seeds per round."""

    name = "verify"
    trials = 40
    requests = 4

    def prepare(self, seed: int, work: Path) -> list[Request]:
        requests = []
        for k in range(self.requests):
            out = work / "verify" / f"report{k}.json"
            argv = ["verify", "--trials", str(self.trials),
                    "--seed", str(seed * self.requests + k), "--out", str(out)]
            requests.append(Request(argv, artifact=out))
        return requests

    def ops(self, req: Request, artifact: bytes) -> int:
        return sum(s["instances_run"] for s in json.loads(artifact)["suites"])

    def check(self, req: Request, artifact: bytes) -> list[str]:
        doc = json.loads(artifact)
        if doc.get("all_passed") is not True:
            failed = [s["name"] for s in doc["suites"] if s["failures"]]
            return [f"verify did not report all_passed (failing suites: {failed})"]
        return []

    def on_failure(self, req: Request, rc, exc) -> str | None:
        return f"verify must report all_passed, got exit code {rc} ({exc!r})"


class Sweep:
    """``qrelent sweep`` on dims {64, 256} and full-rank rho, one request per
    point of a 2 x 2 (q, b0) grid."""

    name = "sweep"
    dims = (64, 256)
    q_grid = (1.5, 2.0)
    b0_grid = (1e-3, 1e-4)
    trials = 1
    upper = ("thm1_rhs1", "thm1_rhs2", "thm1_rhs3", "thm2_rhs", "thm2tl_rhs",
             "thm3_rhs", "thm3q2_rhs")

    def prepare(self, seed: int, work: Path) -> list[Request]:
        requests = []
        for q in self.q_grid:
            for b0 in self.b0_grid:
                out = work / "sweep" / f"sweep_q{q!r}_b0{b0!r}.csv"
                argv = ["sweep", "--dims", ",".join(map(str, self.dims)), "--q", repr(q),
                        "--b0", repr(b0), "--trials", str(self.trials),
                        "--seed", str(seed), "--out", str(out)]
                requests.append(Request(argv, expected_ops=len(self.dims) * self.trials,
                                        artifact=out))
        return requests

    @staticmethod
    def _rows(artifact: bytes) -> list[dict]:
        lines = [ln for ln in artifact.decode("ascii").splitlines() if not ln.startswith("#")]
        return list(csv.DictReader(io.StringIO("\n".join(lines))))

    def ops(self, req: Request, artifact: bytes) -> int:
        return len(self._rows(artifact))

    def check(self, req: Request, artifact: bytes) -> list[str]:
        rows = self._rows(artifact)
        problems = []
        if len(rows) != req.expected_ops:
            problems.append(f"sweep wrote {len(rows)} rows, expected {req.expected_ops}")
        for row in rows:
            where = f"sweep row d={row['d']} q={row['q']} b0={row['b0']}"
            dq, d1, pinsker = float(row["Dq"]), float(row["D1"]), float(row["pinsker_lhs"])
            for col in self.upper:
                rhs = float(row[col])
                if not math.isnan(rhs) and not dq <= rhs + TOL_BOUND * (1.0 + rhs):
                    problems.append(f"{where}: {col}={rhs!r} below Dq={dq!r}")
            if not pinsker <= d1 + TOL_BOUND * (1.0 + d1):
                problems.append(f"{where}: pinsker_lhs={pinsker!r} above D1={d1!r}")
            if not d1 <= dq + TOL_BOUND * (1.0 + dq):
                problems.append(f"{where}: D1={d1!r} above Dq={dq!r}")
        return problems

    def on_failure(self, req: Request, rc, exc) -> str | None:
        return None


def _ginibre_state(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _haar_unitary(rng, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    return np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)


def reference_dq(rho: np.ndarray, sigma: np.ndarray, q: float, basis=None) -> tuple[float, float]:
    """D_q = (1 - tr(rho^q sigma^(1-q)))/(1 - q) by Schur-Pade fractional
    powers, and the relative tolerance a float64 evaluation is held to.

    Shares no code with either of the program's routes.  ``basis`` (an
    isometry onto the support of sigma) restricts both states to that support.
    Perturbing sigma by one rounding error moves sigma^(1-q) by about
    |1-q| * cond(sigma) * eps relative, so the tolerance adds that allowance,
    times the dimension, to TOL_REFERENCE.
    """
    if basis is not None:
        rho = basis.conj().T @ rho @ basis
        sigma = basis.conj().T @ sigma @ basis
    power = scipy.linalg.fractional_matrix_power
    s = float(np.trace(power(rho, q) @ power(sigma, 1.0 - q)).real)
    allowance = abs(q - 1.0) * float(np.linalg.cond(sigma)) * sigma.shape[0] * EPS
    return (1.0 - s) / (1.0 - q), TOL_REFERENCE + allowance


class Eval:
    """A stream of ``qrelent eval rho.json sigma.json --q ...`` requests.

    Per round and per dim in {4, 16, 64}: two full-rank pairs, one
    common-kernel pair (sigma of rank d/2, rho inside its support) and one
    kernel-excluded pair (D_q = +inf); plus one edge pair at d = 16 whose sigma
    has b0 = 1e-10 and which also asks for q = Q_MAX = 40.
    """

    name = "eval"
    dims = (4, 16, 64)
    mix = (("full", 2), ("common", 1), ("excluded", 1))
    q_list = (1.5, 2.0, 3.0)
    edge_dim = 16
    edge_b0 = 1e-10
    edge_q = q_list + (40.0,)

    def _pairs(self, seed: int):
        rng = np.random.default_rng(seed)
        for d in self.dims:
            for kind, count in self.mix:
                for _ in range(count):
                    basis = None
                    if kind == "full":
                        rho, sigma = _ginibre_state(rng, d), _ginibre_state(rng, d)
                    else:
                        basis = _haar_unitary(rng, d)[:, : d // 2]
                        sigma = basis @ _ginibre_state(rng, d // 2) @ basis.conj().T
                        if kind == "common":
                            rho = basis @ _ginibre_state(rng, d // 2) @ basis.conj().T
                        else:
                            rho, basis = _ginibre_state(rng, d), None
                    yield kind, d, rho, sigma, basis, self.q_list
        d = self.edge_dim
        spectrum = np.full(d, self.edge_b0)
        spectrum[0] = 1.0 - self.edge_b0 * (d - 1)
        yield "edge", d, _ginibre_state(rng, d), np.diag(spectrum).astype(complex), None, self.edge_q

    def prepare(self, seed: int, work: Path) -> list[Request]:
        from qrelent.states import DensityMatrix, write_state

        folder = work / "eval"
        folder.mkdir(parents=True, exist_ok=True)
        requests = []
        for i, (kind, d, rho, sigma, basis, q_list) in enumerate(self._pairs(seed)):
            paths = [folder / f"pair{i:02d}_{label}.json" for label in ("rho", "sigma")]
            for path, matrix in zip(paths, (rho, sigma)):
                write_state(path, DensityMatrix((matrix + matrix.conj().T) / 2.0))
            requests.append(Request(
                ["eval", str(paths[0]), str(paths[1]), "--q", _q_arg(q_list)],
                meta={"kind": kind, "d": d, "paths": paths, "basis": basis}))
        return requests

    def ops(self, req: Request, artifact: bytes) -> int:
        return 1

    def check(self, req: Request, artifact: bytes) -> list[str]:
        doc = json.loads(artifact)
        kind = req.meta["kind"]
        where = f"eval {kind} pair d={req.meta['d']}"
        problems = []
        if kind == "excluded" and doc["D1"] != "inf":
            problems.append(f"{where}: D1={doc['D1']!r}, expected inf")
        rho, sigma = (_read_matrix(p) for p in req.meta["paths"])
        for entry in doc["per_q"]:
            q, dq = entry["q"], entry["Dq"]
            for name, rep in entry["reports"].items():
                if rep["holds"] is not True:
                    problems.append(f"{where} q={q}: {name} does not hold")
            if kind == "excluded" or (kind == "edge" and q == 40.0):
                # excluded: the kernel of sigma carries weight of rho; edge at
                # q = 40: b0^(1-q) = 1e390 puts the true value past float range
                if dq != "inf":
                    problems.append(f"{where} q={q}: Dq={dq!r}, expected inf")
                continue
            ref, tol = reference_dq(rho, sigma, q, req.meta["basis"])
            if dq == "inf" or not abs(dq - ref) <= tol * (1.0 + abs(ref)):
                problems.append(f"{where} q={q}: Dq={dq!r}, reference {ref!r}, "
                                f"tolerance {tol:.2e} relative")
        return problems

    def on_failure(self, req: Request, rc, exc) -> str | None:
        return None


WORKLOADS = {w.name: w for w in (Verify(), Sweep(), Eval())}
