"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of the qrelent layers from outside the
program: every module attribute of a ``qrelent`` module that is one of the
wrapped functions is replaced, so each import site (``from .entropy import
quantum_relative_q`` in ``bounds`` and ``harness``, ``quadrature.x`` lookups in
``harness``) records a span.  Spans live in memory and are written out when the
run ends.  Nothing in the program is edited.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from time import perf_counter_ns

# span name -> (module, attribute); module attributes patched at every import site
FUNCTIONS = {
    "linalg.schatten_norm": ("qrelent.linalg", "schatten_norm"),
    "linalg.apply_function": ("qrelent.linalg", "apply_function"),
    "linalg.psd_gap": ("qrelent.linalg", "psd_gap"),
    "quadrature.frac_power_operator": ("qrelent.quadrature", "frac_power_operator"),
    "quadrature.frechet_integral_rhs": ("qrelent.quadrature", "frechet_integral_rhs"),
    "quadrature.frac_power_scalar": ("qrelent.quadrature", "frac_power_scalar"),
    "quadrature.resolvent_pair_integral": ("qrelent.quadrature", "resolvent_pair_integral"),
    "quadrature.self_test": ("qrelent.quadrature", "self_test"),
    "states.sample_density": ("qrelent.states", "sample_density"),
    "states.read_state": ("qrelent.states", "read_state"),
    "states.write_state": ("qrelent.states", "write_state"),
    "states.kernel_included": ("qrelent.states", "kernel_included"),
    "entropy.quantum_relative_q": ("qrelent.entropy", "quantum_relative_q"),
    "entropy.relative_entropy_vn": ("qrelent.entropy", "relative_entropy_vn"),
    "entropy.quantum_relative_q_low": ("qrelent.entropy", "quantum_relative_q_low"),
    "bounds.thm1_bounds": ("qrelent.bounds", "thm1_bounds"),
    "bounds.thm2_bound": ("qrelent.bounds", "thm2_bound"),
    "bounds.thm3_bound": ("qrelent.bounds", "thm3_bound"),
    "bounds.lower_bounds": ("qrelent.bounds", "lower_bounds"),
    "bounds.frechet_check": ("qrelent.bounds", "frechet_check"),
    "bounds.power_diff_bound": ("qrelent.bounds", "power_diff_bound"),
    "bounds.lemma3_bound": ("qrelent.bounds", "lemma3_bound"),
}
# library entry points the program reaches through a module attribute lookup
# (np.linalg.eigvalsh in linalg, scipy.linalg.cho_factor in quadrature)
EXTERNAL = {
    "linalg.eigvalsh": ("numpy.linalg", "eigvalsh"),
    "quadrature.cho_factor": ("scipy.linalg", "cho_factor"),
}
# linalg.eigh is the contract-checked eigendecomposition HermitianOperator.eig,
# traced only when it decomposes (a cache miss); states.DensityMatrix is the
# constructor and the from_eigensystem classmethod
NAMES = tuple(FUNCTIONS) + tuple(EXTERNAL) + ("linalg.eigh", "states.DensityMatrix")

SELF_TEST = "quadrature.self_test"
ROOT = "request"


class Tracer:
    """Records spans (name, start, end, parent, op) while an op is open.

    ``install`` patches the program; ``uninstall`` restores every attribute.
    Wrappers installed but outside an open op call straight through.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._patches: list = []
        self.op: str | None = None
        self.round = 0
        self.missing: set[str] = set()
        self.hit: set[str] = set()
        self.dq_keys: dict[int, set] = {}
        self.reports = 0
        self.vacuous = 0
        self.precondition_failed = 0

    # -- recording ---------------------------------------------------------
    def _record(self, name: str, fn, args, kwargs):
        self.hit.add(name)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        outermost = self._open.get(name, 0) == 0
        self._open[name] = self._open.get(name, 0) + 1
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if name.startswith("bounds.") and type(exc).__name__ == "PreconditionFailed":
                self.precondition_failed += 1
            raise
        finally:
            end = perf_counter_ns()
            self._open[name] -= 1
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op, self.round, outermost)

    def request(self, op: str):
        """Context manager for one CLI request: the root span of its op."""
        tracer = self

        class _Op:
            def __enter__(self):
                tracer.op = op
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(None)
                self.start = perf_counter_ns()

            def __exit__(self, *exc):
                idx = tracer._stack.pop()
                tracer.spans[idx] = (ROOT, self.start, perf_counter_ns(), -1, op,
                                     tracer.round, True)
                tracer.op = None
                return False

        return _Op()

    def _wrap(self, name: str, fn):
        tracer = self
        is_dq = name == "entropy.quantum_relative_q"
        is_bound = name.startswith("bounds.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if is_dq:
                tracer._note_dq(args, kwargs)
            result = tracer._record(name, fn, args, kwargs)
            if is_bound:
                tracer._note_reports(result)
            return result

        return wrapper

    def _note_dq(self, args, kwargs) -> None:
        rho = args[0] if args else kwargs["rho"]
        sigma = args[1] if len(args) > 1 else kwargs["sigma"]
        q = args[2] if len(args) > 2 else kwargs["q"]
        key = hashlib.blake2b(digest_size=16)
        key.update(rho.matrix.tobytes())
        key.update(sigma.matrix.tobytes())
        key.update(repr(float(q)).encode())
        self.dq_keys.setdefault(self.round, set()).add(key.digest())

    def _note_reports(self, result) -> None:
        for rep in result if isinstance(result, list) else [result]:
            self.reports += 1
            self.vacuous += bool(getattr(rep, "vacuous", False))

    # -- patching ----------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced name; names the program no longer has are listed
        in ``missing`` and reported as zero."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "qrelent" or k.startswith("qrelent."))]
        for name, (mod_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        for name, (mod_name, attr) in EXTERNAL.items():
            module = sys.modules[mod_name]
            self._set(module, attr, self._wrap(name, getattr(module, attr)))
        self._install_classes()

    def _install_classes(self) -> None:
        tracer = self
        herm = getattr(sys.modules["qrelent.linalg"], "HermitianOperator", None)
        if herm is not None and "eig" in herm.__dict__ and "_eig" in getattr(herm, "__slots__", ()):
            eig = herm.__dict__["eig"]
            traced_eig = self._wrap("linalg.eigh", eig)

            def wrapper(obj):
                if tracer.op is None or obj._eig is not None:
                    return eig(obj)
                return traced_eig(obj)

            self._set(herm, "eig", functools.wraps(eig)(wrapper))
        else:
            self.missing.add("linalg.eigh")
        density = getattr(sys.modules["qrelent.states"], "DensityMatrix", None)
        if density is not None and "from_eigensystem" in density.__dict__:
            init = density.__dict__["__init__"]
            from_eig = density.__dict__["from_eigensystem"].__func__
            self._set(density, "__init__", self._wrap("states.DensityMatrix", init))
            self._set(density, "from_eigensystem",
                      classmethod(self._wrap("states.DensityMatrix", from_eig)))
        else:
            self.missing.add("states.DensityMatrix")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------
    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("op,round,name,start_ns,end_ns,parent\n")
            for name, start, end, parent, op, rnd, _ in self.spans:
                fh.write(f"{op},{rnd},{name},{start},{end},{parent}\n")

    def layer_metrics(self, rounds: int, ops_per_round: float) -> dict[str, float]:
        """Per-layer numbers per round of the request set, from body spans only.

        ``<name>.calls`` counts spans, ``<name>.s`` sums the outermost spans of
        a name.  Spans under ``quadrature.self_test`` (the accuracy check every
        command runs at start) count only towards ``quadrature.self_test``.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        in_self_test = [False] * len(spans)
        under_quad = [False] * len(spans)
        for i, (name, start, end, parent, op, rnd, _) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += end - start
                pname = spans[parent][0]
                in_self_test[i] = in_self_test[parent] or pname == SELF_TEST
                under_quad[i] = under_quad[parent] or pname.startswith("quadrature.")
        calls = dict.fromkeys(NAMES, 0)
        secs = dict.fromkeys(NAMES, 0.0)
        root_ns = harness_self = bounds_self = quad_ns = 0
        for i, (name, start, end, parent, op, rnd, outermost) in enumerate(spans):
            if op == "setup":
                continue
            dur = end - start
            if name == ROOT:
                root_ns += dur
                harness_self += dur - child_ns[i]
                continue
            if in_self_test[i]:
                continue
            calls[name] += 1
            if outermost:
                secs[name] += dur
            if name.startswith("bounds."):
                bounds_self += dur - child_ns[i]
            if name.startswith("quadrature.") and name != SELF_TEST and not under_quad[i]:
                quad_ns += dur
        per = 1.0 / max(rounds, 1)
        out: dict[str, float] = {}
        for name in NAMES:
            out[f"{name}.calls"] = calls[name] * per
            out[f"{name}.s"] = secs[name] * 1e-9 * per
        integrals = calls["quadrature.frac_power_operator"] + calls["quadrature.frechet_integral_rhs"]
        out["quadrature.factorizations_per_integral"] = (
            calls["quadrature.cho_factor"] / integrals if integrals else 0.0)
        out["quadrature.wall_frac"] = quad_ns / root_ns if root_ns else 0.0
        dq_calls = calls["entropy.quantum_relative_q"]
        distinct = sum(len(keys) for rnd, keys in self.dq_keys.items() if rnd >= 0)
        out["entropy.dq_calls_per_op"] = dq_calls * per / ops_per_round if ops_per_round else 0.0
        out["entropy.dq_repeat_ratio"] = dq_calls / distinct if distinct else 0.0
        out["bounds.self_s"] = bounds_self * 1e-9 * per
        out["bounds.vacuous_frac"] = self.vacuous / self.reports if self.reports else 0.0
        out["bounds.precondition_failed"] = self.precondition_failed * per
        out["harness.self_s"] = harness_self * 1e-9 * per
        return out
