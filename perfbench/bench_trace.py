"""In-memory tracer for the traced benchmark run.

The tracer wraps public expgrad callables at the names through which the
package looks them up (``numpy.linalg.eigh`` for every module, ``phi`` both in
``expgrad.diagnostics`` and in ``expgrad.suites``, ``solve`` both in
``expgrad.solver`` and in ``expgrad.cli``, ...). Timed wrappers record spans
``[name, start, end, parent, operation]``; constructors that run in the inner
loop get counting wrappers only, to keep the overhead low. ``remove()``
restores every original, so the untraced part of a run executes the package
exactly as shipped.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time
import warnings
from collections import Counter, defaultdict

import numpy as np

SOLVE = "solver.solve"
CLI_SWEEP = "cli.lambda-sweep"
SUITE_CHECKS = ("sandwich", "ratio", "moments", "kappa", "fixed-point", "self-concordance")


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (("_s", "s"), ("_per_candidate", "calls/candidate"),
                         ("_per_iter", "calls/iter"), ("accept_ratio", "iters/candidate"),
                         ("_share", "share")):
        if name.endswith(suffix):
            return unit
    return "count"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.solves: list[dict] = []
        self.warnings: list[dict] = []
        self.results: list | None = None  # when a list, every SolveResult is appended
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._warning_ctx = None

    # -- wrappers -----------------------------------------------------------

    def timed(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def region(self, name):
        """A span around a block of benchmark code (a CLI call, a suite)."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def wrap_spec(self, spec):
        """An ObjectiveSpec whose callables record objectives.* spans."""
        return dataclasses.replace(
            spec,
            value=self.timed("objectives.value", spec.value),
            gradient=self.timed("objectives.gradient", spec.gradient),
            in_domain=self.timed("objectives.in_domain", spec.in_domain))

    def _record_solve(self, result):
        if self.results is not None:
            self.results.append(result)
        trace = result.trace
        self.solves.append({
            "op": self.op,
            "status": result.status.value,
            "iters": len(trace),
            "backtracks": sum(r.backtracks for r in trace),
        })

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def install(self, E):
        """Wrap the package's public callables; ``E`` is the expgrad package."""
        la = np.linalg
        self._set(la, "eigh", self.timed("linalg.eigh", la.eigh))
        self._set(la, "eigvalsh", self.timed("linalg.eigvalsh", la.eigvalsh))
        ds = E.linalg.DensityState
        from_exponent = vars(ds)["from_exponent"].__func__
        self._set(ds, "from_exponent", classmethod(self.timed("linalg.from_exponent", from_exponent)))
        self._set(E.linalg.HermitianOperator, "__init__",
                  self.counted("linalg.hermitian_inits", E.linalg.HermitianOperator.__init__))
        self._set(E.entropy.ProbabilityVector, "__init__",
                  self.counted("entropy.prob_vector_inits", E.entropy.ProbabilityVector.__init__))

        solve = self.timed(SOLVE, E.solver.solve, self._record_solve)
        self._set(E.solver, "solve", solve)
        self._set(E.cli, "solve", solve)

        for factory in ("qst_objective", "hedged_qst_objective"):
            original = getattr(E.cli, factory)
            self._set(E.cli, factory,
                      lambda *a, _f=original, **k: self.wrap_spec(_f(*a, **k)))

        load = self.timed("serialize.load", E.serialize.load_ensemble)
        self._set(E.serialize, "load_ensemble", load)
        self._set(E.cli, "load_ensemble", load)
        self._set(E.serialize, "save_ensemble",
                  self.timed("serialize.save", E.serialize.save_ensemble))

        qre = self.timed("entropy.qre", E.entropy.quantum_relative_entropy)
        self._set(E.suites, "quantum_relative_entropy", qre)
        self._set(E.diagnostics, "quantum_relative_entropy", qre)
        for fn in ("phi", "phi_derivatives"):
            wrapped = self.timed(f"diagnostics.{fn}", getattr(E.diagnostics, fn))
            self._set(E.diagnostics, fn, wrapped)
            self._set(E.suites, fn, wrapped)
        self._set(E.suites, "random_probe",
                  self.timed("diagnostics.random_probe", E.suites.random_probe))

        self._warning_ctx = warnings.catch_warnings()
        self._warning_ctx.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = self._show_warning

    def remove(self):
        if self._warning_ctx is not None:
            self._warning_ctx.__exit__(None, None, None)
            self._warning_ctx = None
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _show_warning(self, message, category, filename, lineno, file=None, line=None):
        self.warnings.append({
            "category": category.__name__,
            "where": f"{os.path.basename(filename)}:{lineno}",
            "message": str(message),
            "in_solve": any(self.spans[i][0] == SOLVE for i in self._stack),
            "op": self.op,
        })

    # -- per-pass accounting ------------------------------------------------

    def mark(self):
        return len(self.spans), Counter(self.counts), len(self.solves), len(self.warnings)

    def layer_metrics(self, start_mark, end_mark, max_backtracks):
        """Per-layer numbers for the spans recorded between two marks."""
        s0, c0, v0, w0 = start_mark
        s1, c1, v1, w1 = end_mark
        spans = self.spans[s0:s1]
        counts = c1 - c0
        solves = self.solves[v0:v1]

        calls, busy = Counter(), defaultdict(float)
        children: dict[int, list] = {}  # span index -> [(name, seconds)] of direct children
        for name, start, end, parent, _ in spans:
            calls[name] += 1
            busy[name] += end - start
            children.setdefault(parent, []).append((name, end - start))

        def self_time(name, counts_as_child):
            total = 0.0
            for i, sp in enumerate(spans, s0):
                if sp[0] == name:
                    covered = sum(t for n, t in children.get(i, ()) if counts_as_child(n))
                    total += sp[2] - sp[1] - covered
            return total

        iters = sum(s["iters"] for s in solves)
        backtracks = sum(s["backtracks"] for s in solves)
        statuses = Counter(s["status"] for s in solves)
        cap_hits = statuses["BacktrackCapHit"]
        candidates = iters + backtracks + cap_hits * (max_backtracks + 1)

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "linalg.eigh_calls": calls["linalg.eigh"],
            "linalg.eigvalsh_calls": calls["linalg.eigvalsh"],
            "linalg.eigh_s": busy["linalg.eigh"],
            "linalg.from_exponent_calls": calls["linalg.from_exponent"],
            "linalg.from_exponent_s": busy["linalg.from_exponent"],
            "linalg.eigh_per_candidate": ratio(self.calls_inside(spans, s0, "linalg.eigh", SOLVE), candidates),
            "linalg.hermitian_inits": counts["linalg.hermitian_inits"],
            "objectives.gradient_calls": calls["objectives.gradient"],
            "objectives.gradient_s": busy["objectives.gradient"],
            "objectives.gradient_per_iter": ratio(
                self.calls_inside(spans, s0, "objectives.gradient", SOLVE), iters),
            "objectives.value_calls": calls["objectives.value"],
            "objectives.value_s": busy["objectives.value"],
            "solver.iters": iters,
            "solver.backtracks": backtracks,
            "solver.candidates": candidates,
            "solver.accept_ratio": ratio(iters, candidates),
            "solver.self_s": self_time(SOLVE, lambda n: n.startswith(("objectives.", "linalg."))),
            "solver.cap_hits": cap_hits,
            "solver.status_converged": statuses["Converged"],
            "solver.status_stationary": statuses["Stationary"],
            "solver.status_max_iters": statuses["MaxIters"],
            "solver.runtime_warnings": sum(
                1 for w in self.warnings[w0:w1] if w["category"] == "RuntimeWarning" and w["in_solve"]),
            "entropy.prob_vector_inits": counts["entropy.prob_vector_inits"],
            "entropy.qre_calls": calls["entropy.qre"],
            "entropy.qre_s": busy["entropy.qre"],
            "diagnostics.phi_calls": calls["diagnostics.phi"],
            "diagnostics.phi_s": busy["diagnostics.phi"],
            "diagnostics.phi_derivatives_calls": calls["diagnostics.phi_derivatives"],
            "diagnostics.phi_derivatives_s": busy["diagnostics.phi_derivatives"],
            "diagnostics.random_probe_s": busy["diagnostics.random_probe"],
            "cli.self_s": self_time(CLI_SWEEP, lambda n: n == SOLVE),
        }
        for check in SUITE_CHECKS:
            m[f"suites.{check}_s"] = busy[f"suites.{check}"]
        return m

    def calls_inside(self, spans, offset, name, ancestor):
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        by_index = {i: sp for i, sp in enumerate(spans, offset)}
        n = 0
        for sp in spans:
            if sp[0] != name:
                continue
            parent = sp[3]
            while parent in by_index:
                if by_index[parent][0] == ancestor:
                    n += 1
                    break
                parent = by_index[parent][3]
        return n

    def call_seconds(self, name):
        """Durations of every ``name`` span recorded so far, set-up included."""
        return [sp[2] - sp[1] for sp in self.spans if sp[0] == name]
