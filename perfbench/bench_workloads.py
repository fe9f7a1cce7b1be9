"""The benchmark workloads: input generation from the seed, one pass over
each workload's fixed operation list, and the correctness gate.

Inputs. Each solver workload draws its instances from fixed base instances
(base seeds 0..K-1 of the workload) and uses the run seed to apply a random
symmetry the solver is equivariant under: a Haar-random unitary rotation
U M U^H of every measurement operator. Each seed therefore gives different
input matrices but the same trajectory, up to rounding, from the invariant
maximally mixed start. So a run costs the same work whatever its seed, and
its final f values can be checked against stored references on every seed.
Fresh random instances vary far more in cost than any useful bound allows:
over 14-40 seeds the coefficient of variation of solve time was 24% (qst)
and 30% (sweep).
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

import numpy as np

from bench_trace import CLI_SWEEP, SUITE_CHECKS

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
OK_STATUSES = ("Converged", "Stationary")
_eigvalsh = np.linalg.eigvalsh  # kept unwrapped so the gate adds no traced calls
clock = time.perf_counter


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE_PATH.read_text())
    except FileNotFoundError:
        return {}


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def rotated_wishart(base_key: int, index: int, rng: np.random.Generator,
                    d: int, m: int) -> list[np.ndarray]:
    """Base instance ``index`` of the ``expgrad gen`` recipe (A^H A with
    complex Gaussian A), every operator rotated by one Haar unitary drawn
    from the run's ``rng``."""
    base = np.random.default_rng([base_key, index])
    u = haar_unitary(rng, d)
    ops = []
    for _ in range(m):
        a = base.standard_normal((d, d)) + 1j * base.standard_normal((d, d))
        a = a @ u.conj().T
        ops.append(a.conj().T @ a)
    return ops


def density_defect(state) -> str | None:
    """Why a final density state is not one: trace, symmetry, eigenvalues."""
    rho = state.matrix
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        return f"final state has trace {np.trace(rho).real!r}"
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        return "final state is not Hermitian"
    lo = float(_eigvalsh(rho)[0])
    if lo < -1e-12:
        return f"final state has eigenvalue {lo!r}"
    return None


def solve_defect(res, f_start: float) -> str | None:
    """Why one ``SolveResult`` fails the gate: status, f rising along the
    trace (from f(x0)), or a defective final state."""
    if res.status.value not in OK_STATUSES:
        return f"stopped with status {res.status.value}"
    fs = [f_start] + [r.f_value for r in res.trace]
    if any(b > a for a, b in zip(fs, fs[1:])):
        return "f increased along the trace"
    return density_defect(res.final_state)


class Workload:
    name = ""

    def __init__(self, E, seed: int, workdir: Path, reference: dict):
        self.E = E
        self.seed = seed
        self.workdir = workdir
        self.ref = reference.get(self.name, {})
        self.tol = reference.get("tolerance", {})
        self.max_backtracks = E.solver.SolverConfig().max_backtracks
        self.tracer = None
        self._ops = 0
        self._sample_rng = np.random.default_rng([seed, 1])
        self._samples = 0

    def use(self, tracer) -> None:
        """Route the next passes through ``tracer`` (None: untraced)."""
        self.tracer = tracer

    def _next_op(self) -> None:
        self._ops += 1
        if self.tracer is not None:
            self.tracer.op = self._ops

    def _f_defect(self, f: float, ref: float) -> str | None:
        if abs(f - ref) > self.tol["f_rel"] * max(1.0, abs(ref)):
            return f"f {f!r} differs from reference {ref!r}"
        return None

    def setup(self) -> None:
        """Build the inputs the passes use."""

    def setup_instance(self) -> float:
        """Build one throwaway input the way ``setup`` does; returns seconds."""
        return 0.0

    def run_pass(self, stamps: list) -> list:
        raise NotImplementedError

    def check(self, results: list) -> list[str | None]:
        """Failure reason per operation, None for a pass."""
        raise NotImplementedError

    def units(self, results: list) -> int:
        raise NotImplementedError

    def unit_times(self, stamps: list) -> list[float]:
        """Milliseconds per iteration, where a public hook gives them."""
        return []

    def compare_phases(self, traced: list, untraced: list) -> str | None:
        return None

    def working_set(self) -> dict:
        raise NotImplementedError


class Qst(Workload):
    """``solve`` with ``qst_objective`` from the maximally mixed state."""

    name = "qst"
    dim, num_ops, instances = 32, 128, 3

    def build(self, index, rng, path):
        E = self.E
        mats = rotated_wishart(1, index, rng, self.dim, self.num_ops)
        ens = E.objectives.MeasurementEnsemble([E.linalg.HermitianOperator(m) for m in mats])
        E.serialize.save_ensemble(ens, path)
        return E.objectives.qst_objective(E.serialize.load_ensemble(path))

    def start(self):
        return self.E.linalg.DensityState.maximally_mixed(self.dim)

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.specs = [self.build(i, rng, self.workdir / f"qst-{i}.json")
                      for i in range(self.instances)]
        self.f_start = [f.value(self.start()) for f in self.specs]
        self.active = self.specs

    def setup_instance(self):
        index, self._samples = self._samples % self.instances, self._samples + 1
        t0 = clock()
        self.build(index, self._sample_rng, self.workdir / "qst-sample.json")
        return clock() - t0

    def use(self, tracer):
        super().use(tracer)
        self.active = self.specs if tracer is None else [tracer.wrap_spec(f) for f in self.specs]

    def run_pass(self, stamps):
        solve = self.E.solver.solve
        results = []
        for f in self.active:
            self._next_op()
            x0 = self.start()
            ts = [clock()]
            try:
                results.append(solve(x0, f, sink=lambda _rec, ts=ts: ts.append(clock())))
            except Exception as exc:  # a raising operation is a failed one
                results.append(exc)
            stamps.append(ts)
        return results

    def unit_times(self, stamps):
        return [float(t) * 1e3 for ts in stamps for t in np.diff(ts)]

    def units(self, results):
        return sum(len(r.trace) for r in results if not isinstance(r, Exception))

    def check(self, results):
        return [self._check_solve(i, res) for i, res in enumerate(results)]

    def _check_solve(self, i, res):
        if isinstance(res, Exception):
            return f"raised {type(res).__name__}: {res}"
        defect = solve_defect(res, self.f_start[i])
        if defect is None and "final_f" in self.ref:
            return self._f_defect(res.trace[-1].f_value, self.ref["final_f"][i])
        return defect

    def working_set(self):
        per = self.num_ops * self.dim ** 2 * 16
        return {"per_operation_bytes": per, "all_instances_bytes": per * self.instances,
                "what": f"{self.num_ops} complex {self.dim}x{self.dim} operators per solve"}


class Sweep(Workload):
    """``expgrad lambda-sweep`` through ``expgrad.cli.main``, in-process.

    Untraced, the gate sees only the CLI's exit code and rows. Traced, it
    also gets every ``SolveResult`` the CLI produced, through the tracer's
    ``solve`` wrapper, and checks each like a ``qst`` solve."""

    name = "sweep"
    dim, num_ops, instances = 16, 64, 1
    lambdas = tuple(float(x) for x in np.geomspace(1e-1, 1e-4, 8))

    def build(self, index, rng, path):
        E = self.E
        mats = rotated_wishart(2, index, rng, self.dim, self.num_ops)
        ens = E.objectives.MeasurementEnsemble([E.linalg.HermitianOperator(m) for m in mats])
        E.serialize.save_ensemble(ens, path)

    def setup(self):
        E = self.E
        rng = np.random.default_rng(self.seed)
        self.paths = [self.workdir / f"sweep-{i}.json" for i in range(self.instances)]
        for i, path in enumerate(self.paths):
            self.build(i, rng, path)
        # f(x0) of each hedged solve; the objectives are unwrapped, so the
        # gate adds no traced calls to a pass
        x0 = E.linalg.DensityState.maximally_mixed(self.dim)
        self.f_start = [[E.objectives.hedged_qst_objective(E.serialize.load_ensemble(path), lam).value(x0)
                         for lam in self.lambdas] for path in self.paths]

    def setup_instance(self):
        """Generate and save an input as ``setup`` does, then load it as the
        CLI does inside the pass."""
        index, self._samples = self._samples % self.instances, self._samples + 1
        path = self.workdir / "sweep-sample.json"
        t0 = clock()
        self.build(index, self._sample_rng, path)
        self.E.serialize.load_ensemble(path)
        return clock() - t0

    def run_pass(self, stamps):
        lambdas = ",".join(repr(x) for x in self.lambdas)
        results = []
        for path in self.paths:
            self._next_op()
            argv = ["lambda-sweep", "--operators", str(path), "--lambdas", lambdas]
            out, err = io.StringIO(), io.StringIO()
            region = self.tracer.region(CLI_SWEEP) if self.tracer else contextlib.nullcontext()
            solves = [] if self.tracer else None
            if self.tracer:
                self.tracer.results = solves
            t0 = clock()
            try:
                with region, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        rc = self.E.cli.main(argv)
                    except SystemExit as exc:  # argparse rejects usage errors this way
                        rc = exc.code
                results.append((rc, out.getvalue(), err.getvalue(), solves))
            except Exception as exc:  # a raising operation is a failed one
                results.append(exc)
            finally:
                if self.tracer:
                    self.tracer.results = None
            stamps.append((t0, clock()))
        return results

    @staticmethod
    def rows(res) -> list[dict]:
        """The CLI's JSON rows; an unparseable output reads as no rows."""
        try:
            return [json.loads(line) for line in res[1].splitlines() if line.strip()]
        except json.JSONDecodeError:
            return []

    def units(self, results):
        return sum(row["iters"] for res in results
                   if not isinstance(res, Exception) and res[0] == 0
                   for row in self.rows(res))

    def check(self, results):
        return [self._check_sweep(i, res) for i, res in enumerate(results)]

    def _check_sweep(self, i, res):
        if isinstance(res, Exception):
            return f"raised {type(res).__name__}: {res}"
        rc, _, err, solves = res
        if rc != 0:
            return f"exit code {rc}: {err.strip()}"
        rows = self.rows(res)
        if [row["lambda"] for row in rows] != list(self.lambdas):
            return "rows do not match the requested barrier weights"
        bad = [row["status"] for row in rows if row["status"] not in OK_STATUSES]
        if bad:
            return f"stopped with status {bad[0]}"
        fs = [row["f"] for row in rows]
        if any(b > a for a, b in zip(fs, fs[1:])):
            return "unhedged f increased as lambda descended"
        if solves is not None:
            if len(solves) != len(self.lambdas):
                return f"{len(solves)} solves for {len(self.lambdas)} barrier weights"
            for lam, f0, solved in zip(self.lambdas, self.f_start[i], solves):
                defect = solve_defect(solved, f0)
                if defect:
                    return f"lambda {lam:.3g}: {defect}"
        for key in ("f", "hedged_f"):
            for row, ref in zip(rows, self.ref[key][i] if key in self.ref else ()):
                defect = self._f_defect(row[key], ref)
                if defect:
                    return f"lambda {row['lambda']:.3g}: {key} {defect}"
        return None

    def working_set(self):
        per = self.num_ops * self.dim ** 2 * 16
        return {"per_operation_bytes": per, "all_instances_bytes": per * self.instances,
                "what": f"{self.num_ops} complex {self.dim}x{self.dim} operators per sweep"}


class Diagnose(Workload):
    """``run_suite("all", 100, seed)``; the traced run calls ``run_suite``
    once per check instead, and its concatenated records must equal the
    untraced ``all`` records."""

    name = "diagnose"
    samples = 100

    def run_pass(self, stamps):
        suites = self.E.suites
        self._next_op()
        t0 = clock()
        try:
            if self.tracer is None:
                records = suites.run_suite("all", self.samples, self.seed)
            else:
                records = []
                for check in SUITE_CHECKS:
                    with self.tracer.region(f"suites.{check}"):
                        records += suites.run_suite(check, self.samples, self.seed)
        except Exception as exc:  # a raising operation is a failed one
            records = exc
        stamps.append((t0, clock()))
        return [records]

    def units(self, results):
        return sum(len(r) for r in results if not isinstance(r, Exception))

    def check(self, results):
        return [self._check_records(r) for r in results]

    def _check_records(self, records):
        if isinstance(records, Exception):
            return f"raised {type(records).__name__}: {records}"
        if len(records) != len(SUITE_CHECKS) * self.samples:
            return f"{len(records)} records, expected {len(SUITE_CHECKS) * self.samples}"
        failed = [r for r in records if not r["pass"]]
        if failed:
            return f"{len(failed)} records failed, first {failed[0]['check']} dim {failed[0]['dim']}"
        if self.seed == self.ref.get("seed"):
            for check, ref in self.ref["worst_margin"].items():
                worst = min(r["worst_margin"] for r in records if r["check"] == check)
                if abs(worst - ref) > self.tol["margin_abs"] + self.tol["margin_rel"] * abs(ref):
                    return f"{check} worst margin {worst!r} differs from reference {ref!r}"
        return None

    def compare_phases(self, traced, untraced):
        if traced[0] != untraced[0]:
            return "per-check records differ from the 'all' records"
        return None

    def working_set(self):
        d = 8
        per = 2 * d * d * d * 16
        return {"per_operation_bytes": per, "all_instances_bytes": per,
                "what": "largest probe: 16 complex 8x8 operators"}


WORKLOADS = {w.name: w for w in (Qst, Sweep, Diagnose)}
