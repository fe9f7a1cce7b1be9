"""Self-tests of the benchmark itself, run in one process:

    python3 perfbench/selftest.py

1. Every metric name in BENCHMARK.json is emitted, with its unit, by every
   workload, on-demand ones included: end-to-end metrics untraced, per-layer
   metrics traced.
2. The gate fails an operation when a reference value, an objective value,
   an f along a solve's trace or a final state is deliberately perturbed,
   on qst, sweep (traced, where the gate sees every solve) and diagnose.
3. Per-layer counts repeat exactly across two traced runs with one seed, and
   on the matrix path they equal the work per iteration of the current solver:
   2 + backtracks eigh calls, 1 eigvalsh call and 2 gradient evaluations.
   (Update these identities when the solver's work per iteration changes.)

Exits 1 if any check fails. It takes a few minutes, mostly diagnose.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import types
import warnings

import run
from bench_trace import Tracer
from bench_workloads import WORKLOADS, load_reference

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNTS = ("linalg.eigh_calls", "linalg.eigvalsh_calls", "objectives.gradient_calls",
          "objectives.value_calls", "solver.iters", "solver.backtracks")
failures = []


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run_once(workload: str, trace: int, seed: int = 0) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", str(trace)])
    return json.loads(out.getvalue().splitlines()[-1])


def metric_names(E) -> dict:
    results = {}
    for name in WORKLOADS:  # the listed workloads and the on-demand ones
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run_once(name, trace)
            results[(name, trace)] = result
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want and result["correct"] and result["failed"] == 0,
                  f"{name} --trace {trace}: emits exactly the {group} metrics, all correct")
    return results


def perturbations(E) -> None:
    reference = load_reference()
    wl = WORKLOADS["qst"](E, 0, run.OUT, reference)
    wl.setup()
    results = wl.run_pass([])
    check(not any(wl.check(results)), "qst: unperturbed pass is clean")

    wl.ref = dict(reference["qst"], final_f=[f * (1 + 1e-6) for f in reference["qst"]["final_f"]])
    check(all(wl.check(results)), "qst: a reference f perturbed by 1e-6 fails every operation")
    wl.ref = reference["qst"]

    value, offset = wl.specs[0].value, 1e-5 * abs(reference["qst"]["final_f"][0])
    wl.specs = [dataclasses.replace(wl.specs[0], value=lambda rho: value(rho) + offset)]
    wl.use(None)
    wl.f_start = [wl.specs[0].value(wl.start())]
    check(wl.check(wl.run_pass([]))[0] is not None,
          "qst: an objective value shifted by 1e-5 relative fails the operation")

    res = results[0]
    trace = list(res.trace)
    trace[3] = dataclasses.replace(trace[3], f_value=trace[2].f_value + 1e-9)
    check(wl.check([dataclasses.replace(res, trace=trace)])[0] is not None,
          "qst: an f that rises by 1e-9 along the trace fails the operation")

    sweep_perturbations(E, reference)

    dg = WORKLOADS["diagnose"](E, 0, run.OUT, reference)
    records = E.suites.run_suite("all", dg.samples, 0)
    check(dg.check([records]) == [None], "diagnose: unperturbed records are clean")
    bad = [dict(r) for r in records]
    worst = min((r for r in bad if r["check"] == "kappa"), key=lambda r: r["worst_margin"])
    worst["worst_margin"] -= 1e-6
    check(dg.check([bad])[0] is not None, "diagnose: a perturbed margin fails the operation")


def sweep_perturbations(E, reference) -> None:
    """The sweep gate, on one traced pass, which also hands it every solve."""
    wl = WORKLOADS["sweep"](E, 0, run.OUT, reference)
    tracer = Tracer()
    try:
        tracer.install(E)
        wl.setup()
        wl.use(tracer)
        (res,) = wl.run_pass([])
    finally:
        tracer.remove()
    check(wl.check([res]) == [None] and len(res[3]) == len(wl.lambdas),
          "sweep: unperturbed traced pass is clean and yields every solve")

    wl.ref = dict(reference["sweep"], f=[[f * (1 + 1e-6) for f in fs] for fs in reference["sweep"]["f"]])
    check(wl.check([res])[0] is not None, "sweep: a reference f perturbed by 1e-6 fails the operation")
    wl.ref = reference["sweep"]

    rc, out, err, solves = res
    solved = solves[2]
    trace = list(solved.trace)
    trace[1] = dataclasses.replace(trace[1], f_value=trace[0].f_value + 1e-9)
    rising = solves[:2] + [dataclasses.replace(solved, trace=trace)] + solves[3:]
    check(wl.check([(rc, out, err, rising)])[0] is not None,
          "sweep: an f that rises by 1e-9 along one solve's trace fails the operation")

    skewed = types.SimpleNamespace(matrix=solved.final_state.matrix * (1 + 1e-6))
    off = solves[:2] + [dataclasses.replace(solved, final_state=skewed)] + solves[3:]
    check(wl.check([(rc, out, err, off)])[0] is not None,
          "sweep: a final state with trace 1 + 1e-6 fails the operation")


def repeat_counts(first: dict) -> None:
    for workload in ("qst", "sweep"):
        a, b = first[(workload, 1)]["metrics"], run_once(workload, 1)["metrics"]
        check(all(a[k]["value"] == b[k]["value"] for k in COUNTS),
              f"{workload}: per-layer counts repeat across two traced runs")
        iters, bt = a["solver.iters"]["value"], a["solver.backtracks"]["value"]
        check(round(a["linalg.eigh_per_candidate"]["value"] * a["solver.candidates"]["value"])
              == 2 * iters + bt, f"{workload}: 2 + backtracks eigh calls per iteration")
        check(a["objectives.gradient_per_iter"]["value"] == 2.0,
              f"{workload}: 2 gradient evaluations per iteration")
    qst = first[("qst", 1)]["metrics"]
    check(qst["linalg.eigvalsh_calls"]["value"] == qst["solver.iters"]["value"],
          "qst: 1 eigvalsh call per iteration")


def main() -> int:
    E, _ = run.load_package()
    run.OUT.mkdir(exist_ok=True)
    perturbations(E)
    repeat_counts(metric_names(E))
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
