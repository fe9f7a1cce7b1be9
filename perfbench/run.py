"""Benchmark for the expgrad solver, CLI and diagnostics; one workload per call.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 60 --trace 0

Run it from the root of a source checkout: it imports ``expgrad`` from
``src/`` and nowhere else. With ``--trace 0`` it measures the workload for
``--seconds`` and prints the end-to-end metrics. With ``--trace 1`` it wraps
each layer of the package, measures for half the time traced and prints the
per-layer metrics, then removes every wrapper and measures the other half
untraced to give the tracing overhead. Every operation goes through the
correctness gate in ``bench_workloads``. Output: one JSON line with the
environment record, a table of metrics with sample counts, and, last, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. Records of the
run (and, traced, its spans) are written to ``perfbench/out/``. BLAS is
pinned to one thread; no threads or processes are started.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the first numpy import

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bench_env
from bench_trace import Tracer, layer_unit
from bench_workloads import WORKLOADS, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

UNITS = {"wall_s": "s", "ms_per_iter": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


PACKAGE = ("expgrad", "expgrad.cli", "expgrad.serialize")
SETUP_SAMPLES_FIRST = 4  # set-up samples before the first pass; one before each later pass


@dataclass
class Pass:
    seconds: float
    units: int
    unit_ms: list
    results: list | None  # kept for the first pass only
    failures: list
    layers: dict | None


def load_package():
    """Import expgrad from this checkout's ``src/``; returns (package, seconds)."""
    if not (SRC / "expgrad" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no expgrad sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    for name in PACKAGE:
        importlib.import_module(name)
    seconds = time.perf_counter() - t0
    import expgrad
    if Path(expgrad.__file__).resolve().parent != SRC / "expgrad":
        raise SystemExit(f"run.py: imported expgrad from {expgrad.__file__}, not from {SRC}")
    return expgrad, seconds


def reimport_seconds() -> float:
    """Seconds to import a fresh copy of the package, its dependencies
    (numpy, scipy) already loaded. The copy is discarded and the modules in
    use are put back, so the workload keeps running the same objects."""
    def ours():
        return {k: m for k, m in sys.modules.items() if k == "expgrad" or k.startswith("expgrad.")}

    saved = ours()
    for name in saved:
        del sys.modules[name]
    try:
        t0 = time.perf_counter()
        for name in PACKAGE:
            importlib.import_module(name)
        return time.perf_counter() - t0
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)


def measure(wl, budget: float, tracer=None, setup_times=None) -> list[Pass]:
    """Passes over the workload until the next one would overrun ``budget``.
    With a ``setup_times`` list, set-up is sampled between passes (a fresh
    import plus one instance set-up), so that its samples are spread over
    the run like the passes are."""
    passes = []
    start = time.perf_counter()
    while True:
        if setup_times is not None:
            for _ in range(1 if passes else SETUP_SAMPLES_FIRST):
                setup_times.append(reimport_seconds() + wl.setup_instance())
        stamps = []
        mark = tracer.mark() if tracer else None
        t0 = time.perf_counter()
        results = wl.run_pass(stamps)
        seconds = time.perf_counter() - t0
        layers = tracer.layer_metrics(mark, tracer.mark(), wl.max_backtracks) if tracer else None
        # only the first pass's results are kept, so memory does not grow with the pass count
        passes.append(Pass(seconds, wl.units(results), wl.unit_times(stamps),
                           results if not passes else None, wl.check(results), layers))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.seconds for p in passes) > budget:
            return passes


def end_to_end(passes: list[Pass], setup_times: list[float]) -> tuple[dict, dict]:
    wall = [p.seconds for p in passes]
    units = sum(p.units for p in passes)
    values = {
        "wall_s": statistics.median(wall),
        "ms_per_iter": sum(wall) * 1e3 / max(1, units),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    q1, _, q3 = statistics.quantiles(wall, n=4) if len(wall) > 1 else (wall[0],) * 3
    notes = {
        "wall_s": f"median of {len(passes)} passes, quartiles {q1:.4g}..{q3:.4g} s",
        "ms_per_iter": f"all {len(passes)} passes: {sum(wall):.4g} s / {units} units",
        "setup_s": f"median of {len(setup_times)} samples, min {min(setup_times):.4g} max {max(setup_times):.4g} s",
        "peak_rss_mb": "ru_maxrss of the process",
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}, notes


def iteration_line(passes: list[Pass]) -> str | None:
    """Median and 90th percentile of per-iteration times, where the workload
    gives them (``qst``, from the ``sink`` hook); a table line, not a metric."""
    unit_ms = [t for p in passes for t in p.unit_ms]
    if len(unit_ms) < 100:  # the 90th percentile needs at least ten samples beyond it
        return None
    p50, p90 = np.percentile(unit_ms, [50, 90])
    return f"  {'iter_ms (p50, p90)':34s} {p50:>7.4g} {p90:>6.4g} ms {len(unit_ms)} iterations"


def per_layer(traced: list[Pass], untraced: list[Pass], tracer) -> dict:
    metrics = {}
    for name in traced[0].layers:
        metrics[name] = statistics.median(p.layers[name] for p in traced)
    for name, span in (("serialize.load_s", "serialize.load"), ("serialize.save_s", "serialize.save")):
        calls = tracer.call_seconds(span)
        metrics[name] = statistics.median(calls) if calls else 0.0
    metrics["trace.overhead_share"] = (statistics.median(p.seconds for p in traced)
                                       / statistics.median(p.seconds for p in untraced) - 1.0)
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    E, import_s = load_package()
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](E, args.seed, OUT, load_reference())
    tracer = Tracer() if args.trace else None
    setup_times = []
    try:
        if tracer:
            tracer.install(E)
        wl.setup()
        wl.use(tracer)
        if tracer:
            traced = measure(wl, args.seconds / 2, tracer)
            tracer.remove()
            wl.use(None)
            untraced = measure(wl, args.seconds / 2)
            reason = wl.compare_phases(traced[0].results, untraced[0].results)
            if reason:
                traced[0].failures[0] = reason
        else:
            traced, untraced = [], measure(wl, args.seconds, setup_times=setup_times)
    finally:
        if tracer:
            tracer.remove()

    passes = traced + untraced
    failures = [f for p in passes for f in p.failures]
    failed = sum(f is not None for f in failures)
    env = bench_env.record(ROOT, args.seed, wl.working_set())
    if tracer:
        metrics, notes = per_layer(traced, untraced, tracer), {}
    else:
        metrics, notes = end_to_end(untraced, setup_times)

    print(json.dumps({"env": env}))
    print(f"workload={wl.name} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"attempted={len(failures)} failed={failed} fail_share={failed / len(failures):.4g}")
    print(f"  {'first import':34s} {import_s:>14.6g} {'s':16s} cold, once per process; not in setup_s")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:16s} {notes.get(name, '')}")
    if iteration_line(untraced):
        print(iteration_line(untraced))
    for reason in sorted({f for f in failures if f})[:10]:
        print(f"FAILED: {reason}", file=sys.stderr)

    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "metrics": metrics, "notes": notes, "failures": failures,
              "pass_seconds": [p.seconds for p in passes], "setup_seconds": setup_times,
              "import_seconds": import_s}
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        (OUT / f"trace-{stem}.json").write_text(json.dumps({
            "span_fields": ["name", "start", "end", "parent", "operation"],
            "spans": tracer.spans, "counts": tracer.counts, "solves": tracer.solves,
            "warnings": tracer.warnings}) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": len(failures),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
