"""Paired parent/change benchmark runs, summarised into one BENCH JSON file.

    git archive PARENT_REV | tar -x -C /tmp/parent
    python3 tools/bench_pairs.py --parent /tmp/parent --change . \
        --pairs sweep=10 diagnose=4 --seconds 60 --out BENCH_9.json

Each tree is a source checkout with its own ``perfbench/run.py``. Pair i of a
workload runs both trees at seed i + 1, one after the other, the parent first
in even pairs and the change first in odd ones, so drift in the host's speed
falls on both sides alike. For each end-to-end metric the file holds each
side's runs, median and quartiles, and the change's wins (pairs in which it
reads lower; ties count for neither). A traced ``sweep`` run of each tree at
seed 0 gives the per-layer work counts. In a subprocess that imports
``TREE/src``, each tree's stacked ``eigh`` and ``eigvalsh`` calls, the
matrices they decompose and the entries of the largest stack are counted over
one ``run_suite("all", 100, 0)``, next to the tracemalloc peaks of one
``run_suite("all", samples, 0)`` for 100, 1,000 and 4,000 samples after a
warm-up pass, and of one d = 64 tomography probe built and run through the
suites' table and all six checks. Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "ms_per_iter", "setup_s", "peak_rss_mb")
COUNTS = ("linalg.eigh_calls", "objectives.value_calls", "solver.iters",
          "solver.backtracks", "linalg.eigh_per_candidate")

_COUNT_DECOMPOSITIONS = """
import json, math, sys, tracemalloc
sys.path.insert(0, sys.argv[1])
import numpy as np
from expgrad.suites import _CHECKS, _Table, random_probe, run_suite
out = {}
run_suite("all", 8, 0)
for samples in (100, 1000, 4000):
    tracemalloc.start()
    run_suite("all", samples, 0)
    out[f"tracemalloc_peak_mb_{samples}"] = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
tracemalloc.start()
probe = random_probe([np.random.default_rng([55, 0])], 64, ["qst"])
table = _Table(probe, list(_CHECKS))
for check, _ in _CHECKS.values():
    check(probe, table)
out["tracemalloc_peak_mb_d64_qst_probe"] = tracemalloc.get_traced_memory()[1] / 1e6
tracemalloc.stop()
counts, largest = {}, [0]
for name in ("eigh", "eigvalsh"):
    def counted(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
        calls, matrices = counts.get(_name, (0, 0))
        counts[_name] = (calls + 1, matrices + math.prod(np.shape(a)[:-2]))
        largest[0] = max(largest[0], np.size(a))
        return _fn(a, *args, **kwargs)
    setattr(np.linalg, name, counted)
run_suite("all", 100, 0)
out.update({f"{n}_{k}": c[i] for n, c in counts.items() for i, k in enumerate(("calls", "matrices"))})
print(json.dumps({**out, "largest_stack_entries": largest[0]}))
"""


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last stdout line of one ``perfbench/run.py`` run, parsed."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{tree}: {workload} seed {seed} failed its correctness gate")
    return {name: m["value"] for name, m in result["metrics"].items()}


def decompositions(tree: Path) -> dict:
    """Stacked eigh and eigvalsh calls, their matrices and the largest stack's
    entries in one 100-sample ``run_suite("all", ...)`` of the tree's own
    package, and the tracemalloc peaks of a 100-, a 1,000- and a 4,000-sample
    pass and of one d = 64 tomography probe's build, table and checks."""
    out = subprocess.run([sys.executable, "-c", _COUNT_DECOMPOSITIONS, str(tree.resolve() / "src")],
                         check=True, capture_output=True, text=True).stdout
    counts = json.loads(out)
    counts["calls"] = counts["eigh_calls"] + counts["eigvalsh_calls"]
    counts["matrices"] = counts["eigh_matrices"] + counts["eigvalsh_matrices"]
    return counts


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def pairs(parent: Path, change: Path, workload: str, count: int, seconds: float) -> dict:
    sides = {"parent": [], "change": []}
    for i in range(count):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = parent if side == "parent" else change
            sides[side].append(run(tree, workload, i + 1, seconds, 0))
            print(f"{workload} pair {i} {side}: {sides[side][-1]}", file=sys.stderr, flush=True)
    report = {"pairs": count, "seeds": list(range(1, count + 1)), "seconds": seconds}
    for metric in METRICS:
        parent_runs = [r[metric] for r in sides["parent"]]
        change_runs = [r[metric] for r in sides["change"]]
        report[metric] = {
            "parent": summary(parent_runs),
            "change": summary(change_runs),
            "change_wins": sum(c < p for p, c in zip(parent_runs, change_runs)),
        }
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--pairs", nargs="+", default=["sweep=10", "diagnose=4"],
                   help="WORKLOAD=COUNT, one per workload")
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace-seconds", type=float, default=30.0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    report = {"end_to_end": {}, "traced_sweep_seed0": {}, "diagnose_decompositions": {}}
    for spec in args.pairs:
        workload, count = spec.split("=")
        report["end_to_end"][workload] = pairs(args.parent, args.change, workload,
                                               int(count), args.seconds)
    for side, tree in (("parent", args.parent), ("change", args.change)):
        layers = run(tree, "sweep", 0, args.trace_seconds, 1)
        report["traced_sweep_seed0"][side] = {name: layers[name] for name in COUNTS}
        report["diagnose_decompositions"][side] = decompositions(tree)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
