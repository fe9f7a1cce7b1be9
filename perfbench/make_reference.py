"""Regenerate ``perfbench/reference.json``, the values the correctness gate
compares against, from one untraced pass of every workload.

    python3 perfbench/make_reference.py [--check-seeds 1,2]

Solver workloads are recorded at seed 0. Their inputs differ between seeds
only by a rotation the solver is equivariant under, so the
final f values hold for every seed; ``--check-seeds`` reruns those workloads
on other seeds and prints the largest relative deviation, which must stay
well inside ``tolerance.f_rel``. ``diagnose`` margins depend on the seed and
are recorded for seed 0 only.
"""

from __future__ import annotations

import argparse
import json

import run
from bench_trace import SUITE_CHECKS
from bench_workloads import REFERENCE_PATH, WORKLOADS

# Relative tolerance on final f: a refactor that changes rounding may move
# the stopping iteration by one, and the last accepted step changes f by at
# most stop_tol = 1e-10 relative; 1e-8 leaves two orders of headroom.
TOLERANCE = {"f_rel": 1e-8, "margin_abs": 1e-9, "margin_rel": 1e-6}


def solver_values(E, name: str, seed: int) -> dict:
    wl = WORKLOADS[name](E, seed, run.OUT, {})
    wl.setup()
    results = wl.run_pass([])
    failures = wl.check(results)
    if any(failures):
        raise SystemExit(f"{name} seed {seed}: {failures}")
    if name == "sweep":
        rows = [wl.rows(res) for res in results]
        return {"f": [[r["f"] for r in rs] for rs in rows],
                "hedged_f": [[r["hedged_f"] for r in rs] for rs in rows]}
    return {"final_f": [res.trace[-1].f_value for res in results]}


def diagnose_values(E, seed: int) -> dict:
    wl = WORKLOADS["diagnose"](E, seed, run.OUT, {})
    (records,) = wl.run_pass([])
    if any(wl.check([records])):
        raise SystemExit(f"diagnose seed {seed}: {wl.check([records])}")
    return {"seed": seed, "worst_margin": {
        check: min(r["worst_margin"] for r in records if r["check"] == check)
        for check in SUITE_CHECKS}}


def _flat(values: dict) -> list[float]:
    out = []
    for v in values.values():
        for x in v:
            out.extend(x if isinstance(x, list) else [x])
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--check-seeds", default="", help="comma-separated seeds to compare")
    args = p.parse_args()
    E, _ = run.load_package()
    run.OUT.mkdir(exist_ok=True)
    reference = {"tolerance": TOLERANCE}
    for name in ("qst", "sweep"):
        reference[name] = solver_values(E, name, 0)
        for seed in (int(s) for s in args.check_seeds.split(",") if s):
            other = solver_values(E, name, seed)
            dev = max(abs(a - b) / max(1.0, abs(a))
                      for a, b in zip(_flat(reference[name]), _flat(other)))
            print(f"{name}: seed {seed} deviates from seed 0 by {dev:.3g} relative")
    reference["diagnose"] = diagnose_values(E, 0)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH.name}")


if __name__ == "__main__":
    main()
