"""The log-partition checks on the solver's own iterates, in one source tree.

    git archive PARENT_REV | tar -x -C /tmp/parent
    python3 tools/trajectory_suite.py /tmp/parent
    python3 tools/trajectory_suite.py .

The tree's ``expgrad`` (from ``TREE/src``) is imported in a subprocess. It
solves the six runs of RUNS from the maximally mixed state with the default
SolverConfig, each on 4d ``random_psd`` operators drawn from
``default_rng(seed)``. Every gradient the solver evaluates is captured, and
the probes (x_k, -grad f(x_k)) of a run, stacked, go through the suite checks
of CHECKS (``suites.check_probes``). The fixed-point check is left out: it
certifies the tomography optimum, not a probe. For each run the table gives
the probe count, the largest spectral width and the failing margins of each
check, a NaN margin counted as failing. The exit code is 0 whatever fails.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

# (label, dimension, barrier weight or None for plain tomography, seed)
RUNS = (
    ("hedged d=8 lam=1e-1", 8, 1e-1, 0),
    ("hedged d=8 lam=1e-3", 8, 1e-3, 0),
    ("hedged d=16 lam=1e-2", 16, 1e-2, 0),
    ("hedged d=16 lam=1e-4 seed=1", 16, 1e-4, 1),
    ("unhedged d=16", 16, None, 0),
    ("hedged d=32 lam=1e-1", 32, 1e-1, 0),
)
CHECKS = ("sandwich", "ratio", "moments", "kappa", "self-concordance")


def trajectory_probe(d: int, lam, seed: int):
    """The stacked probes (x_k, -grad f(x_k)) of one run, in the order the
    solver evaluates its gradients, with the expgrad on sys.path."""
    import numpy as np
    from expgrad import DensityState, MeasurementEnsemble, hedged_qst_objective, qst_objective, solve
    from expgrad.diagnostics import LogPartitionProbe, random_psd

    rng = np.random.default_rng(seed)
    ens = MeasurementEnsemble([random_psd(rng, d) for _ in range(4 * d)])
    f = qst_objective(ens) if lam is None else hedged_qst_objective(ens, lam)
    probes = []

    def gradient(x, _g=f.gradient):
        g = _g(x)
        probes.append(LogPartitionProbe(x, -g))
        return g

    solve(DensityState.maximally_mixed(d), dataclasses.replace(f, gradient=gradient))
    return LogPartitionProbe.stack(probes)


def margins(d: int, lam, seed: int, names=CHECKS) -> dict:
    """Each named check's margins on one run's probes."""
    try:
        from expgrad.suites import check_probes
    except ImportError:  # a tree from before check_probes: its table and checks
        from expgrad.suites import _CHECKS, _Table

        def check_probes(probe, names):
            table = _Table(probe, names)
            return [_CHECKS[n][0](probe, table) for n in names]
    probe = trajectory_probe(d, lam, seed)
    return {"probes": len(probe.base), "delta": float(max(probe.delta)),
            **dict(zip(names, check_probes(probe, list(names))))}


def failing(row) -> int:
    """The margins that are not >= 0, NaN ones included."""
    return sum(not m >= 0.0 for m in row)


def table(src: Path) -> list[dict]:
    """Per run: its label, probe count, largest width and failing margins per
    check, from the expgrad of `src`, imported in a subprocess."""
    out = subprocess.run([sys.executable, __file__, "--src", str(src)],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 2 and args[0] == "--src":  # the subprocess: one tree's package
        sys.path.insert(0, args[1])
        rows = []
        for label, d, lam, seed in RUNS:
            m = margins(d, lam, seed)
            rows.append({"run": label, "probes": m["probes"], "delta": m["delta"],
                         **{n: failing(m[n]) for n in CHECKS}})
        print(json.dumps(rows))
        return 0
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    rows = table(Path(args[0]).resolve() / "src")
    print(f"{'run':<30}{'probes':>7}{'max delta':>11}" + "".join(f"{n:>18}" for n in CHECKS))
    for row in rows:
        print(f"{row['run']:<30}{row['probes']:>7}{row['delta']:>11.2e}"
              + "".join(f"{row[n]:>18}" for n in CHECKS))
    print("failing margins (NaN included) per check, over all runs: "
          + ", ".join(f"{n} {sum(r[n] for r in rows)}" for n in CHECKS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
