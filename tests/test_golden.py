"""Golden trajectories: every case is re-solved and compared row by row with
a trace recorded from the solver before its iteration core was rebuilt
around one eigendecomposition per Armijo candidate.

Status, iteration count, step sizes and backtrack counts must match exactly.
f must match to 1e-10 relative to max(1, |f|), the way the benchmark checks
final values, since the quadratic case runs down to f ~ 1e-11. The Bregman
gap at the full step must match to 1e-10 relative or 1e-12 absolute, as a
gap near 0 at the end of a run carries absolute round-off.

The traces are `write_trace_csv` files in tests/data/golden/, with the final
statuses in status.json next to them. Next to them too is the stdout of a
3-weight `lambda-sweep` at d = 16, where the Armijo search backtracks about
six times per iteration; it must match byte for byte. Rewrite them only on
purpose, one named recording at a time (a case name, or `sweep` for the
lambda-sweep stdout), with

    PYTHONPATH=src python tests/test_golden.py NAME...

Every recording not named, and every other case's status.json entry, is
left as it is.
"""

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from expgrad.cli import main
from expgrad.entropy import ProbabilityVector
from expgrad.linalg import DensityState, HermitianOperator
from expgrad.objectives import (
    burg_objective,
    hedged_qst_objective,
    poisson_linear_objective,
    qst_objective,
    quadratic_objective,
    standard_basis_ensemble,
)
from expgrad.solver import SolverConfig, eg_step, solve, write_trace_csv
from helpers import random_density, random_ensemble

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
SWEEP = GOLDEN / "lambda_sweep_d16_seed3.jsonl"
REL_TOL = 1e-10
GAP_ABS_TOL = 1e-12


def _qst_d4():
    rng = np.random.default_rng(101)
    return solve, DensityState.maximally_mixed(4), qst_objective(random_ensemble(rng, 4, 8)), SolverConfig()


def _qst_d8_random_start():
    rng = np.random.default_rng(102)
    f = qst_objective(random_ensemble(rng, 8, 16))
    return solve, random_density(rng, 8), f, SolverConfig(max_iters=400)


def _qst_basis_stationary():
    f = qst_objective(standard_basis_ensemble(2))
    return solve, DensityState.from_matrix(np.diag([0.9, 0.1])), f, SolverConfig(stop_tol=1e-12)


def _hedged_d4_lam1e_3():
    rng = np.random.default_rng(103)
    f = hedged_qst_objective(random_ensemble(rng, 4, 8), 1e-3)
    return solve, DensityState.maximally_mixed(4), f, SolverConfig()


def _hedged_d8_lam1e_3():
    rng = np.random.default_rng(104)
    f = hedged_qst_objective(random_ensemble(rng, 8, 16), 1e-3)
    return solve, DensityState.maximally_mixed(8), f, SolverConfig(max_iters=400)


def _quadratic_d4():
    rng = np.random.default_rng(105)
    target = HermitianOperator(random_density(rng, 4).matrix)
    return solve, random_density(rng, 4), quadratic_objective(target, 30.0), SolverConfig()


def _quadratic_cap_hit():
    rng = np.random.default_rng(106)
    target = HermitianOperator(random_density(rng, 3).matrix)
    f = quadratic_objective(target, 1e8)
    return solve, random_density(rng, 3), f, SolverConfig(max_backtracks=3)


def _burg_d5():
    x0 = ProbabilityVector([0.5, 0.2, 0.15, 0.1, 0.05])
    return solve, x0, burg_objective(5), SolverConfig(stop_tol=1e-14)


def _poisson_d6():
    rng = np.random.default_rng(107)
    rows = rng.random((12, 6)) + 0.01
    x0 = ProbabilityVector(rng.dirichlet(np.ones(6)) * 0.9 + 0.1 / 6)
    return solve, x0, poisson_linear_objective(rows), SolverConfig(max_iters=400)


CASES = {
    "qst_d4": _qst_d4,
    "qst_d8_random_start": _qst_d8_random_start,
    "qst_basis_stationary": _qst_basis_stationary,
    "hedged_d4_lam1e-3": _hedged_d4_lam1e_3,
    "hedged_d8_lam1e-3": _hedged_d8_lam1e_3,
    "quadratic_d4": _quadratic_d4,
    "quadratic_cap_hit": _quadratic_cap_hit,
    "burg_d5": _burg_d5,
    "poisson_d6": _poisson_d6,
}


def run_case(name):
    solver, x0, f, cfg = CASES[name]()
    return solver(x0, f, cfg)


def read_trace(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def statuses():
    return json.loads((GOLDEN / "status.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_reproduces_golden_trajectory(name, statuses, tmp_path):
    result = run_case(name)
    assert result.status.value == statuses[name]
    path = tmp_path / "trace.csv"
    write_trace_csv(result.trace, path)
    header, got = read_trace(path)
    want_header, want = read_trace(GOLDEN / f"{name}.csv")
    assert header == want_header
    assert len(got) == len(want)
    for g, w in zip(got, want):
        k, f, alpha, backtracks, _, gap, _ = g
        assert (k, alpha, backtracks) == (w[0], w[2], w[3])
        assert float(f) == pytest.approx(float(w[1]), rel=REL_TOL, abs=REL_TOL)
        assert float(gap) == pytest.approx(float(w[5]), rel=REL_TOL, abs=GAP_ABS_TOL)


def test_cases_cover_every_family_and_status(statuses):
    assert set(statuses) == set(CASES)
    assert {"Converged", "Stationary", "BacktrackCapHit"} <= set(statuses.values())
    total_backtracks = 0
    for name in CASES:
        _, rows = read_trace(GOLDEN / f"{name}.csv")
        total_backtracks += sum(int(r[3]) for r in rows)
    assert total_backtracks > 0


def test_capped_case_keeps_its_last_candidate():
    # the last candidate is alpha_bar * shrink^max_backtracks from the last
    # accepted state, with its finite (rejected) f; a case that stops on its
    # own rule has none
    _, x0, f, cfg = CASES["quadratic_cap_hit"]()
    result = solve(x0, f, cfg)
    state = result.final_state
    assert result.last_alpha == cfg.alpha_bar * cfg.shrink ** cfg.max_backtracks
    assert result.last_value == f.value(eg_step(state, f.gradient(state), result.last_alpha))
    assert math.isfinite(result.last_value)
    converged = run_case("quadratic_d4")
    assert (converged.last_alpha, converged.last_value) == (None, None)


def run_sweep(workdir):
    ens_path = workdir / "ens.json"
    assert main(["gen", "--dim", "16", "--num-ops", "64", "--seed", "3",
                 "--out", str(ens_path)]) == 0
    assert main(["lambda-sweep", "--operators", str(ens_path),
                 "--lambdas", "0.1,0.01,0.001"]) == 0


def test_lambda_sweep_stdout_is_golden(tmp_path, capsys):
    run_sweep(tmp_path)
    assert capsys.readouterr().out == SWEEP.read_text()


def test_recording_one_case_writes_only_that_case(tmp_path, capsys):
    (tmp_path / "status.json").write_text((GOLDEN / "status.json").read_text())
    assert record_command([], tmp_path) != 0
    assert record_command(["qst_d4", "no_such_case"], tmp_path) != 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["status.json"]
    assert "usage" in capsys.readouterr().err
    assert record_command(["quadratic_cap_hit"], tmp_path) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["quadratic_cap_hit.csv", "status.json"]
    assert (tmp_path / "status.json").read_text() == (GOLDEN / "status.json").read_text()
    header, rows = read_trace(tmp_path / "quadratic_cap_hit.csv")
    want_header, want = read_trace(GOLDEN / "quadratic_cap_hit.csv")
    assert header == want_header and len(rows) == len(want)


def record(names, golden=GOLDEN):
    """Re-record the named cases, and the lambda-sweep stdout if `sweep` is
    named, into golden; update only the named cases' status.json entries."""
    golden.mkdir(parents=True, exist_ok=True)
    status_path = golden / "status.json"
    statuses = json.loads(status_path.read_text()) if status_path.exists() else {}
    cases = [name for name in names if name in CASES]
    for name in cases:
        result = run_case(name)
        write_trace_csv(result.trace, golden / f"{name}.csv")
        statuses[name] = result.status.value
        print(f"{name}: {result.status.value}, {len(result.trace)} iterations, "
              f"{sum(r.backtracks for r in result.trace)} backtracks")
    if cases:
        status_path.write_text(json.dumps(statuses, indent=1, sort_keys=True) + "\n")
    if "sweep" in names:
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
            run_sweep(Path(tmp))
        (golden / SWEEP.name).write_text(out.getvalue())
        print(f"sweep: {SWEEP.name}")


def record_command(argv, golden=GOLDEN) -> int:
    """`python tests/test_golden.py NAME...`; with no name, or an unknown
    one, print the usage and write nothing."""
    known = ["sweep", *CASES]
    if not argv or not set(argv) <= set(known):
        print("usage: PYTHONPATH=src python tests/test_golden.py NAME...\n"
              "NAME is one of: " + ", ".join(known), file=sys.stderr)
        return 2
    record(argv, golden)
    return 0


if __name__ == "__main__":
    sys.exit(record_command(sys.argv[1:]))
