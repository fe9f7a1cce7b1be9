"""Acceptance suite: one test per certified property, each printing a single
PASS/FAIL line. Shared fixtures provide a reproducible population of 100
log-partition probes (dimensions cycling through 2, 3, 5, 8; directions
alternating between tomography gradients and plain Hermitian matrices) and 20
seeded solver instances across the five objective families. Properties 6-8
read the sandwich, ratio and kappa checks from the run_suite records of that
same population.
"""

import math

import numpy as np
import pytest

from expgrad import (
    DensityState,
    HermitianOperator,
    LogPartitionProbe,
    MeasurementEnsemble,
    ProbabilityVector,
    SolveStatus,
    SolverConfig,
    bregman_gap,
    burg_objective,
    eg_step,
    fixed_point_check,
    hedged_qst_objective,
    inner_product_check,
    phi_derivatives,
    poisson_linear_objective,
    qst_objective,
    quadratic_objective,
    quantum_relative_entropy,
    random_density,
    random_probe,
    run_suite,
    solve,
    standard_basis_ensemble,
)
from expgrad import suites
from expgrad.diagnostics import random_psd
from expgrad.suites import phi_fd_derivatives
from helpers import qst_hardness_witness, schatten_norm

LOG2 = math.log(2.0)
PROBE_SEED = 2024
PROBE_DIMS = (2, 3, 5, 8)
N_PROBES = 100


def report(index, name, ok, detail=""):
    print(f"ACCEPTANCE {index:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{name}: {detail}"


def interior_point(rng, d, eps=0.02):
    x = rng.dirichlet(np.ones(d))
    return ProbabilityVector((1.0 - d * eps) * x + eps)


@pytest.fixture(scope="module")
def probes():
    out = []
    for i in range(N_PROBES):
        rng = np.random.default_rng([PROBE_SEED, i])
        d = PROBE_DIMS[i % len(PROBE_DIMS)]
        out.append(random_probe(rng, d, "qst" if i % 2 == 0 else "hermitian"))
    return out


@pytest.fixture(scope="module")
def solver_instances():
    """20 seeded runs: 4 per objective family, as (kind, result) pairs."""
    runs = []
    for j, d in enumerate((2, 3, 4, 5)):
        rng = np.random.default_rng([1, j])
        ens = MeasurementEnsemble([random_psd(rng, d) for _ in range(2 * d)])
        res = solve(random_density(rng, d), qst_objective(ens),
                    SolverConfig(max_iters=1500))
        runs.append(("qst", res))
    for j, (d, lam) in enumerate(zip((2, 3, 4, 5), (0.1, 0.05, 0.01, 0.01))):
        rng = np.random.default_rng([2, j])
        ens = MeasurementEnsemble([random_psd(rng, d) for _ in range(2 * d)])
        res = solve(random_density(rng, d), hedged_qst_objective(ens, lam),
                    SolverConfig(max_iters=10000))
        runs.append(("hedged-qst", res))
    for j, d in enumerate((2, 3, 5, 8)):
        rng = np.random.default_rng([3, j])
        res = solve(interior_point(rng, d), burg_objective(d))
        runs.append(("burg", res))
    for j, d in enumerate((2, 3, 4, 6)):
        rng = np.random.default_rng([4, j])
        rows = rng.random((2 * d, d)) + 0.05
        res = solve(interior_point(rng, d), poisson_linear_objective(rows))
        runs.append(("poisson", res))
    for j, d in enumerate((2, 3, 4, 5)):
        rng = np.random.default_rng([5, j])
        target = HermitianOperator(random_density(rng, d).matrix)
        res = solve(DensityState.maximally_mixed(d), quadratic_objective(target))
        runs.append(("quadratic", res))
    return runs


def test_01_monotone_descent(solver_instances):
    worst = -math.inf
    for _, res in solver_instances:
        f = np.array([rec.f_value for rec in res.trace])
        if f.size >= 2:
            slack = 1e-10 * np.maximum(1.0, np.abs(f[:-1]))
            worst = max(worst, float(np.max(f[1:] - f[:-1] - slack)))
    report(1, "monotone-descent", worst <= 0.0, f"worst increase excess {worst:.3e}")


def test_02_armijo_terminates(solver_instances):
    worst = max(rec.backtracks for _, res in solver_instances for rec in res.trace)
    capped = any(res.status is SolveStatus.BACKTRACK_CAP_HIT
                 for _, res in solver_instances)
    report(2, "armijo-termination", worst < 60 and not capped,
           f"max backtracks {worst}")


def test_03_stationarity_gap_on_hedged_runs(solver_instances):
    gaps = [min(rec.bregman_gap_bar for rec in res.trace)
            for kind, res in solver_instances if kind == "hedged-qst"]
    report(3, "hedged-stationarity-gap", max(gaps) <= 1e-8,
           f"worst min gap {max(gaps):.3e}")


def test_04_known_optimum_recovery():
    f2 = qst_objective(standard_basis_ensemble(2))
    res = solve(DensityState.from_matrix(np.diag([0.9, 0.1])), f2)
    f_gap = abs(res.trace[-1].f_value - 2 * LOG2)
    dist = schatten_norm(
        HermitianOperator(res.final_state.matrix - np.eye(2) / 2.0).mat, 1)
    res_b = solve(ProbabilityVector([0.7, 0.2, 0.1]), burg_objective(3),
                          SolverConfig(stop_tol=1e-14))
    l1 = float(np.sum(np.abs(res_b.final_state.entries - 1.0 / 3.0)))
    ok = f_gap <= 1e-6 and dist <= 1e-4 and l1 <= 1e-6
    report(4, "known-optimum-recovery", ok,
           f"f gap {f_gap:.3e}, trace dist {dist:.3e}, burg l1 {l1:.3e}")


def test_05_bregman_gap_identity(probes):
    worst = 0.0
    for p in probes:
        for alpha in (0.1, 0.5, 1.0):
            via_phi = bregman_gap(p, alpha)
            direct = quantum_relative_entropy(
                eg_step(p.base, -p.direction, alpha), p.base)
            worst = max(worst, abs(via_phi - direct) / max(abs(direct), 1e-12))
    report(5, "bregman-gap-identity", worst <= 1e-8, f"worst rel diff {worst:.3e}")


def suite_failures(name):
    """The records of run_suite(name, N_PROBES, PROBE_SEED) that fail. That
    population is the probes fixture bit for bit: probe i comes from
    default_rng([PROBE_SEED, i]), has dimension PROBE_DIMS[i % 4] and gets a
    tomography direction for even i. The suite's grids: the sandwich at steps
    (0.1, 1, 5), the ratio on geomspace(1e-3, 10, 25) and the kappa bound on
    linspace(0.05, 1, 20) with alpha_bar = 1."""
    return [r for r in run_suite(name, N_PROBES, PROBE_SEED) if not r["pass"]]


def test_06_self_concordance_and_sandwich(probes):
    ok, detail = True, ""
    for p in probes:
        for alpha in (0.1, 1.0, 5.0):
            _, var, third = phi_derivatives(p, alpha)
            if abs(third) > p.delta * var + 1e-10:
                ok, detail = False, f"|phi'''| excess {abs(third) - p.delta * var:.3e}"
    failed = suite_failures("sandwich")
    if failed:
        ok, detail = False, f"sandwich margin {min(r['worst_margin'] for r in failed):.3e}"
    report(6, "self-concordance-sandwich", ok, detail)


def test_07_ratio_monotonicity():
    failed = suite_failures("ratio")
    worst = min((r["worst_margin"] for r in failed), default=0.0)
    report(7, "ratio-monotonicity", not failed, f"worst margin {worst:.3e}")


def test_08_kappa_bound(probes):
    ok, detail = True, ""
    failed = suite_failures("kappa")
    if failed:
        ok, detail = False, f"kappa margin {min(r['worst_margin'] for r in failed):.3e}"
    for p in probes:
        for alpha in (0.1, 0.5, 1.0, 5.0):
            _, var, _ = phi_derivatives(p, alpha)
            if var > p.delta ** 2 / 4.0 + 1e-10:
                ok, detail = False, f"variance excess {var - p.delta ** 2 / 4:.3e}"
    # point value: spectral width 1 and unit cap step give kappa exactly 1/2,
    # so the kappa check's margin is the closed form's with kappa = 1/2, from
    # phi(alpha) = log((1 + e^alpha) / 2) and D(alpha) = alpha phi'(alpha) - phi(alpha)
    point = LogPartitionProbe.stack([LogPartitionProbe(DensityState.maximally_mixed(2),
                                                       HermitianOperator(np.diag([0.0, 1.0])))])
    margin = suites._check_kappa(point, suites._Table(point, ["kappa"]))[0]
    grid = np.linspace(0.05, 1.0, 20)
    gap = grid * np.exp(grid) / (1.0 + np.exp(grid)) - np.log((1.0 + np.exp(grid)) / 2.0)
    want = np.min(gap / (grid * grid)) - 0.5 * gap[-1] + 1e-9
    if abs(margin - want) > 1e-12:
        ok, detail = False, f"kappa point margin {margin!r}, closed form {want!r}"
    report(8, "kappa-bound", ok, detail)


def test_09_derivatives_vs_finite_differences(probes):
    worst = 0.0
    for p in probes:
        analytic = np.array(phi_derivatives(p, 0.3))
        best = np.full(3, math.inf)
        for h in (1e-4, 1e-3, 1e-2):
            fd = np.array(phi_fd_derivatives(p, 0.3, h))
            best = np.minimum(best, np.abs(fd - analytic)
                              / np.maximum(1.0, np.abs(analytic)))
        worst = max(worst, float(np.max(best)))
    report(9, "derivatives-vs-fd", worst <= 1e-5, f"worst rel err {worst:.3e}")


def test_10_fixed_point_and_inner_product(probes):
    ok, detail = True, ""
    grid = (0.1, 1.0, 3.0)
    for d in (2, 3, 5):
        f = qst_objective(standard_basis_ensemble(d))
        at_opt = fixed_point_check(DensityState.maximally_mixed(d), f, grid)
        rng = np.random.default_rng([6, d])
        at_off = fixed_point_check(random_density(rng, d), f, grid)
        if not at_opt.is_fixed_point or at_opt.optimality_margin < -1e-8:
            ok, detail = False, f"optimum not fixed at d={d}"
        if at_off.is_fixed_point:
            ok, detail = False, f"perturbed state fixed at d={d}"
    worst = math.inf
    for i, p in enumerate(probes):
        rng = np.random.default_rng([7, i])
        f = qst_objective(MeasurementEnsemble(
            [random_psd(rng, p.dim) for _ in range(2 * p.dim)]))
        for alpha in grid:
            worst = min(worst, inner_product_check(p.base, f, alpha))
    if worst < -1e-10:
        ok, detail = False, f"inner-product margin {worst:.3e}"
    report(10, "fixed-point-inner-product", ok, detail)


def test_11_mirror_descent_equivalence():
    def subproblem(sigma, rho, g, alpha):
        linear = np.vdot(g, HermitianOperator(sigma.matrix - rho.matrix).mat).real
        return alpha * linear + quantum_relative_entropy(sigma, rho)

    worst = -math.inf
    for i in range(5):
        rng = np.random.default_rng([8, i])
        rho = random_density(rng, 2)
        g = qst_objective(MeasurementEnsemble(
            [random_psd(rng, 2) for _ in range(4)])).gradient(rho)
        for alpha in (0.3, 1.0):
            step_value = subproblem(eg_step(rho, g, alpha), rho, g, alpha)
            oracle = min(subproblem(random_density(rng, 2), rho, g, alpha)
                         for _ in range(250))
            worst = max(worst, step_value - oracle)
    report(11, "mirror-descent-equivalence", worst <= 1e-6,
           f"worst excess over oracle {worst:.3e}")


def test_12_barrier_weight_limit():
    ens = standard_basis_ensemble(2)
    unhedged = qst_objective(ens)
    start = DensityState.from_matrix(np.diag([0.9, 0.1]))
    gaps = []
    for lam in (0.1, 0.01, 0.001):
        res = solve(start, hedged_qst_objective(ens, lam))
        gaps.append(abs(unhedged.value(res.final_state) - 2 * LOG2))
    decreasing = all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
    report(12, "barrier-weight-limit", decreasing and gaps[-1] <= 1e-3,
           f"gaps {gaps}")


def test_13_relative_smoothness_witness():
    worst = -math.inf
    for smoothness in np.geomspace(1e-2, 1e3, 26):
        _, violation = qst_hardness_witness(float(smoothness))
        worst = max(worst, violation)
    report(13, "relative-smoothness-witness", worst < 0.0,
           f"largest violation value {worst:.3e}")


def test_14_simplex_matrix_consistency():
    ok, detail = True, ""
    cfg = SolverConfig(max_iters=50)
    for i in range(10):
        rng = np.random.default_rng([9, i])
        d = int(rng.integers(2, 6))
        rows = rng.random((2 * d, d)) + 0.05
        x0 = interior_point(rng, d)
        res_v = solve(x0, poisson_linear_objective(rows), cfg)
        res_m = solve(DensityState.from_matrix(np.diag(x0.entries)),
                      qst_objective(MeasurementEnsemble(
                          [np.diag(r) for r in rows])), cfg)
        if len(res_v.trace) != len(res_m.trace):
            ok, detail = False, f"trace lengths differ on instance {i}"
            continue
        for rv, rm in zip(res_v.trace, res_m.trace):
            if (abs(rv.f_value - rm.f_value) > 1e-10
                    or rv.alpha_k != rm.alpha_k
                    or rv.backtracks != rm.backtracks):
                ok, detail = False, f"per-iterate mismatch on instance {i}"
        final_gap = float(np.max(np.abs(
            res_v.final_state.entries
            - np.diag(res_m.final_state.matrix).real)))
        if final_gap > 1e-10:
            ok, detail = False, f"final states differ by {final_gap:.3e}"
    report(14, "simplex-matrix-consistency", ok, detail)
