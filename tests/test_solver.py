import csv
import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from expgrad.diagnostics import inner_product_check
from expgrad.entropy import ProbabilityVector, quantum_relative_entropy
from expgrad.errors import DomainError, InvalidInput
from expgrad.linalg import DensityState, HermitianOperator
from expgrad.objectives import (
    MeasurementEnsemble,
    ObjectiveSpec,
    burg_objective,
    hedged_qst_objective,
    poisson_linear_objective,
    qst_objective,
    quadratic_objective,
    standard_basis_ensemble,
)
from expgrad import solver as solver_module
from expgrad.solver import (
    SolveStatus,
    SolverConfig,
    _armijo,
    _divergence,
    _underflow_step,
    eg_step,
    solve,
    write_trace_csv,
)
from helpers import classical_relative_entropy, random_density, random_ensemble, schatten_norm

LOG2 = np.log(2.0)


def armijo_search(state, f, cfg):
    """Armijo search from a DensityState or a ProbabilityVector.

    Returns (alpha_accepted, next_state, backtracks); past the cap,
    (last_alpha_tried, None, max_backtracks).
    """
    g = f.gradient(state)
    f_state = f.value(state)
    if not math.isfinite(f_state):
        raise DomainError("line search started outside the effective domain")
    return _armijo(state, f, cfg, g, f_state)[:3]


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [
        {"alpha_bar": 0.0}, {"shrink": 1.0}, {"shrink": 0.0}, {"tau": 1.5},
        {"max_iters": -1}, {"max_backtracks": 0}, {"stop_tol": 0.0},
        {"alpha_bar": math.inf}, {"stop_tol": math.inf}, {"alpha_bar": math.nan},
        {"stop_tol": 10 ** 400},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(InvalidInput):
            SolverConfig(**kwargs)

    def test_cap_must_keep_the_last_step_positive(self):
        # at alpha_bar = 1 and shrink = 0.5, the step 0.5**1074 = 5e-324 is
        # the smallest positive float, and 0.5**1075 rounds to 0.0
        for cap in (1075, 10 ** 400):
            with pytest.raises(InvalidInput, match="max_backtracks"):
                SolverConfig(max_backtracks=cap)
        # from the quadratic's own minimizer no step decreases f: the search
        # runs to the cap and reports its last step, not an invalid one
        t = random_density(np.random.default_rng(0), 3)
        result = solve(DensityState.from_matrix(t.matrix), quadratic_objective(t.matrix),
                       SolverConfig(max_backtracks=1074))
        assert result.status is SolveStatus.BACKTRACK_CAP_HIT and result.last_alpha == 5e-324

    @pytest.mark.parametrize("kwargs", [
        {"max_iters": 1.5}, {"max_backtracks": 2.5}, {"max_iters": True}, {"max_backtracks": None},
        {"alpha_bar": "x"}, {"stop_tol": None}, {"tau": False}, {"shrink": 0.5j},
    ])
    def test_rejects_values_of_the_wrong_type(self, kwargs):
        with pytest.raises(InvalidInput, match=next(iter(kwargs))):
            SolverConfig(**kwargs)

    def test_accepts_numpy_scalars(self):
        cfg = SolverConfig(alpha_bar=np.float64(0.5), max_iters=np.int64(3))
        assert cfg.max_iters == 3 and cfg.alpha_bar == 0.5


class TestEgStep:
    def test_identity_shift_invariance(self):
        rng = np.random.default_rng(41)
        rho = random_density(rng, 3)
        for c in (-2.0, 0.5, 10.0):
            nxt = eg_step(rho, HermitianOperator(c * np.eye(3)).mat, 0.7)
            assert schatten_norm(HermitianOperator(nxt.matrix - rho.matrix).mat, 1) <= 1e-12

    def test_diagonal_closed_form(self):
        # 0.5 e^{-log 2} = 0.25; normalize (0.25, 0.5) -> (1/3, 2/3)
        rho = DensityState.maximally_mixed(2)
        nxt = eg_step(rho, HermitianOperator(np.diag([1.0, 0.0])).mat, LOG2)
        assert np.allclose(nxt.matrix, np.diag([1.0 / 3.0, 2.0 / 3.0]), atol=1e-12)

    def test_unit_trace(self):
        rng = np.random.default_rng(42)
        rho = random_density(rng, 4)
        g = HermitianOperator(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        nxt = eg_step(rho, g.mat, 0.3)
        assert abs(np.trace(nxt.matrix).real - 1.0) <= 1e-12
        assert nxt.min_eig > 0.0

    def test_rejects_nonpositive_step(self):
        with pytest.raises(InvalidInput):
            eg_step(DensityState.maximally_mixed(2), HermitianOperator(np.eye(2)).mat, 0.0)

    @pytest.mark.parametrize("alpha", ["x", None, True, math.inf, math.nan, 10 ** 400],
                             ids=["string", "none", "bool", "inf", "nan", "integer-too-large"])
    def test_rejects_a_step_that_is_no_positive_finite_number(self, alpha):
        # checked before it is used: no raw TypeError or OverflowError, no
        # bool read as 1, no inf * 0 warning; inner_product_check takes its step
        rho = DensityState.maximally_mixed(2)
        with pytest.raises(InvalidInput, match="step size"):
            eg_step(rho, HermitianOperator(np.eye(2)).mat, alpha)
        with pytest.raises(InvalidInput, match="step size"):
            inner_product_check(rho, qst_objective(standard_basis_ensemble(2)), alpha)

    @pytest.mark.parametrize("state, g", [
        (ProbabilityVector([0.5, 0.5]), np.eye(2)),
        (DensityState.maximally_mixed(2), np.array([1.0, 2.0])),
        (DensityState.maximally_mixed(2), np.eye(3)),
        (DensityState.maximally_mixed(2), "x"),
    ], ids=["matrix-for-vector", "vector-for-matrix", "wrong-dimension", "not-an-array"])
    def test_rejects_gradient_of_another_shape(self, state, g):
        # the gradient has the shape of the state's exponent, or nothing is formed
        with pytest.raises(InvalidInput, match="gradient"):
            eg_step(state, g, 1.0)

    @pytest.mark.parametrize("state, g, message", [
        (ProbabilityVector([0.5, 0.5]), np.array([1j, 0.0]), "dtype"),
        (DensityState.maximally_mixed(2), np.array([[0.0, 1.0], [0.0, 0.0]]), "Hermitian"),
        (DensityState.maximally_mixed(2), np.array([["a", "b"], ["c", "d"]]), "dtype"),
        (ProbabilityVector([0.5, 0.5]), np.array([np.nan, 0.0]), "non-finite"),
        (ProbabilityVector([0.5, 0.5]), np.array([np.inf, 0.0]), "non-finite"),
        (ProbabilityVector([0.5, 0.5]), np.array([-np.inf, 0.0]), "non-finite"),
        (DensityState.maximally_mixed(2), np.array([[np.nan, 0.0], [0.0, 0.0]]), "non-finite"),
    ], ids=["complex-vector", "not-hermitian", "strings", "nan-vector", "inf-vector",
            "minus-inf-vector", "nan-matrix"])
    def test_rejects_gradient_that_is_not_real_or_hermitian(self, state, g, message):
        # no complex simplex point, no matrix read by its lower triangle alone,
        # no NaN state, no entry of inf read as a jump to a vertex, and no raw
        # numpy error or warning
        with pytest.raises(InvalidInput, match=message):
            eg_step(state, g, 1.0)

    def test_minimizes_mirror_descent_subproblem(self):
        # brute-force oracle over feasible sigma: 200-point diagonal grid plus
        # 50 random states; the EG step must attain the minimum up to 1e-6
        rng = np.random.default_rng(43)
        for _ in range(5):
            rho = random_density(rng, 2)
            g = HermitianOperator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            alpha = 0.5
            nxt = eg_step(rho, g.mat, alpha)

            def subproblem(sigma):
                inner = np.vdot(g.mat, HermitianOperator(sigma.matrix - rho.matrix).mat).real
                return alpha * inner + quantum_relative_entropy(sigma, rho)

            best = min(subproblem(DensityState.from_matrix(np.diag([t, 1.0 - t])))
                       for t in np.linspace(1e-4, 1.0 - 1e-4, 200))
            best = min(best, min(subproblem(random_density(rng, 2)) for _ in range(50)))
            assert subproblem(nxt) <= best + 1e-6


class TestSimplexStep:
    def test_identity_shift_invariance(self):
        x = ProbabilityVector([0.2, 0.3, 0.5])
        nxt = eg_step(x, np.full(3, 4.2), 0.9)
        assert np.allclose(nxt.entries, x.entries, atol=1e-14)

    def test_matches_matrix_step_on_diagonal(self):
        rng = np.random.default_rng(44)
        x = ProbabilityVector(rng.dirichlet(np.ones(3)) * 0.85 + 0.05)
        g = rng.standard_normal(3)
        nxt_v = eg_step(x, g, 0.6)
        nxt_m = eg_step(DensityState.from_matrix(np.diag(x.entries)),
                        HermitianOperator(np.diag(g)).mat, 0.6)
        assert np.allclose(nxt_v.entries, np.diag(nxt_m.matrix).real, atol=1e-12)


class TestArmijoSearch:
    def test_quadratic_accepts_first_candidate(self):
        # descent lemma: for alpha_bar small relative to 1/L and tau = 1/2 the
        # first candidate passes; verify the inequality explicitly
        rng = np.random.default_rng(45)
        target = HermitianOperator(random_density(rng, 3).matrix)
        f = quadratic_objective(target, 1.0)
        rho = random_density(rng, 3)
        cfg = SolverConfig(alpha_bar=0.1, tau=0.5)
        alpha, nxt, backtracks = armijo_search(rho, f, cfg)
        assert backtracks == 0 and alpha == 0.1
        inner = np.vdot(f.gradient(rho), HermitianOperator(nxt.matrix - rho.matrix).mat).real
        assert f.value(nxt) <= f.value(rho) + 0.5 * inner + 1e-12

    def test_fixed_point_accepts_immediately(self):
        f = qst_objective(standard_basis_ensemble(2))
        rho = DensityState.maximally_mixed(2)
        alpha, nxt, backtracks = armijo_search(rho, f, SolverConfig())
        assert backtracks == 0
        assert schatten_norm(HermitianOperator(nxt.matrix - rho.matrix).mat, 1) <= 1e-12
        assert f.value(nxt) == pytest.approx(f.value(rho), abs=1e-12)

    def test_barrier_forces_backtracking(self):
        # a huge first candidate blows past the barrier; accepted step finite
        rng = np.random.default_rng(46)
        f = hedged_qst_objective(random_ensemble(rng, 2, 4), 5.0)
        rho = DensityState.maximally_mixed(2)
        cfg = SolverConfig(alpha_bar=500.0)
        alpha, nxt, backtracks = armijo_search(rho, f, cfg)
        assert backtracks >= 1
        assert math.isfinite(f.value(nxt))

    def test_carried_probe_past_the_bound_is_not_evaluated(self):
        # the alpha_bar probe is excluded past cut as a fresh step is: f is
        # not called at j = 0, and the search goes on to the smaller steps
        f = qst_objective(standard_basis_ensemble(2))
        rho = DensityState.from_matrix(np.diag([0.8, 0.2]))
        g, cfg = f.gradient(rho), SolverConfig(max_backtracks=3)
        first = eg_step(rho, g, cfg.alpha_bar)
        seen = []
        counted = dataclasses.replace(f, value=lambda x: seen.append(x) or f.value(x))
        alpha, nxt, backtracks, _ = _armijo(rho, counted, cfg, g, f.value(rho), first, cut=0.75)
        assert (alpha, backtracks) == (0.25, 2) and nxt is seen[-1]
        assert len(seen) == backtracks and all(x is not first for x in seen)

    def test_cap_exceeded(self):
        rng = np.random.default_rng(47)
        f = quadratic_objective(HermitianOperator(random_density(rng, 2).matrix), 1e8)
        cfg = SolverConfig(alpha_bar=1.0, max_backtracks=3)
        assert armijo_search(random_density(rng, 2), f, cfg) == (0.5 ** 3, None, 3)


class TestSolve:
    def test_known_optimum(self):
        f = qst_objective(standard_basis_ensemble(2))
        rho0 = DensityState.from_matrix(np.diag([0.9, 0.1]))
        res = solve(rho0, f)
        assert res.trace[-1].f_value == pytest.approx(2 * LOG2, abs=1e-6)
        assert schatten_norm(HermitianOperator(res.final_state.matrix - np.eye(2) / 2).mat, 1) <= 1e-6

    def test_hedged_run_stays_interior_and_monotone(self):
        rng = np.random.default_rng(48)
        f = hedged_qst_objective(random_ensemble(rng, 3, 6), 0.05)
        res = solve(random_density(rng, 3), f)
        values = [r.f_value for r in res.trace]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert min(r.min_eig for r in res.trace) > 1e-6

    def test_hedged_run_ends_with_a_status_past_a_subnormal_step(self, monkeypatch):
        # at alpha_bar = 1e6 a step at the first iterate reaches lambda_min
        # 3.5e-312, where rho^{-1} overflows: the hedged value is +inf there,
        # so the search rejects that step instead of the gradient raising.
        # The underflow bound excludes every candidate the barrier values
        # +inf, so 2 eigendecompositions run, the accepted step and the last
        # probe: the maximally mixed start needs none
        f = hedged_qst_objective(random_ensemble(np.random.default_rng(46), 2, 4), 1e-3)
        eigh = np.linalg.eigh
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        res = solve(DensityState.maximally_mixed(2), f, SolverConfig(alpha_bar=1e6))
        assert res.status is SolveStatus.STATIONARY
        assert len(res.trace) == 1
        assert res.trace[0].f_value == -6.4501267228592525
        assert min(r.min_eig for r in res.trace) >= np.finfo(np.float64).tiny
        assert len(calls) == 2

    def test_stationary_at_minimizer(self):
        f = qst_objective(standard_basis_ensemble(2))
        res = solve(DensityState.maximally_mixed(2), f)
        assert res.status is SolveStatus.STATIONARY
        assert len(res.trace) == 1

    def test_max_iters_zero(self):
        f = qst_objective(standard_basis_ensemble(2))
        res = solve(DensityState.maximally_mixed(2), f,
                    SolverConfig(max_iters=0))
        assert res.status is SolveStatus.MAX_ITERS
        assert res.trace == []

    def test_backtrack_cap_status(self):
        rng = np.random.default_rng(49)
        f = quadratic_objective(HermitianOperator(random_density(rng, 2).matrix), 1e8)
        res = solve(random_density(rng, 2), f, SolverConfig(max_backtracks=3))
        assert res.status is SolveStatus.BACKTRACK_CAP_HIT

    def test_rejects_out_of_domain_start(self):
        f = qst_objective(standard_basis_ensemble(2))
        rho = DensityState.from_exponent(HermitianOperator(np.diag([-800.0, 0.0])))
        with pytest.raises(DomainError):
            solve(rho, f)

    def test_rejects_a_subnormal_start_entry(self):
        # 1e-310 is positive but below the smallest normal double, where the
        # Burg gradient's 1/x overflows: f(x0) is +inf, so the start is out
        with pytest.raises(DomainError, match="effective domain"):
            solve(ProbabilityVector([1.0, 1e-310]), burg_objective(2))

    def test_step_size_law_and_sufficient_decrease(self):
        rng = np.random.default_rng(50)
        f = qst_objective(random_ensemble(rng, 3, 6))
        cfg = SolverConfig(max_iters=200)
        res = solve(random_density(rng, 3), f, cfg)
        prev = random_density(rng, 3)  # placeholder, replaced below
        states = [random_density(rng, 3)]
        # re-run manually to get consecutive states for the divergence bound
        rho = random_density(rng, 3)
        res = solve(rho, f, cfg)
        prev_f = f.value(rho)
        prev_state = rho
        for rec in res.trace:
            assert rec.alpha_k == cfg.alpha_bar * cfg.shrink ** rec.backtracks
            nxt = eg_step(prev_state, f.gradient(prev_state), rec.alpha_k)
            div = quantum_relative_entropy(nxt, prev_state)
            assert rec.f_value <= prev_f - cfg.tau * div / rec.alpha_k + 1e-10
            assert abs(np.trace(nxt.matrix).real - 1.0) <= 1e-12
            prev_f, prev_state = rec.f_value, nxt

    def test_log_domain_composition(self):
        # exponent after k steps = exponent0 - sum alpha_i grad_i, up to
        # accumulated identity shifts from the normalization
        rng = np.random.default_rng(51)
        f = qst_objective(random_ensemble(rng, 3, 6))
        rho = random_density(rng, 3)
        cfg = SolverConfig(max_iters=5)
        res = solve(rho, f, cfg)
        acc = rho.exponent.copy()
        state = rho
        for rec in res.trace:
            acc = acc - rec.alpha_k * f.gradient(state)
            state = eg_step(state, f.gradient(state), rec.alpha_k)
        diff = state.exponent - acc
        off_diag = diff - np.eye(3) * np.mean(np.diag(diff))
        assert np.linalg.norm(off_diag) <= 1e-9
        assert np.std(np.diag(diff).real) <= 1e-9

    def test_stationarity_surrogate(self):
        rng = np.random.default_rng(52)
        f = hedged_qst_objective(random_ensemble(rng, 3, 6), 0.05)
        cfg = SolverConfig()
        res = solve(random_density(rng, 3), f, cfg)
        assert res.status in (SolveStatus.STATIONARY, SolveStatus.CONVERGED)
        assert min(r.bregman_gap_bar for r in res.trace) <= cfg.stop_tol * 10

    @pytest.mark.parametrize("x0, f", [
        (DensityState.maximally_mixed(3), qst_objective(standard_basis_ensemble(4))),
        (ProbabilityVector.uniform(3), burg_objective(4)),
        (DensityState.maximally_mixed(3), burg_objective(3)),
        (ProbabilityVector.uniform(2), qst_objective(standard_basis_ensemble(2))),
    ], ids=["matrix-dim", "vector-dim", "matrix-state-vector-objective",
            "vector-state-matrix-objective"])
    def test_rejects_dimension_mismatch(self, x0, f):
        with pytest.raises(InvalidInput):
            solve(x0, f)

    def test_rejects_gradient_that_is_not_hermitian(self):
        # the objective's gradients are checked as eg_step checks its own
        rng = np.random.default_rng(49)
        f = quadratic_objective(HermitianOperator(random_density(rng, 3).matrix))
        lower = dataclasses.replace(f, gradient=lambda rho: np.tril(f.gradient(rho)))
        with pytest.raises(InvalidInput, match="Hermitian"):
            solve(random_density(rng, 3), lower)

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_gradient_that_is_not_finite(self, entry):
        # not a search that backtracks to its cap on NaN or inf steps
        f = ObjectiveSpec(2, lambda x: float(np.sum(x.entries ** 2)),
                          lambda x: np.array([entry, 0.0]), kind="vector")
        with pytest.raises(InvalidInput, match="non-finite"):
            solve(ProbabilityVector([0.3, 0.7]), f)

    def test_sink_receives_every_record(self):
        f = qst_objective(standard_basis_ensemble(2))
        seen = []
        res = solve(DensityState.from_matrix(np.diag([0.8, 0.2])), f, sink=seen.append)
        assert seen == res.trace


class TestSolveSimplex:
    def test_burg_converges_to_uniform(self):
        cfg = SolverConfig(stop_tol=1e-14)
        res = solve(ProbabilityVector([0.7, 0.2, 0.1]), burg_objective(3), cfg)
        assert np.sum(np.abs(res.final_state.entries - 1.0 / 3.0)) <= 1e-6

    def test_identity_shift_fixed_point(self):
        # constant gradient: the minimizer certificate, stationary right away
        f = burg_objective(3)
        res = solve(ProbabilityVector.uniform(3), f)
        assert res.status is SolveStatus.STATIONARY
        assert len(res.trace) == 1

    def test_agrees_with_matrix_solve_on_diagonal_embedding(self):
        rng = np.random.default_rng(53)
        rows = rng.random((6, 3)) + 0.05
        fv = poisson_linear_objective(rows)
        fm = qst_objective(MeasurementEnsemble([np.diag(r) for r in rows]))
        x0 = rng.dirichlet(np.ones(3)) * 0.85 + 0.05
        cfg = SolverConfig(max_iters=40)
        res_v = solve(ProbabilityVector(x0), fv, cfg)
        res_m = solve(DensityState.from_matrix(np.diag(x0)), fm, cfg)
        assert len(res_v.trace) == len(res_m.trace)
        for rv, rm in zip(res_v.trace, res_m.trace):
            assert rv.f_value == pytest.approx(rm.f_value, abs=1e-10)
            assert rv.alpha_k == rm.alpha_k
            assert rv.backtracks == rm.backtracks

    def test_rejects_boundary_start(self):
        with pytest.raises(DomainError):
            solve(ProbabilityVector([1.0, 0.0]), burg_objective(2))

    def test_underflowed_entries_stay_in_log_domain(self):
        # entries of this instance's iterates underflow to exactly 0; the
        # update must not take the log of one
        rng = np.random.default_rng(0)
        f = poisson_linear_objective(rng.exponential(size=(64, 16)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(ProbabilityVector.uniform(16), f, SolverConfig(max_iters=2000))
        assert res.status is SolveStatus.CONVERGED
        assert res.final_state.min_eig == 0.0
        assert np.all(np.isfinite(res.final_state.exponent))
        values = [r.f_value for r in res.trace]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestStoppingGap:
    """The loop's stopping quantity <probe, log probe - log x> is the KL
    divergence up to the dropped unit-sum term sum(probe - x)."""

    def test_random_interior_vectors(self):
        rng = np.random.default_rng(55)
        for d in (2, 5, 16, 64):
            for _ in range(10):
                x = ProbabilityVector(rng.dirichlet(np.ones(d)))
                probe = eg_step(x, rng.standard_normal(d), 1.0)
                assert _divergence(probe, x) == pytest.approx(
                    classical_relative_entropy(probe, x), abs=1e-15)

    def test_underflowed_entry(self):
        x = ProbabilityVector.from_exponent(np.array([-790.0, 0.5, 0.8, 0.0]))
        probe = ProbabilityVector.from_exponent(np.array([-800.0, 0.0, 1.0, 0.3]))
        assert probe.entries[0] == 0.0 and x.entries[0] == 0.0
        assert np.isfinite(probe.exponent[0])
        for p, q in ((probe, x), (probe, ProbabilityVector.uniform(4))):
            assert _divergence(p, q) == pytest.approx(classical_relative_entropy(p, q), abs=1e-15)


class TestWorkPerSolve:
    """Each Armijo candidate evaluated costs one f evaluation, each candidate
    formed one eigendecomposition, each accepted iterate one gradient: the
    alpha_bar probe that tests stationarity is reused as the next
    iteration's first candidate. On a barrier objective, a candidate whose
    step passes the spectral underflow bound of its search is excluded, its
    f not evaluated; a fresh one is not formed either, while a probe was
    formed for the stopping test. So a solve costs candidates - excluded + 1
    values of f, and that many eigendecompositions plus one per excluded
    probe; the maximally mixed start is built in closed form, with none. On
    a tomography objective, each state evaluated costs one tr(M_i rho) pass,
    which its value and gradient share."""

    @staticmethod
    def count_work(monkeypatch, f):
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        monkeypatch.setattr(solver_module, "_gradient", counted("checks", solver_module._gradient))
        monkeypatch.setattr(MeasurementEnsemble, "probabilities",
                            counted("probabilities", MeasurementEnsemble.probabilities))
        return counts, dataclasses.replace(f, value=counted("value", f.value),
                                           gradient=counted("gradient", f.gradient))

    @staticmethod
    def replay_excluded(x0, f, cfg, trace):
        """The candidates the solver excludes, counted by replaying each
        search from its recorded iterate: every step past the bound, and
        among them the excluded probes, the alpha_bar steps of the searches
        after the first. Each one, formed here, has value +inf. Returns
        (excluded, excluded probes)."""
        if not f.barrier:
            return 0, 0
        state, excluded, probes = x0, 0, 0
        for r in trace:
            g = f.gradient(state)
            spectrum = np.linalg.eigvalsh(g) if g.ndim == 2 else g
            cut = _underflow_step(state, float(np.min(spectrum)), float(np.max(spectrum)))
            for j in range(r.backtracks + 1):
                alpha = cfg.alpha_bar * cfg.shrink ** j
                if alpha > cut:
                    assert f.value(eg_step(state, g, alpha)) == math.inf
                    excluded += 1
                    probes += j == 0 and r.k > 1
            state = eg_step(state, g, r.alpha_k)
        return excluded, probes

    @staticmethod
    def matrix_problem(family):
        rng = np.random.default_rng(54)
        if family == "qst":
            return qst_objective(random_ensemble(rng, 3, 6)), SolverConfig(alpha_bar=20.0)
        if family == "hedged-qst":
            return hedged_qst_objective(random_ensemble(rng, 3, 6), 1e-3), SolverConfig()
        target = HermitianOperator(random_density(rng, 3).matrix)
        return quadratic_objective(target, 30.0), SolverConfig()

    @pytest.mark.parametrize("family", ["qst", "hedged-qst", "quadratic"])
    def test_matrix_solve(self, monkeypatch, family):
        f, cfg = self.matrix_problem(family)
        counts, f = self.count_work(monkeypatch, f)
        rho0 = DensityState.maximally_mixed(3)
        assert counts["eigh"] == 0
        res = solve(rho0, f, cfg)
        work = Counter(counts)
        assert res.status in (SolveStatus.CONVERGED, SolveStatus.STATIONARY)
        iters = len(res.trace)
        candidates = iters + sum(r.backtracks for r in res.trace)
        assert iters > 1 and candidates > iters
        excluded, probes = self.replay_excluded(rho0, f, cfg, res.trace)
        if family != "hedged-qst":  # not barriers
            assert excluded == 0
        assert work["eigh"] == candidates - excluded + 1 + probes
        assert work["gradient"] == work["checks"] == iters + 1
        assert work["value"] == candidates - excluded + 1
        assert work["probabilities"] == (0 if family == "quadratic" else candidates - excluded + 1)

    def test_rejected_candidates_form_no_exponent(self, monkeypatch):
        # log rho is formed for the start, each accepted iterate and each
        # alpha_bar probe only: at most 2 iterations + 1 times, whatever the
        # number of candidates; alpha_bar = 20 overshoots the barrier often
        rng = np.random.default_rng(54)
        f = hedged_qst_objective(random_ensemble(rng, 3, 6), 1e-3)
        counts, f = self.count_work(monkeypatch, f)
        exponent = vars(DensityState)["exponent"].fget

        def forming(state):
            counts["exponent"] += state._exponent is None
            return exponent(state)

        monkeypatch.setattr(DensityState, "exponent", property(forming))
        cfg = SolverConfig(alpha_bar=20.0)
        rho0 = DensityState.maximally_mixed(3)
        res = solve(rho0, f, cfg)
        work = Counter(counts)
        assert res.status in (SolveStatus.CONVERGED, SolveStatus.STATIONARY)
        iters = len(res.trace)
        candidates = iters + sum(r.backtracks for r in res.trace)
        assert candidates > 2 * iters
        excluded, probes = self.replay_excluded(rho0, f, cfg, res.trace)
        assert probes > 0
        assert work["exponent"] <= 2 * iters + 1
        assert work["eigh"] == candidates - excluded + 1 + probes
        assert work["gradient"] == work["checks"] == iters + 1
        assert work["value"] == candidates - excluded + 1

    def test_simplex_solve(self, monkeypatch):
        counts, f = self.count_work(monkeypatch, burg_objective(5))
        x0, cfg = ProbabilityVector([0.5, 0.2, 0.15, 0.1, 0.05]), SolverConfig()
        res = solve(x0, f, cfg)
        work = Counter(counts)
        iters = len(res.trace)
        assert iters > 1
        excluded, _ = self.replay_excluded(x0, f, cfg, res.trace)
        assert work["gradient"] == work["checks"] == iters + 1
        assert work["value"] == iters + sum(r.backtracks for r in res.trace) - excluded + 1

    def test_capped_search_of_excluded_candidates(self, monkeypatch):
        # every step from alpha_bar = 1e6 passes the bound: the search hits
        # the cap with no candidate formed, and keeps why it stopped
        rng = np.random.default_rng(46)
        counts, f = self.count_work(monkeypatch, hedged_qst_objective(random_ensemble(rng, 2, 4), 1e-3))
        cfg = SolverConfig(alpha_bar=1e6, max_backtracks=3)
        res = solve(DensityState.maximally_mixed(2), f, cfg)
        assert res.status is SolveStatus.BACKTRACK_CAP_HIT and res.trace == []
        assert (res.last_alpha, res.last_value) == (1e6 * 0.5 ** 3, math.inf)
        assert counts["eigh"] == 0 and counts["value"] == 1


class TestTraceCsv:
    def test_format(self, tmp_path):
        f = qst_objective(standard_basis_ensemble(2))
        res = solve(DensityState.from_matrix(np.diag([0.8, 0.2])), f)
        path = tmp_path / "trace.csv"
        write_trace_csv(res.trace, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "f", "alpha", "backtracks", "delta", "bregman_gap_bar", "min_eig"]
        assert len(rows) == len(res.trace) + 1
        # 17 significant digits round-trip exactly
        for row, rec in zip(rows[1:], res.trace):
            assert int(row[0]) == rec.k
            assert float(row[1]) == rec.f_value
            assert float(row[5]) == rec.bregman_gap_bar

    def test_a_numpy_float_value_keeps_17_digits(self, tmp_path):
        # an objective may return a numpy float narrower than a double: it is
        # written to 17 digits too, not as numpy prints it
        f = qst_objective(standard_basis_ensemble(2))
        f32 = dataclasses.replace(f, value=lambda x: np.float32(f.value(x)))
        res = solve(DensityState.from_matrix(np.diag([0.8, 0.2])), f32, SolverConfig(max_iters=3))
        write_trace_csv(res.trace, tmp_path / "trace.csv")
        with open(tmp_path / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert res.trace and [float(row[1]) for row in rows] == [float(r.f_value) for r in res.trace]
