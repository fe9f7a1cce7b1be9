import math

import numpy as np
import pytest

from expgrad.entropy import ProbabilityVector
from expgrad.errors import DomainError, InvalidInput
from expgrad.linalg import DensityState, HermitianOperator
from expgrad.objectives import (
    MeasurementEnsemble,
    burg_objective,
    hedged_qst_objective,
    poisson_linear_objective,
    qst_hardness_witness,
    qst_objective,
    quadratic_objective,
    standard_basis_ensemble,
)

LOG2 = np.log(2.0)


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = HermitianOperator(a)
    return DensityState.from_exponent(HermitianOperator(h.mat * (1.0 / np.linalg.norm(h.mat))))


def random_ensemble(rng, d, n):
    ops = []
    for _ in range(n):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ops.append(HermitianOperator(a.conj().T @ a))
    return MeasurementEnsemble(ops)


def matrix_gradient_fd_check(f, rho, rng, tol=1e-5):
    """Directional central difference against <grad f, W> for a random
    traceless Hermitian direction."""
    d = rho.dim
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = HermitianOperator(a)
    w = HermitianOperator(w.mat - np.trace(w.mat).real / d * np.eye(d))
    w = HermitianOperator(w.mat * (0.1 / np.linalg.norm(w.mat)))
    t = 1e-6
    fp = f.value(DensityState.from_matrix(rho.matrix + t * w.mat))
    fm = f.value(DensityState.from_matrix(rho.matrix - t * w.mat))
    directional = (fp - fm) / (2 * t)
    analytic = np.vdot(f.gradient(rho), w.mat).real
    assert abs(directional - analytic) <= tol * max(1.0, abs(f.value(rho)))


def vector_gradient_fd_check(f, x, rng, tol=1e-5):
    d = x.dim
    w = rng.standard_normal(d)
    w -= w.mean()
    w *= 0.1 / np.linalg.norm(w)
    t = 1e-6
    fp = f.value(ProbabilityVector(x.entries + t * w))
    fm = f.value(ProbabilityVector(x.entries - t * w))
    directional = (fp - fm) / (2 * t)
    analytic = float(np.dot(f.gradient(x), w))
    assert abs(directional - analytic) <= tol * max(1.0, abs(f.value(x)))


def convexity_midpoint_check(f, s1, s2, make_mid, tol=1e-9):
    mid = make_mid(s1, s2)
    assert f.value(mid) <= 0.5 * f.value(s1) + 0.5 * f.value(s2) + tol


class TestMeasurementEnsemble:
    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInput):
            MeasurementEnsemble([HermitianOperator(np.diag([1.0, -1.0]))])

    def test_rejects_empty_and_zero(self):
        with pytest.raises(InvalidInput):
            MeasurementEnsemble([])
        with pytest.raises(InvalidInput):
            MeasurementEnsemble([HermitianOperator(np.zeros((2, 2)))])

    def test_stacked_products_match_operator_loops(self):
        # reference: one vdot and one scaled add per operator
        rng = np.random.default_rng(30)
        ens = random_ensemble(rng, 5, 12)
        rho = random_density(rng, 5)
        t = ens.probabilities(rho.matrix)
        want = np.array([np.vdot(op.mat, rho.matrix).real for op in ens.operators])
        assert np.allclose(t, want, rtol=1e-13, atol=0.0)
        w = rng.standard_normal(12)
        total = sum(wi * op.mat for wi, op in zip(w, ens.operators))
        assert np.allclose(ens.weighted_sum(w), total, rtol=0.0, atol=1e-12 * np.abs(total).max())


class TestQstObjective:
    def test_value_at_maximally_mixed(self):
        f = qst_objective(standard_basis_ensemble(2))
        assert f.value(DensityState.maximally_mixed(2)) == pytest.approx(2 * LOG2, abs=1e-12)
        assert 2 * LOG2 == pytest.approx(1.386294, abs=1e-6)

    def test_gradient_at_maximally_mixed(self):
        f = qst_objective(standard_basis_ensemble(2))
        g = f.gradient(DensityState.maximally_mixed(2))
        assert np.allclose(g, -2.0 * np.eye(2), atol=1e-12)
        lo, hi = np.linalg.eigvalsh(HermitianOperator(g).mat)[[0, -1]]
        assert hi - lo == pytest.approx(0.0, abs=1e-12)  # identity multiple

    def test_boundary_is_infinite(self):
        # exponent so lopsided the small eigenvalue underflows to exactly 0
        f = qst_objective(standard_basis_ensemble(2))
        rho = DensityState.from_exponent(HermitianOperator(np.diag([-800.0, 0.0])))
        assert f.value(rho) == math.inf
        assert not f.in_domain(rho)
        with pytest.raises(DomainError):
            f.gradient(rho)

    def test_gradient_fd(self):
        rng = np.random.default_rng(31)
        for d in (2, 3):
            f = qst_objective(random_ensemble(rng, d, 2 * d))
            matrix_gradient_fd_check(f, random_density(rng, d), rng)

    def test_convexity_midpoint(self):
        rng = np.random.default_rng(32)
        f = qst_objective(random_ensemble(rng, 3, 6))
        for _ in range(10):
            convexity_midpoint_check(
                f, random_density(rng, 3), random_density(rng, 3),
                lambda a, b: DensityState.from_matrix(0.5 * (a.matrix + b.matrix)))


class TestHedgedQstObjective:
    def test_value_at_maximally_mixed(self):
        f = hedged_qst_objective(standard_basis_ensemble(2), 0.1)
        # 2 log 2 + 0.1 * 2 log 2 = 2.2 log 2
        assert f.value(DensityState.maximally_mixed(2)) == pytest.approx(2.2 * LOG2, abs=1e-12)
        assert 2.2 * LOG2 == pytest.approx(1.524924, abs=1e-6)

    def test_gradient_at_maximally_mixed(self):
        f = hedged_qst_objective(standard_basis_ensemble(2), 0.1)
        g = f.gradient(DensityState.maximally_mixed(2))
        assert np.allclose(g, -2.2 * np.eye(2), atol=1e-12)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(InvalidInput):
            hedged_qst_objective(standard_basis_ensemble(2), 0.0)

    def test_barrier_at_singular(self):
        f = hedged_qst_objective(standard_basis_ensemble(2), 0.1)
        rho = DensityState.from_exponent(HermitianOperator(np.diag([-800.0, 0.0])))
        assert f.value(rho) == math.inf
        with pytest.raises(DomainError):
            f.gradient(rho)

    def test_underflowed_state_skips_the_probabilities(self, monkeypatch):
        calls = []
        probabilities = MeasurementEnsemble.probabilities
        monkeypatch.setattr(MeasurementEnsemble, "probabilities",
                            lambda self, m: calls.append(m) or probabilities(self, m))
        f = hedged_qst_objective(standard_basis_ensemble(2), 0.1)
        rho = DensityState.from_exponent(np.diag([-800.0, 0.0]))
        assert rho.eigenvalues[0] == 0.0
        assert f.value(rho) == math.inf
        assert calls == [] and rho._matrix is None
        assert math.isfinite(f.value(DensityState.maximally_mixed(2))) and len(calls) == 1

    def test_gradient_fd(self):
        rng = np.random.default_rng(33)
        f = hedged_qst_objective(random_ensemble(rng, 3, 6), 0.05)
        matrix_gradient_fd_check(f, random_density(rng, 3), rng)


class TestBurgObjective:
    def test_uniform_value(self):
        for d in (2, 3, 5):
            f = burg_objective(d)
            assert f.value(ProbabilityVector.uniform(d)) == pytest.approx(d * np.log(d), abs=1e-12)

    def test_gradient_at_uniform(self):
        f = burg_objective(4)
        assert np.allclose(f.gradient(ProbabilityVector.uniform(4)), -4.0)

    def test_boundary(self):
        f = burg_objective(2)
        assert f.value(ProbabilityVector([0.0, 1.0])) == math.inf

    def test_gradient_fd(self):
        rng = np.random.default_rng(34)
        f = burg_objective(4)
        x = ProbabilityVector(rng.dirichlet(np.ones(4)) * 0.8 + 0.05)
        vector_gradient_fd_check(f, x, rng)


class TestPoissonLinearObjective:
    def test_diagonal_case(self):
        f = poisson_linear_objective([[1.0, 0.0], [0.0, 1.0]])
        assert f.value(ProbabilityVector([0.5, 0.5])) == pytest.approx(2 * LOG2, abs=1e-12)

    def test_agrees_with_qst_on_diagonal_embedding(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            rows = rng.random((5, 3)) + 0.01
            fv = poisson_linear_objective(rows)
            fm = qst_objective(MeasurementEnsemble([np.diag(r) for r in rows]))
            x = rng.dirichlet(np.ones(3)) * 0.85 + 0.05
            pv, rho = ProbabilityVector(x), DensityState.from_matrix(np.diag(x))
            assert fv.value(pv) == pytest.approx(fm.value(rho), abs=1e-12)
            assert np.allclose(np.diag(fm.gradient(rho)).real, fv.gradient(pv), atol=1e-12)

    def test_gradient_fd(self):
        rng = np.random.default_rng(36)
        f = poisson_linear_objective(rng.random((6, 4)) + 0.01)
        x = ProbabilityVector(rng.dirichlet(np.ones(4)) * 0.8 + 0.05)
        vector_gradient_fd_check(f, x, rng)

    def test_rejects_zero_row(self):
        with pytest.raises(InvalidInput):
            poisson_linear_objective([[0.0, 0.0], [1.0, 1.0]])


class TestQuadraticObjective:
    def test_minimizer(self):
        target = HermitianOperator(np.eye(3) / 3.0)
        f = quadratic_objective(target)
        rho = DensityState.maximally_mixed(3)
        assert f.value(rho) == 0.0
        assert np.allclose(f.gradient(rho), 0.0)

    def test_gradient_fd(self):
        rng = np.random.default_rng(37)
        f = quadratic_objective(HermitianOperator(random_density(rng, 3).matrix), 2.0)
        matrix_gradient_fd_check(f, random_density(rng, 3), rng)

    def test_exact_midpoint_convexity(self):
        rng = np.random.default_rng(38)
        f = quadratic_objective(HermitianOperator(random_density(rng, 2).matrix))
        r1, r2 = random_density(rng, 2), random_density(rng, 2)
        mid = DensityState.from_matrix(0.5 * (r1.matrix + r2.matrix))
        assert f.value(mid) <= 0.5 * f.value(r1) + 0.5 * f.value(r2) + 1e-12


class TestHardnessWitness:
    def test_unit_constant(self):
        x, violation = qst_hardness_witness(1.0)
        assert x == 0.5
        assert violation == pytest.approx(-2.0)

    def test_larger_constant(self):
        x, violation = qst_hardness_witness(10.0)
        assert x == pytest.approx(0.05)
        assert violation == pytest.approx(-200.0)

    def test_negative_across_log_grid(self):
        for smoothness in np.geomspace(1e-2, 1e3, 26):
            _, violation = qst_hardness_witness(float(smoothness))
            assert violation < 0.0
