import numpy as np
import pytest

from expgrad.entropy import (
    ProbabilityVector,
    classical_relative_entropy,
    pinsker_gap,
    quantum_relative_entropy,
    von_neumann_entropy_neg,
)
from expgrad.errors import DomainError, InvalidInput
from expgrad.linalg import DensityState, HermitianOperator


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = HermitianOperator(a)
    return DensityState.from_exponent(h * (1.0 / np.linalg.norm(h.mat)))


def random_unitary(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(a)
    return q


class TestProbabilityVector:
    def test_validates_sum(self):
        with pytest.raises(InvalidInput):
            ProbabilityVector([0.5, 0.6])

    def test_validates_sign(self):
        with pytest.raises(InvalidInput):
            ProbabilityVector([1.2, -0.2])

    def test_uniform(self):
        assert np.allclose(ProbabilityVector.uniform(4).entries, 0.25)


class TestVonNeumannEntropy:
    def test_maximally_mixed_two(self):
        # 2 * (1/2 log 1/2) - 1 = -log 2 - 1
        rho = DensityState.maximally_mixed(2)
        assert von_neumann_entropy_neg(rho) == pytest.approx(-np.log(2.0) - 1.0, abs=1e-12)

    def test_near_pure_is_finite(self):
        eps = 1e-12
        rho = DensityState.from_matrix(np.diag([1.0 - eps, eps]))
        assert np.isfinite(von_neumann_entropy_neg(rho))

    def test_basis_invariance(self):
        rng = np.random.default_rng(21)
        rho = random_density(rng, 4)
        u = random_unitary(rng, 4)
        rotated = DensityState.from_matrix(u @ rho.matrix @ u.conj().T)
        assert von_neumann_entropy_neg(rotated) == pytest.approx(
            von_neumann_entropy_neg(rho), abs=1e-10)


class TestQuantumRelativeEntropy:
    def test_identical_arguments(self):
        rng = np.random.default_rng(22)
        rho = random_density(rng, 3)
        assert abs(quantum_relative_entropy(rho, rho)) <= 1e-12

    def test_diagonal_value(self):
        # (1/3) ln(2/3) + (2/3) ln(4/3)
        rho = DensityState.from_matrix(np.diag([1.0 / 3.0, 2.0 / 3.0]))
        sigma = DensityState.maximally_mixed(2)
        expected = (1 / 3) * np.log(2 / 3) + (2 / 3) * np.log(4 / 3)
        assert expected == pytest.approx(0.0566330), "frozen oracle value"
        assert quantum_relative_entropy(rho, sigma) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(23)
        for d in (2, 3, 5):
            for _ in range(20):
                assert quantum_relative_entropy(
                    random_density(rng, d), random_density(rng, d)) >= -1e-12

    def test_joint_convexity_spot_check(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            r1, r2, s1, s2 = (random_density(rng, 3) for _ in range(4))
            mid_r = DensityState.from_matrix(0.5 * (r1.matrix + r2.matrix))
            mid_s = DensityState.from_matrix(0.5 * (s1.matrix + s2.matrix))
            lhs = quantum_relative_entropy(mid_r, mid_s)
            rhs = 0.5 * (quantum_relative_entropy(r1, s1) + quantum_relative_entropy(r2, s2))
            assert lhs <= rhs + 1e-10

    def test_bregman_divergence_of_negative_entropy(self):
        # D(rho, sigma) = h(rho) - h(sigma) - <log sigma, rho - sigma>
        rng = np.random.default_rng(25)
        for _ in range(10):
            rho, sigma = random_density(rng, 4), random_density(rng, 4)
            grad_h = sigma.exponent  # log sigma
            bregman = (von_neumann_entropy_neg(rho) - von_neumann_entropy_neg(sigma)
                       - np.vdot(grad_h, rho.matrix - sigma.matrix).real)
            assert quantum_relative_entropy(rho, sigma) == pytest.approx(bregman, abs=1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(InvalidInput):
            quantum_relative_entropy(DensityState.maximally_mixed(2),
                                     DensityState.maximally_mixed(3))


class TestClassicalRelativeEntropy:
    def test_identical(self):
        p = ProbabilityVector([0.2, 0.8])
        assert classical_relative_entropy(p, p) == 0.0

    def test_known_value(self):
        p = ProbabilityVector([1.0 / 3.0, 2.0 / 3.0])
        q = ProbabilityVector([0.5, 0.5])
        expected = (1 / 3) * np.log(2 / 3) + (2 / 3) * np.log(4 / 3)
        assert classical_relative_entropy(p, q) == pytest.approx(expected, abs=1e-14)

    def test_zero_log_zero(self):
        p = ProbabilityVector([0.0, 1.0])
        q = ProbabilityVector([0.5, 0.5])
        assert np.isfinite(classical_relative_entropy(p, q))

    def test_q_zero_where_p_positive(self):
        p = ProbabilityVector([0.5, 0.5])
        q = ProbabilityVector([0.0, 1.0])
        with pytest.raises(DomainError):
            classical_relative_entropy(p, q)

    def test_agrees_with_quantum_on_diagonal(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            p = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
            q = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
            kl = classical_relative_entropy(ProbabilityVector(p), ProbabilityVector(q))
            qre = quantum_relative_entropy(DensityState.from_matrix(np.diag(p)),
                                           DensityState.from_matrix(np.diag(q)))
            assert kl == pytest.approx(qre, abs=1e-12)


class TestPinskerGap:
    def test_identical(self):
        rho = DensityState.maximally_mixed(3)
        assert abs(pinsker_gap(rho, rho)) <= 1e-12

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(27)
        for d in (2, 3, 5):
            for _ in range(20):
                assert pinsker_gap(random_density(rng, d), random_density(rng, d)) >= -1e-10

    def test_diagonal_value(self):
        # D = 0.9 ln 1.8 + 0.1 ln 0.2, gap = D - 0.5 * 0.8^2
        rho = DensityState.from_matrix(np.diag([0.9, 0.1]))
        sigma = DensityState.maximally_mixed(2)
        d = 0.9 * np.log(1.8) + 0.1 * np.log(0.2)
        assert d == pytest.approx(0.368064, abs=1e-6)
        assert pinsker_gap(rho, sigma) == pytest.approx(d - 0.32, abs=1e-12)
        assert pinsker_gap(rho, sigma) == pytest.approx(0.048064, abs=1e-6)
