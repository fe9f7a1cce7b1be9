import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from expgrad.entropy import ProbabilityVector
from expgrad.errors import DomainError, InvalidInput
from expgrad.linalg import DensityState, HermitianOperator
from expgrad.diagnostics import random_hermitian as diagnostics_random_hermitian
from expgrad.diagnostics import random_psd
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
from expgrad.solver import SolveStatus, solve
from helpers import qst_hardness_witness, random_density, random_ensemble

LOG2 = np.log(2.0)


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
        with pytest.raises(InvalidInput, match="every operator must be nonzero"):
            MeasurementEnsemble([np.eye(2), np.zeros((2, 2))])

    @pytest.mark.parametrize("operators", [5, 2.5, None, np.float64(1.0)], ids=["int", "float", "none", "numpy-scalar"])
    def test_rejects_a_non_iterable(self, operators):
        with pytest.raises(InvalidInput, match="sequence of operators"):
            MeasurementEnsemble(operators)

    def test_mixed_dimensions(self):
        with pytest.raises(InvalidInput, match="mixed dimensions"):
            MeasurementEnsemble([np.eye(2), np.eye(3)])
        with pytest.raises(InvalidInput, match="mixed dimensions"):
            MeasurementEnsemble([HermitianOperator(np.eye(2)), np.eye(3)])

    def test_rejects_overflow_of_the_hermitian_part(self):
        with pytest.raises(InvalidInput, match="non-finite"):
            MeasurementEnsemble([np.eye(2), np.diag([1.5e308, 1.0])])

    def test_operators_is_the_read_only_stack(self):
        rng = np.random.default_rng(31)
        mats = [random_psd(rng, 4) for _ in range(6)]
        ens = MeasurementEnsemble(mats)
        assert ens.operators.shape == (6, 4, 4) and ens.operators.dtype == np.complex128
        assert not ens.operators.flags.writeable and not ens._flat.flags.writeable
        assert np.shares_memory(ens.operators, ens._flat)
        assert not any(np.shares_memory(ens.operators, m) for m in mats)
        for i, m in enumerate(mats):
            assert ens.operators[i].tobytes() == HermitianOperator(m).mat.tobytes()

    def test_same_stack_from_every_input_form(self):
        rng = np.random.default_rng(32)
        mats = [random_psd(rng, 3) for _ in range(5)]
        want = MeasurementEnsemble(mats).operators.tobytes()
        for given in (np.stack(mats), [HermitianOperator(m) for m in mats], tuple(mats)):
            assert MeasurementEnsemble(given).operators.tobytes() == want

    def test_holds_one_stack(self):
        # d = 64, m = 256: the complex stack is 16.8 MB. Keeping a second copy
        # of every operator held 33.6 MB; forming the Hermitian part needs one
        # more stack-sized temporary at most (peak 33.7 MB before this layout)
        rng = np.random.default_rng(33)
        mats = [random_psd(rng, 64) for _ in range(256)]
        tracemalloc.start()
        try:
            ens = MeasurementEnsemble(mats)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 17e6
        assert peak <= 33.7e6
        assert ens.operators.nbytes == 256 * 64 * 64 * 16

    def test_stacked_products_match_operator_loops(self):
        # reference: one vdot and one scaled add per operator
        rng = np.random.default_rng(30)
        ens = random_ensemble(rng, 5, 12)
        rho = random_density(rng, 5)
        t = ens.probabilities(rho.matrix)
        want = np.array([np.vdot(ens.operators[i], rho.matrix).real for i in range(12)])
        assert np.allclose(t, want, rtol=1e-13, atol=0.0)
        w = rng.standard_normal(12)
        total = sum(w[i] * ens.operators[i] for i in range(12))
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

    @pytest.mark.parametrize("d", [1, 2, 5, 16, 33])
    def test_gradient_is_exactly_hermitian(self, d):
        # the weighted sum of Hermitian operators is Hermitian bit for bit,
        # with no Hermitian part taken: on random ensembles, on rank-one
        # projectors that do not span the operators (rank-deficient), and at d = 1
        rng = np.random.default_rng(33 + d)
        rank_one = []
        for _ in range(max(1, d // 2)):
            v = rng.standard_normal((d, 1)) + 1j * rng.standard_normal((d, 1))
            rank_one.append(v @ v.conj().T)
        for ens in (random_ensemble(rng, d, 4 * d), random_ensemble(rng, d, 3),
                    MeasurementEnsemble(rank_one), standard_basis_ensemble(d)):
            for _ in range(3):
                g = qst_objective(ens).gradient(random_density(rng, d))
                assert np.array_equal(g, 0.5 * (g + g.conj().T))

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

    @pytest.mark.parametrize("low", [-715.0, -708.5])
    def test_subnormal_eigenvalue_is_outside_the_domain(self, low):
        # lambda_min 2.2e-311, whose inverse overflows, and 2.0e-308, whose
        # inverse is finite: below the smallest normal double, value,
        # gradient and in_domain agree that the state is out
        f = hedged_qst_objective(standard_basis_ensemble(2), 0.1)
        rho = DensityState.from_exponent(np.diag([low, 0.0]))
        assert 0.0 < rho.min_eig < np.finfo(np.float64).tiny
        assert f.value(rho) == math.inf and not f.in_domain(rho)
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


@pytest.mark.parametrize("call", [
    lambda: poisson_linear_objective([1.0, 2.0]),
    lambda: poisson_linear_objective([[1.0, -0.5], [1.0, 1.0]]),
    lambda: poisson_linear_objective([[1.0, np.inf], [1.0, 1.0]]),
    lambda: poisson_linear_objective([[1.0, np.nan], [1.0, 1.0]]),
    lambda: quadratic_objective(np.eye(2), 0.0),
], ids=["poisson-1d", "poisson-negative", "poisson-inf", "poisson-nan", "quadratic-zero-scale"])
def test_constructors_reject_malformed_input(call):
    with pytest.raises(InvalidInput):
        call()


@pytest.mark.parametrize("call", [
    lambda: hedged_qst_objective(standard_basis_ensemble(2), math.nan),
    lambda: hedged_qst_objective(standard_basis_ensemble(2), math.inf),
    lambda: hedged_qst_objective(standard_basis_ensemble(2), "x"),
    lambda: hedged_qst_objective(standard_basis_ensemble(2), True),
    lambda: quadratic_objective(np.eye(2), math.nan),
    lambda: burg_objective(2.5),
    lambda: burg_objective(True),
    lambda: standard_basis_ensemble(-1),
    lambda: standard_basis_ensemble(2.5),
    lambda: diagnostics_random_hermitian(np.random.default_rng(0), 0),
    lambda: random_psd(np.random.default_rng(0), 0),
], ids=["hedged-nan", "hedged-inf", "hedged-string", "hedged-bool", "quadratic-nan", "burg-fraction",
        "burg-bool", "basis-negative", "basis-fraction", "random-hermitian-0", "random-psd-0"])
def test_weights_and_dimensions_are_checked_at_the_boundary(call):
    # a weight or scale is a positive, finite real number, not a bool, and a
    # dimension an integer of at least 1, not a bool
    with pytest.raises(InvalidInput):
        call()


class TestLogLikelihood:
    """QST, Poisson and Burg are one -sum_i log t_i(x), each with its own
    linear map t and adjoint."""

    @pytest.mark.parametrize("d", [1, 2, 7])
    def test_burg_is_poisson_with_identity_rows(self, d):
        rng = np.random.default_rng(37 + d)
        burg, poisson = burg_objective(d), poisson_linear_objective(np.eye(d))
        for _ in range(5):
            x = ProbabilityVector(rng.dirichlet(np.ones(d)) * 0.9 + 0.1 / d)
            assert burg.value(x) == poisson.value(x)
            assert np.array_equal(burg.gradient(x), poisson.gradient(x))

    @pytest.mark.parametrize("f, x", [
        # a rank-deficient ensemble, and a state orthogonal to its first operator
        (qst_objective(MeasurementEnsemble([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])])),
         DensityState.from_exponent(np.diag([-800.0, 0.0, 0.0]))),
        (poisson_linear_objective([[1.0, 0.0], [1.0, 1.0]]), ProbabilityVector([0.0, 1.0])),
        (burg_objective(3), ProbabilityVector([0.5, 0.0, 0.5])),
        # a positive t_i below the smallest normal double, where 1/t_i can
        # overflow, is out as a zero one is
        (qst_objective(standard_basis_ensemble(2)), DensityState.from_exponent(np.diag([-715.0, 0.0]))),
        (poisson_linear_objective([[1.0, 0.0], [1.0, 1.0]]), ProbabilityVector([1e-310, 1.0])),
        (burg_objective(2), ProbabilityVector([1.0, 1e-310])),
    ], ids=["qst", "poisson", "burg", "qst-subnormal", "poisson-subnormal", "burg-subnormal"])
    def test_zero_rate_is_out_of_domain(self, f, x):
        assert f.value(x) == math.inf
        assert f.in_domain(x) is False
        with pytest.raises(DomainError):
            f.gradient(x)

    def test_hedged_is_infinite_where_its_base_is(self):
        # tr(M rho) = 1e-200 * e^-460 underflows to 0 on a positive-definite rho
        ens = MeasurementEnsemble([np.diag([1e-200, 0.0]), np.eye(2)])
        rho = DensityState.from_exponent(np.diag([-460.0, 0.0]))
        assert rho.min_eig > 0.0
        assert qst_objective(ens).value(rho) == math.inf
        assert hedged_qst_objective(ens, 0.1).value(rho) == math.inf


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


def _family_points():
    """(objective, point) pairs of all five families: an interior point,
    and a point with a zero and one with a subnormal eigenvalue or entry,
    which are off the domain but for the quadratic, whose domain is every
    state."""
    basis = standard_basis_ensemble(2)
    inside = DensityState.maximally_mixed(2)
    zero, subnormal = (DensityState.from_exponent(np.diag([low, 0.0])) for low in (-800.0, -708.5))
    rows = [[1.0, 0.0], [1.0, 1.0]]
    pairs = {
        "qst": [(qst_objective(basis), x) for x in (inside, zero, subnormal)],
        "hedged-qst": [(hedged_qst_objective(basis, 0.1), x) for x in (inside, zero, subnormal)],
        "poisson": [(poisson_linear_objective(rows), ProbabilityVector(p))
                    for p in ([0.5, 0.5], [0.0, 1.0], [1e-310, 1.0])],
        "burg": [(burg_objective(2), ProbabilityVector(p))
                 for p in ([0.3, 0.7], [0.0, 1.0], [1.0, 1e-310])],
        "quadratic": [(quadratic_objective(np.eye(2) / 2.0), x) for x in (inside, zero, subnormal)],
    }
    return [pytest.param(f, x, id=f"{name}-{i}") for name, fx in pairs.items()
            for i, (f, x) in enumerate(fx)]


class TestDomain:
    """value is the one statement of an objective's domain: in_domain
    follows it, and a custom objective needs no in_domain."""

    @pytest.mark.parametrize("f, x", _family_points())
    def test_in_domain_follows_the_value(self, f, x):
        assert f.in_domain(x) == math.isfinite(f.value(x))

    @pytest.mark.parametrize("make", [lambda: qst_objective(standard_basis_ensemble(2)),
                                      lambda: hedged_qst_objective(standard_basis_ensemble(2), 0.1),
                                      lambda: burg_objective(2)], ids=["qst", "hedged-qst", "burg"])
    def test_a_spec_is_freed_without_the_garbage_collector(self, make):
        # its default in_domain closes over value, not the spec: no cycle
        # keeps the spec, and with it the ensemble, alive
        gc.disable()
        try:
            ref = weakref.ref(make())
            assert ref() is None
        finally:
            gc.enable()

    def test_custom_objective_without_in_domain_solves(self):
        # -log det rho, +inf on a singular state: its minimizer is the
        # maximally mixed state
        def value(rho):
            return math.inf if rho.eigenvalues[0] <= 0.0 else float(-np.log(rho.eigenvalues).sum())

        f = ObjectiveSpec(3, value, lambda rho: -rho.inverse())
        assert f.in_domain(DensityState.maximally_mixed(3))
        assert not f.in_domain(DensityState.from_exponent(np.diag([-800.0, 0.0, 0.0])))
        rng = np.random.default_rng(39)
        res = solve(random_density(rng, 3), f)
        assert res.status in (SolveStatus.CONVERGED, SolveStatus.STATIONARY)
        assert np.allclose(res.final_state.eigenvalues, 1.0 / 3.0, atol=1e-4)


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
