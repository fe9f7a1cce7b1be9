"""Tests for the log-partition diagnostics: derivative formulas, the
Bregman-gap identity, sandwich/ratio/kappa bounds, and fixed-point checks."""

import decimal
import hashlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from expgrad import diagnostics, linalg, suites
from expgrad import (
    DensityState,
    FixedPointResult,
    HermitianOperator,
    InvalidInput,
    LogPartitionProbe,
    MeasurementEnsemble,
    bregman_gap,
    burg_objective,
    eg_step,
    fixed_point_check,
    inner_product_check,
    phi,
    phi_derivatives,
    ProbabilityVector,
    qst_objective,
    quadratic_objective,
    quantum_relative_entropy,
    random_density,
    random_hermitian,
    random_probe,
    run_suite,
    standard_basis_ensemble,
)
from expgrad.diagnostics import chi
from expgrad.linalg import logsumexp
from expgrad.suites import phi_fd_derivatives


def constant_direction_probe(d, c):
    rng = np.random.default_rng(99)
    return LogPartitionProbe(random_density(rng, d), HermitianOperator(c * np.eye(d)))


def suite_margins(name, probe):
    """The margins of the suite check `name` on a stacked probe, one per probe."""
    return suites._CHECKS[name][0](probe, suites._Table(probe, [name]))


class TestChi:
    def test_at_one(self):
        assert chi(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_small_argument_quadratic(self):
        for x in (1e-3, 1e-5, 1e-7):
            assert chi(x) == pytest.approx(x * x / 2.0, rel=1e-3)

    def test_positive_for_positive_argument(self):
        for x in np.geomspace(1e-8, 50.0, 30):
            assert chi(x) > 0.0


class TestProbe:
    def test_dimension_mismatch(self):
        rng = np.random.default_rng(1)
        with pytest.raises(InvalidInput):
            LogPartitionProbe(random_density(rng, 2), random_hermitian(rng, 3))

    def test_delta_is_spectral_width(self):
        p = LogPartitionProbe(DensityState.maximally_mixed(2),
                              HermitianOperator(np.diag([-1.0, 3.0])))
        assert p.delta == pytest.approx(4.0)


class TestPhi:
    def test_zero_at_origin(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 5):
            p = random_probe(rng, d, "hermitian")
            assert phi(p, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_constant_direction_is_linear(self):
        p = constant_direction_probe(3, 1.7)
        for alpha in (-2.0, 0.5, 4.0):
            assert phi(p, alpha) == pytest.approx(1.7 * alpha, abs=1e-10)

    def test_convex_on_grid(self):
        rng = np.random.default_rng(4)
        p = random_probe(rng, 4, "qst")
        grid = np.linspace(-2.0, 2.0, 21)
        vals = np.array([phi(p, a) for a in grid])
        second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
        assert np.all(second >= -1e-10)


class TestPhiDerivatives:
    def test_constant_direction(self):
        p = constant_direction_probe(3, 2.5)
        d1, d2, d3 = phi_derivatives(p, 0.8)
        assert d1 == pytest.approx(2.5, abs=1e-12)
        assert d2 == pytest.approx(0.0, abs=1e-10)
        assert d3 == pytest.approx(0.0, abs=1e-8)

    def test_against_finite_differences(self):
        rng = np.random.default_rng(5)
        for kind in ("qst", "hermitian"):
            p = random_probe(rng, 4, kind)
            analytic = np.array(phi_derivatives(p, 0.3))
            best = np.full(3, math.inf)
            for h in (1e-4, 1e-3, 1e-2):
                fd = np.array(phi_fd_derivatives(p, 0.3, h))
                best = np.minimum(best, np.abs(fd - analytic)
                                  / np.maximum(1.0, np.abs(analytic)))
            assert np.all(best <= 1e-5)

    def test_diagonal_closed_form(self):
        # diagonal 2x2 case: phi'' and phi''' are the Bernoulli variance and
        # third central moment of the direction eigenvalues under the Gibbs
        # weights of H_alpha
        base = DensityState.from_matrix(np.diag([0.7, 0.3]))
        g = np.array([1.3, -0.4])
        p = LogPartitionProbe(base, HermitianOperator(np.diag(g)))
        alpha = 0.6
        h = base.exponent.diagonal().real + alpha * g
        w = np.exp(h - np.max(h))
        w = w / np.sum(w)
        mean = float(w @ g)
        var = float(w[0] * w[1]) * (g[0] - g[1]) ** 2
        third = float(w[0] * w[1] * (w[1] - w[0])) * (g[0] - g[1]) ** 3
        d1, d2, d3 = phi_derivatives(p, alpha)
        assert d1 == pytest.approx(mean, abs=1e-10)
        assert d2 == pytest.approx(var, abs=1e-10)
        assert d3 == pytest.approx(third, abs=1e-10)

    def test_variance_bounded_by_width(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = random_probe(rng, 3, "hermitian")
            for alpha in (0.05, 0.5, 2.0):
                _, var, _ = phi_derivatives(p, alpha)
                assert var <= p.delta ** 2 / 4.0 + 1e-10


class TestBregmanGap:
    def test_rejects_nonpositive_step(self):
        p = constant_direction_probe(2, 1.0)
        with pytest.raises(InvalidInput):
            bregman_gap(p, 0.0)

    def test_constant_direction_is_zero(self):
        p = constant_direction_probe(3, -0.8)
        assert bregman_gap(p, 1.3) == pytest.approx(0.0, abs=1e-12)

    def test_matches_relative_entropy(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = random_probe(rng, 4, "qst")
            for alpha in (0.1, 0.7, 2.0):
                direct = quantum_relative_entropy(
                    eg_step(p.base, -p.direction, alpha), p.base)
                assert bregman_gap(p, alpha) == pytest.approx(
                    direct, rel=1e-8, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = random_probe(rng, 3, "hermitian")
            assert bregman_gap(p, 0.9) >= -1e-12


class TestSandwich:
    def test_ordering_on_random_probes(self):
        rng = np.random.default_rng(9)
        p = LogPartitionProbe.stack([random_probe(rng, 4, "qst") for _ in range(20)])
        assert np.all(suite_margins("sandwich", p) >= 0.0)

    def test_tight_for_small_steps(self):
        # the gap, which both bounds enclose, approaches their common limit
        # alpha^2 phi''/2 as alpha -> 0
        rng = np.random.default_rng(10)
        p = random_probe(rng, 3, "hermitian")
        alpha = 1e-4
        _, var, _ = phi_derivatives(p, alpha)
        assert bregman_gap(p, alpha) == pytest.approx(alpha * alpha * var / 2.0, rel=1e-3)

    def test_degenerate_direction(self):
        # a zero-width direction: every bound is an exact zero, and the margin +inf
        p = LogPartitionProbe.stack([constant_direction_probe(2, 0.7)])
        assert suite_margins("sandwich", p).tolist() == [math.inf]


class TestRatioMonotonicity:
    def test_non_increasing_on_random_probes(self):
        rng = np.random.default_rng(11)
        p = LogPartitionProbe.stack([random_probe(rng, 3, "qst") for _ in range(15)])
        assert np.all(suite_margins("ratio", p) >= 0.0)

    def test_small_step_limit(self):
        # as alpha -> 0 the ratio D(rho(alpha), rho) / chi(Delta alpha) tends to phi''(0) / Delta^2
        rng = np.random.default_rng(12)
        p = random_probe(rng, 4, "hermitian")
        _, var0, _ = phi_derivatives(p, 0.0)
        assert bregman_gap(p, 1e-4) / chi(p.delta * 1e-4) == pytest.approx(var0 / p.delta ** 2, rel=1e-2)

    def test_degenerate_direction(self):
        p = LogPartitionProbe.stack([constant_direction_probe(2, 1.0)])
        assert suite_margins("ratio", p).tobytes() == np.zeros(1).tobytes()  # +0.0


class TestKappaBound:
    def test_point_value(self):
        # Delta = 1, alpha_bar = 1: kappa = 1 / (2 chi(1)) = 0.5, so the margin
        # is the closed form's at kappa = 0.5, with phi(alpha) = log((1 + e^alpha) / 2)
        p = LogPartitionProbe.stack([LogPartitionProbe(DensityState.maximally_mixed(2),
                                                       HermitianOperator(np.diag([0.0, 1.0])))])
        grid = np.linspace(0.05, 1.0, 20)
        gap = grid * np.exp(grid) / (1.0 + np.exp(grid)) - np.log((1.0 + np.exp(grid)) / 2.0)
        want = np.min(gap / (grid * grid)) - 0.5 * gap[-1] + 1e-9
        assert suite_margins("kappa", p)[0] == pytest.approx(want, rel=0.0, abs=1e-12)

    def test_holds_on_random_probes(self):
        rng = np.random.default_rng(13)
        p = LogPartitionProbe.stack([random_probe(rng, 3, "qst") for _ in range(15)])
        assert np.all(suite_margins("kappa", p) >= 0.0)

    def test_kappa_alpha_bar_squared_at_most_one(self):
        # kappa abar^2 = (D abar)^2 / (2 chi(D abar)) <= 1 since chi(x) >= x^2/2
        rng = np.random.default_rng(14)
        for abar in (0.3, 1.0, 4.0):
            x = random_probe(rng, 3, "hermitian").delta * abar
            assert x * x / (2.0 * chi(x)) <= 1.0 + 1e-12

    def test_degenerate_direction(self):
        p = LogPartitionProbe.stack([constant_direction_probe(2, 1.0)])
        assert suite_margins("kappa", p).tobytes() == np.zeros(1).tobytes()  # +0.0


class TestInnerProduct:
    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(15)
        f = qst_objective(standard_basis_ensemble(3))
        for _ in range(10):
            rho = random_density(rng, 3)
            for alpha in (0.1, 1.0, 3.0):
                assert inner_product_check(rho, f, alpha) >= -1e-10

    def test_small_step_limit_is_gradient_norm_like(self):
        # as alpha -> 0 the margin tends to 0 (both sides vanish linearly)
        rng = np.random.default_rng(16)
        f = qst_objective(standard_basis_ensemble(2))
        rho = random_density(rng, 2)
        assert abs(inner_product_check(rho, f, 1e-6)) <= 1e-4


class TestFixedPoint:
    def test_optimum_is_fixed(self):
        f = qst_objective(standard_basis_ensemble(2))
        res = fixed_point_check(DensityState.maximally_mixed(2), f, (0.1, 1.0, 3.0))
        assert isinstance(res, FixedPointResult)
        assert res.is_fixed_point
        assert res.optimality_margin >= -1e-8

    def test_rejects_nonpositive_step(self):
        f = qst_objective(standard_basis_ensemble(2))
        with pytest.raises(InvalidInput):
            fixed_point_check(DensityState.maximally_mixed(2), f, (0.5, 0.0))

    def test_rejects_empty_grid(self):
        # with no step, nothing would move, and a state that moves at every
        # step would pass as a fixed point
        f = qst_objective(standard_basis_ensemble(3))
        rho = random_density(np.random.default_rng(5), 3)
        assert not fixed_point_check(rho, f, (0.1,)).is_fixed_point
        for grid in ((), []):
            with pytest.raises(InvalidInput):
                fixed_point_check(rho, f, grid)
            with pytest.raises(InvalidInput):
                fixed_point_check([rho], f, grid)

    def test_rejects_empty_sequence_of_states(self):
        f = qst_objective(standard_basis_ensemble(3))
        for states in ((), []):
            with pytest.raises(InvalidInput):
                fixed_point_check(states, f, (0.1,))

    def test_non_optimum_moves(self):
        f = qst_objective(standard_basis_ensemble(2))
        rho = DensityState.from_matrix(np.diag([0.9, 0.1]))
        res = fixed_point_check(rho, f, (0.1, 1.0))
        assert not res.is_fixed_point
        assert res.optimality_margin is None

    def test_quadratic_target_is_fixed(self):
        rng = np.random.default_rng(17)
        target = random_density(rng, 3)
        f = quadratic_objective(HermitianOperator(target.matrix))
        res = fixed_point_check(target, f, (0.5, 1.0))
        assert res.is_fixed_point and res.optimality_margin >= -1e-8


class TestSelfConcordance:
    def test_degenerate_direction(self):
        p = LogPartitionProbe.stack([constant_direction_probe(3, 1.0)])
        assert suite_margins("self-concordance", p)[0] >= 0.0

    def test_holds_on_random_probes(self):
        rng = np.random.default_rng(18)
        for kind in ("qst", "hermitian"):
            p = LogPartitionProbe.stack([random_probe(rng, 4, kind) for _ in range(10)])
            assert np.all(suite_margins("self-concordance", p) >= 0.0)


class TestSuites:
    def test_all_pass_on_small_population(self):
        records = run_suite("all", 8, 123)
        assert len(records) == 6 * 8
        assert all(r["pass"] for r in records)

    def test_single_suite_shape(self):
        records = run_suite("kappa", 4, 5)
        assert [r["check"] for r in records] == ["kappa"] * 4
        assert {r["dim"] for r in records} <= {2, 3, 5, 8}

    def test_deterministic(self):
        assert run_suite("sandwich", 3, 9) == run_suite("sandwich", 3, 9)

    def test_rejects_unknown_suite(self):
        with pytest.raises(InvalidInput):
            run_suite("nope", 1, 0)

    def test_rejects_zero_samples(self):
        with pytest.raises(InvalidInput):
            run_suite("ratio", 0, 0)

    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidInput, match="seed"):
            run_suite("ratio", 4, -1)


class TestArrayAlpha:
    """An array of alpha gives, elementwise, what one call per alpha gives."""

    @pytest.mark.parametrize("kind", ["qst", "hermitian"])
    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_matches_scalar_calls(self, d, kind):
        rng = np.random.default_rng(40 + d)
        p = random_probe(rng, d, kind)
        grid = np.array([0.05, 0.7, 3.0])
        assert isinstance(phi(p, 0.7), float)
        assert all(isinstance(x, float) for x in phi_derivatives(p, 0.7))
        np.testing.assert_allclose(phi(p, grid), [phi(p, a) for a in grid], rtol=1e-12)
        per_alpha = np.array([phi_derivatives(p, a) for a in grid]).T
        for got, want in zip(phi_derivatives(p, grid), per_alpha):
            np.testing.assert_allclose(got, want, rtol=1e-12)
        gaps = bregman_gap(p, grid)
        assert gaps.shape == grid.shape
        np.testing.assert_allclose(gaps, [bregman_gap(p, a) for a in grid], rtol=1e-12)

    def test_rejects_nonpositive_step_in_array(self):
        with pytest.raises(InvalidInput):
            bregman_gap(constant_direction_probe(2, 1.0), np.array([0.5, 0.0]))

    def test_zero_spectral_width(self):
        # G = c I: phi(alpha) = alpha c, phi' = c, phi'' = phi''' = 0, no gap
        c = -1.3
        p = constant_direction_probe(4, c)
        grid = np.array([0.1, 1.0, 5.0])
        np.testing.assert_allclose(phi(p, grid), c * grid, atol=1e-12)
        d1, d2, d3 = phi_derivatives(p, grid)
        np.testing.assert_allclose(d1, c, atol=1e-12)
        np.testing.assert_allclose(d2, 0.0, atol=1e-10)
        np.testing.assert_allclose(d3, 0.0, atol=1e-8)
        np.testing.assert_allclose(bregman_gap(p, grid), 0.0, atol=1e-12)


class TestWorkPerCheck:
    """Each check costs a fixed number of stacked decompositions per probe,
    whatever the size of its grid; a sample population adds calls only where
    a stack that a check forms passes the entry budget
    (linalg._STACK_ELEMENTS). A probe build's stacks are decomposed whole."""

    @staticmethod
    def count_decompositions(monkeypatch):
        counts = Counter()
        for name in ("eigh", "eigvalsh"):
            def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    @pytest.fixture
    def probes(self):
        rng = np.random.default_rng(43)
        return [random_probe(rng, d, kind) for d in (2, 5, 8) for kind in ("qst", "hermitian")]

    @staticmethod
    def count_matrices(monkeypatch):
        """Stacked calls, and the matrices they decompose, of eigh and eigvalsh."""
        counts = Counter()
        for name in ("eigh", "eigvalsh"):
            def counted(a, *args, _fn=getattr(np.linalg, name), **kwargs):
                counts["calls"] += 1
                counts["matrices"] += math.prod(np.shape(a)[:-2])
                return _fn(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    def per_check(self, monkeypatch, probes, name):
        """The stacked calls, and their matrices, of the suite check `name` on
        each probe alone."""
        counts = self.count_matrices(monkeypatch)
        out = []
        for p in probes:
            stacked = LogPartitionProbe.stack([p])
            counts.clear()
            suite_margins(name, stacked)
            out.append(counts.copy())
        return out

    def test_ratio(self, monkeypatch, probes):
        # one eigh over the 25 grid steps
        assert self.per_check(monkeypatch, probes, "ratio") == [Counter(calls=1, matrices=25)] * len(probes)

    def test_kappa(self, monkeypatch, probes):
        # the grid ends at alpha_bar, so H(alpha_bar) is decomposed once: 20
        # matrices, not 21
        assert self.per_check(monkeypatch, probes, "kappa") == [Counter(calls=1, matrices=20)] * len(probes)

    def test_self_concordance(self, monkeypatch, probes):
        want = [Counter(calls=1, matrices=25)] * len(probes)
        assert self.per_check(monkeypatch, probes, "self-concordance") == want

    def test_sandwich(self, monkeypatch, probes):
        assert self.per_check(monkeypatch, probes, "sandwich") == [Counter(calls=1, matrices=3)] * len(probes)

    def test_fixed_point(self, monkeypatch):
        # the stacked steps' eigh and eigvalsh(g); the movement is a norm of entries
        cases = [(DensityState.maximally_mixed(d), qst_objective(standard_basis_ensemble(d)))
                 for d in (2, 5, 8)]
        counts = self.count_decompositions(monkeypatch)
        for rho, f in cases:
            counts.clear()
            assert fixed_point_check(rho, f, (0.1, 1.0, 3.0)).is_fixed_point
            assert sum(counts.values()) == 2

    def test_fixed_point_margins_of_fixed_states_only(self, monkeypatch):
        # eigvalsh(g) takes the fixed states alone, and no state moving
        # leaves it out; no moved matrix is decomposed
        d = 3
        f = qst_objective(standard_basis_ensemble(d))
        rng = np.random.default_rng(11)
        moving = [random_density(rng, d) for _ in range(4)]
        states = [DensityState.maximally_mixed(d), *moving]
        counts = self.count_matrices(monkeypatch)
        res = fixed_point_check(states, f, (0.1, 1.0, 3.0))
        assert res.is_fixed_point.tolist() == [True] + [False] * 4
        assert counts == Counter(calls=2, matrices=15 + 1)
        counts.clear()
        res = fixed_point_check(moving, f, (0.1, 1.0, 3.0))
        assert not np.any(res.is_fixed_point) and np.all(np.isnan(res.optimality_margin))
        assert counts == Counter(calls=1, matrices=12)

    @staticmethod
    def count_divided_differences(monkeypatch):
        counts = Counter()
        for name in ("_exp_dd1", "_exp_dd2"):
            def counted(*args, _fn=getattr(diagnostics, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(diagnostics, name, counted)
        return counts

    def test_first_order_checks_build_no_divided_differences(self, monkeypatch, probes):
        counts = self.count_divided_differences(monkeypatch)
        for p in probes:
            bregman_gap(p, np.geomspace(1e-3, 1.0, 25))
        run_suite("ratio", 8, 0)
        run_suite("kappa", 8, 0)
        assert counts == Counter()

    def test_sandwich_builds_no_second_divided_difference(self, monkeypatch):
        # one first divided difference per dimension's stack
        counts = self.count_divided_differences(monkeypatch)
        run_suite("sandwich", 8, 0)
        assert counts == Counter({"_exp_dd1": 4})

    # the stacked calls of each suite per probe dimension, past the builds;
    # the test ids are the suite names alone, so a new count renames none
    SUITE_CALLS_PER_DIM = {
        # a gap reads phi from the eigh that gives phi'
        "sandwich": 1, "ratio": 1, "kappa": 1, "self-concordance": 1,
        # the table's eigh over the derivative and relative-entropy path
        # steps 1, and one finite-difference stack for all three h 1 (was 5:
        # phi_derivatives, one stack per h, and the path's eigh)
        "moments": 2,
        # one check 2 of the optimum stacked with the probes' base states;
        # the optimum, the maximally mixed state, and its ensemble are built
        # undecomposed
        "fixed-point": 2,
        # the table 1, the finite differences 1 and fixed point 2
        "all": 4,
    }

    @pytest.mark.parametrize("name", list(SUITE_CALLS_PER_DIM))
    def test_suite_cost_does_not_grow_with_samples(self, monkeypatch, name):
        per_dim = self.SUITE_CALLS_PER_DIM[name]
        # each dimension's probes are one stacked build: the base states'
        # eigh and the directions' eigvalsh (a draw S is scaled by its
        # Frobenius norm, and an ensemble A^H A is PSD unchecked)
        builds = 4 * 2
        # at 100 samples the 25 probes of d = 8 pass the entry budget in the
        # table's eigh (ratio and self-concordance 3 chunks, kappa 2, all 5)
        # and the stencils' eigvalsh (5 chunks), and d = 5 in the stencils'
        # (2) and under all in the table's (2): one call per extra chunk
        past_budget = {"ratio": 2, "kappa": 1, "self-concordance": 2, "moments": 4 + 1, "all": 4 + 1 + 4 + 1}
        counts = self.count_decompositions(monkeypatch)

        def cost(samples):
            counts.clear()
            run_suite(name, samples, 0)
            return sum(counts.values())

        assert cost(8) == 4 * per_dim + builds
        assert cost(100) == 4 * per_dim + builds + past_budget.get(name, 0)
        assert cost(100) <= 4 * 25

    def test_matrices_per_pass(self, monkeypatch):
        # a 100-sample "all" pass: none of the calls is on a random draw S,
        # a tomography probe's operators A^H A or a basis projector
        counts = self.count_matrices(monkeypatch)
        run_suite("all", 100, 0)
        assert counts == Counter(calls=34, matrices=10_716)

    @pytest.mark.parametrize("samples", [100, 1000])
    def test_no_stack_passes_the_entry_budget(self, monkeypatch, samples):
        # at d <= 8 no probe's row passes the budget, so no call does; the
        # chunks decompose the matrices that one stack per kind did
        sizes = []
        for name in ("eigh", "eigvalsh"):
            def counted(a, *args, _fn=getattr(np.linalg, name), **kwargs):
                sizes.append((np.size(a), math.prod(np.shape(a)[:-2])))
                return _fn(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        run_suite("all", samples, 0)
        assert max(entries for entries, _ in sizes) <= linalg._STACK_ELEMENTS
        assert sum(matrices for _, matrices in sizes) == {100: 10_716, 1000: 107_016}[samples]

    def test_no_matrix_is_decomposed_twice_per_pass(self, monkeypatch):
        # in a 100-sample "all" pass, each distinct matrix goes through eigh
        # at most once, and through eigvalsh at most once
        seen = {"eigh": Counter(), "eigvalsh": Counter()}
        for name in seen:
            def counted(a, *args, _fn=getattr(np.linalg, name), _seen=seen[name], **kwargs):
                a = np.asarray(a)
                for m in a.reshape((-1,) + a.shape[-2:]):
                    _seen[hashlib.sha256(repr(m.shape).encode() + np.ascontiguousarray(m).tobytes()).digest()] += 1
                return _fn(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        run_suite("all", 100, 0)
        assert sum(seen["eigh"].values()) == 4_912 and sum(seen["eigvalsh"].values()) == 5_804
        for name, hashes in seen.items():
            assert max(hashes.values()) == 1, name


def test_stacked_probe_matches_each_probe():
    # a mixed population with a zero-width direction: every result of the
    # stack, per probe, bit for bit what the probe alone gives
    rng = np.random.default_rng(47)
    probes = [random_probe(rng, 3, kind) for kind in ("qst", "hermitian", "qst")]
    probes.insert(1, constant_direction_probe(3, -0.6))
    stacked = LogPartitionProbe.stack(probes)
    grid = np.geomspace(1e-3, 2.0, 9)
    checks = {
        "phi": lambda p: phi(p, grid),
        "phi_derivatives": lambda p: phi_derivatives(p, grid),
        "bregman_gap": lambda p: bregman_gap(p, grid),
        "phi_fd_derivatives": lambda p: phi_fd_derivatives(p, grid, 1e-3),
    }

    def entry(result, i):
        return tuple(entry(r, i) for r in result) if isinstance(result, tuple) else np.asarray(result)[i]

    for name, check in checks.items():
        together = check(stacked)
        for i, p in enumerate(probes):
            np.testing.assert_equal(entry(together, i), check(p), err_msg=name)
    for mixed in ([], [probes[0], random_probe(rng, 2, "qst")]):
        with pytest.raises(InvalidInput):
            LogPartitionProbe.stack(mixed)
    for name in suites._CHECKS:
        alone = [suite_margins(name, LogPartitionProbe.stack([p]))[0] for p in probes]
        np.testing.assert_array_equal(suite_margins(name, stacked), alone, err_msg=name)
    assert np.isinf(suite_margins("sandwich", stacked)).tolist() == [False, True, False, False]


@pytest.mark.parametrize("budget", [1, 500])
def test_chunked_decompositions_keep_every_bit(monkeypatch, budget):
    # a budget of one entry decomposes each probe, state and operator alone,
    # 500 a few at a time: the records, and every stacked public function,
    # keep the bits of the default budget
    rng = np.random.default_rng(56)
    stacked = LogPartitionProbe.stack([random_probe(rng, 3, kind) for kind in ("qst", "hermitian") * 3])
    grid = np.geomspace(1e-3, 2.0, 9)
    checks = (phi, phi_derivatives, bregman_gap, lambda p, a: phi_fd_derivatives(p, a, 1e-3))
    want = [run_suite("all", 24, 3)] + [check(stacked, grid) for check in checks]
    monkeypatch.setattr(linalg, "_STACK_ELEMENTS", budget)
    assert run_suite("all", 24, 3) == want[0]
    for check, expected in zip(checks, want[1:]):
        np.testing.assert_equal(check(stacked, grid), expected)


@pytest.mark.parametrize("d, kinds", [(32, ["qst", "hermitian"]), (64, ["qst"])])
def test_larger_probes_run_every_check_within_the_entry_budget(monkeypatch, d, kinds):
    # the table and all six checks: each margin that of the probe checked
    # alone, no stacked call past the budget or one probe's row (the 57
    # stencil points of the moments check, the widest), and a peak under 50 MB
    sizes = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _fn=getattr(np.linalg, name), **kwargs):
            sizes.append(np.size(a))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    names = list(suites._CHECKS)
    tracemalloc.start()
    try:
        probe = random_probe([np.random.default_rng([55, i]) for i in range(len(kinds))], d, kinds)
        table = suites._Table(probe, names)
        margins = [suites._CHECKS[n][0](probe, table) for n in names]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(sizes) <= max(linalg._STACK_ELEMENTS, 57 * d * d)
    assert peak < 50e6
    assert np.all(np.array(margins) >= 0.0)
    for i, kind in enumerate(kinds):
        alone = random_probe([np.random.default_rng([55, i])], d, [kind])
        alone_table = suites._Table(alone, names)
        for n, m in zip(names, margins):
            assert suites._CHECKS[n][0](alone, alone_table)[0] == m[i], n


def test_stacked_build_matches_each_probe():
    # a mixed population of 7 built as one stack: bit for bit the stack of
    # the probes built one at a time from the same generators
    kinds = ["qst", "hermitian", "hermitian", "qst", "qst", "hermitian", "qst"]
    for d in (2, 5):
        stacked = random_probe([np.random.default_rng([49, i]) for i in range(7)], d, kinds)
        alone = [random_probe(np.random.default_rng([49, i]), d, kind) for i, kind in enumerate(kinds)]
        for i, p in enumerate(alone):
            for got, want in ((stacked.base[i].eigenvalues, p.base.eigenvalues),
                              (stacked.base[i].eigenvectors, p.base.eigenvectors),
                              (stacked.exponent[i], p.exponent), (stacked.direction[i], p.direction),
                              (stacked.delta[i], p.delta)):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        # the direction is the tomography gradient, or the Hermitian draw,
        # that LogPartitionProbe forms from the same draws
        for i, kind in ((0, "qst"), (1, "hermitian")):
            rng = np.random.default_rng([49, i])
            rho = random_density(rng, d)
            if kind == "qst":
                ens = MeasurementEnsemble([diagnostics.random_psd(rng, d) for _ in range(2 * d)])
                want = LogPartitionProbe(rho, -qst_objective(ens).gradient(rho))
            else:
                want = LogPartitionProbe(rho, random_hermitian(rng, d))
            for n in ("exponent", "direction", "delta"):
                assert np.asarray(getattr(alone[i], n)).tobytes() == np.asarray(getattr(want, n)).tobytes()
    with pytest.raises(InvalidInput):
        random_probe([np.random.default_rng(0)], 3, ["qst-ish"])


@pytest.mark.parametrize("generators, kinds", [
    (2, ["qst"]), (2, ["hermitian"]), (2, ["qst", "hermitian", "qst"]), (1, []), (0, []),
    (0, ["qst"]),
], ids=["kind-short-qst", "kind-short-hermitian", "kind-long", "no-kind", "empty",
        "no-generator"])
def test_random_probe_needs_one_kind_per_generator(generators, kinds):
    rngs = [np.random.default_rng([50, i]) for i in range(generators)]
    with pytest.raises(InvalidInput):
        random_probe(rngs, 3, kinds)


def test_random_probe_checks_its_stacks_as_the_ensemble_does(monkeypatch):
    # each qst probe's 2d operators, then the three directions, pass
    # HermitianOperator's validator as one stack each; no operator is
    # decomposed, as A^H A is PSD by construction
    seen = []
    monkeypatch.setattr(diagnostics, "_hermitian", lambda a, *rest, _f=diagnostics._hermitian:
                        seen.append(np.shape(a)) or _f(a, *rest))
    counts = TestWorkPerCheck.count_matrices(monkeypatch)
    random_probe([np.random.default_rng([51, i]) for i in range(3)], 4, ["qst", "hermitian", "qst"])
    assert seen == [(8, 4, 4), (8, 4, 4), (3, 4, 4)]
    # the base states' eigh and the directions' eigvalsh
    assert counts == Counter(calls=2, matrices=3 + 3)


def test_d64_tomography_probe_build_peak():
    # the 2d = 128 operators take 8.4 MB: a list of random_psd draws and one
    # validated stack of them, with no further copy of that size (25.5 MB)
    random_probe(np.random.default_rng(0), 8, "qst")  # warm-up
    tracemalloc.start()
    try:
        random_probe([np.random.default_rng([55, 0])], 64, ["qst"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def test_list_of_states_matches_each_state():
    states = [random_density(np.random.default_rng([48, i]), 4) for i in range(3)]
    states.append(DensityState.maximally_mixed(4))
    f = qst_objective(standard_basis_ensemble(4))
    together = fixed_point_check(states, f, (0.1, 1.0, 3.0))
    assert together.is_fixed_point.tolist() == [False, False, False, True]
    for i, s in enumerate(states):
        alone = fixed_point_check(s, f, (0.1, 1.0, 3.0))
        assert (together.is_fixed_point[i], together.max_movement[i]) == alone[:2]
        assert alone.optimality_margin == (together.optimality_margin[i] if alone.is_fixed_point else None)


def test_tuple_of_states_matches_list_and_each_state():
    # the base states of a stacked probe are a tuple
    probe = random_probe([np.random.default_rng([49, i]) for i in range(3)], 3, ["qst"] * 3)
    f = qst_objective(standard_basis_ensemble(3))
    grid = (0.1, 1.0)
    states = probe.base + (DensityState.maximally_mixed(3),)
    assert isinstance(states, tuple)
    together, listed = fixed_point_check(states, f, grid), fixed_point_check(list(states), f, grid)
    alone = [fixed_point_check(s, f, grid) for s in states]
    assert together.is_fixed_point.tolist() == [False, False, False, True]
    for field in range(3):
        np.testing.assert_array_equal(together[field], listed[field])
        np.testing.assert_array_equal(together[field], [np.nan if a[field] is None else a[field] for a in alone])


def test_third_order_memory_is_bounded_at_d32():
    # one (probe, step) pair per slab: O(d^3), not O(n d^3) (54.6 MB unslabbed)
    p = random_probe(np.random.default_rng(32), 32, "qst")
    tracemalloc.start()
    try:
        _, var, third = phi_derivatives(p, np.geomspace(1e-3, 10.0, 25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.abs(third) - p.delta * var <= 1e-10 * np.maximum(1.0, p.delta * var))
    assert peak < 8e6


def test_third_order_memory_at_d64():
    # the sorted triples: 7.7 MB, was 14.7 MB over all d^3 triples
    p = random_probe(np.random.default_rng(64), 64, "qst")
    tracemalloc.start()
    try:
        phi_derivatives(p, np.geomspace(1e-3, 10.0, 25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14.7e6


def third_derivative_reference(p, alphas):
    """phi''' with the full d^3 contraction of the third order, and the scale
    of the terms it is formed from, per step."""
    mu, u = np.linalg.eigh(p.hamiltonian_exponent(alphas))
    value, scale = [], []
    for m, v in zip(mu, u):
        m = m - m[-1]
        gt = v.conj().T @ p.direction @ v
        w = np.exp(m)
        m1 = gt.diagonal().real @ w / w.sum()
        m2 = np.sum(np.abs(gt) ** 2 * diagnostics._exp_dd1(m[:, None], m[None, :])) / w.sum()
        triples = np.broadcast_arrays(m[:, None, None], m[None, :, None], m[None, None, :])
        lo, mid, hi = np.sort(triples, axis=0)
        cycles = np.einsum("ij,jk,ki->ijk", gt, gt, gt).real
        dd2 = diagnostics._exp_dd2(lo, mid, hi, diagnostics._exp_dd1(mid, hi), diagnostics._exp_dd1(lo, mid))
        m3 = 2.0 * np.sum(dd2 * cycles) / w.sum()
        value.append(m3 - 3.0 * m2 * m1 + 2.0 * m1 ** 3)
        scale.append(abs(m3) + 3.0 * abs(m2 * m1) + 2.0 * abs(m1) ** 3)
    return np.array(value), np.array(scale)


def near_degenerate_probe(rng, d):
    # base and direction both within 1e-3 of a multiple of the identity, so
    # every triple of H_alpha's eigenvalues takes _exp_dd2's clustered branch
    s = random_hermitian(rng, d)
    base = DensityState.from_exponent(1e-3 * s / np.linalg.norm(s))
    return LogPartitionProbe(base, 1e-3 * random_hermitian(rng, d) / d + 0.4 * np.eye(d))


def commuting_probe(rng, d):
    base = DensityState.from_exponent(np.diag(rng.standard_normal(d)))
    return LogPartitionProbe(base, np.diag(rng.standard_normal(d)))


@pytest.mark.parametrize("d", [1, 2, 5, 8, 16])
def test_sorted_triples_match_full_contraction(d):
    # the third order sums i <= j <= k only, weighted 1, 3 or 6; against the
    # sum over all d^3 triples, within 1e-13 of the terms' scale
    rng = np.random.default_rng(50 + d)
    alphas = np.array([1e-3, 0.1, 0.7, 3.0])
    probes = [random_probe(rng, d, kind) for kind in ("qst", "hermitian", "hermitian")]
    probes += [near_degenerate_probe(rng, d), commuting_probe(rng, d), constant_direction_probe(d, -0.9)]
    spread = np.ptp(np.linalg.eigvalsh(probes[3].hamiltonian_exponent(alphas)), axis=-1)
    assert np.all(spread < diagnostics._DD_CLUSTER_TOL)
    for p in probes:
        want, scale = third_derivative_reference(p, alphas)
        third = phi_derivatives(p, alphas)[2]
        assert np.all(np.abs(third - want) <= 1e-13 * scale), p.delta
    i, j, k, weight = diagnostics._sorted_triples(d)
    assert np.all((i <= j) & (j <= k)) and weight.sum() == d ** 3
    assert len(set(zip(i, j, k))) == len(i) == d * (d + 1) * (d + 2) // 6


def test_second_divided_difference_of_ordered_triples():
    # exp[a, b, c] = sum over the three of e^x / prod (x - y) over the other
    # two, in 60-digit decimal arithmetic: exact enough for clustered triples
    rng = np.random.default_rng(53)
    for spread in (1e-6, 5e-3, 2e-2, 1.0, 8.0):
        t = np.sort(-spread * rng.random((100, 3)) - 3.0 * rng.random((100, 1)), axis=-1)
        want = []
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for triple in t:
                x = [decimal.Decimal(float(v)) for v in triple]
                want.append(float(sum(x[i].exp() / ((x[i] - x[j]) * (x[i] - x[k]))
                                      for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))))
        lo, mid, hi = t.T.copy()
        dd2 = diagnostics._exp_dd2(lo, mid, hi, diagnostics._exp_dd1(mid, hi), diagnostics._exp_dd1(lo, mid))
        np.testing.assert_allclose(dd2, want, rtol=1e-13)


def test_gap_from_shared_eigh_matches_phi_gap():
    # phi(alpha) from the eigh that gives phi', phi(0) from the stored
    # log-eigenvalues: within 1e-12 of phi's separate eigvalsh path
    grid = np.geomspace(1e-3, 10.0, 25)
    rng = np.random.default_rng(54)
    for d in (1, 2, 5, 8, 16):
        probes = [random_probe(rng, d, kind) for kind in ("qst", "hermitian")]
        probes += [near_degenerate_probe(rng, d), commuting_probe(rng, d), constant_direction_probe(d, 0.3)]
        for p in probes + [LogPartitionProbe.stack(probes)]:
            values = phi(p, np.append(0.0, grid))
            want = values[..., :1] - values[..., 1:] + grid * phi_derivatives(p, grid)[0]
            np.testing.assert_allclose(bregman_gap(p, grid), want, rtol=1e-12, atol=1e-12)


@pytest.fixture
def bit_probes():
    rng = np.random.default_rng(45)
    return [random_probe(rng, d, kind) for d in (2, 5, 8) for kind in ("qst", "hermitian")
            for _ in range(2)]


def test_gap_and_sandwich_bits_match_full_derivatives(bit_probes):
    # reference: phi(0) - phi(alpha) + alpha phi'(alpha), and the sandwich
    # bounds from phi'', with phi' and phi'' from the third-order path, phi(0)
    # from the base state's stored log-eigenvalues (H_0 = log rho) and
    # phi(alpha) from the eigh that gives phi'; phi's own eigvalsh path
    # agrees within round-off. The suite's sandwich margin at its steps
    # (0.1, 1, 5) is the reference's, bit for bit.
    grid = np.array([1e-3, 0.1, 0.7, 1.0, 5.0])
    for p in bit_probes:
        value = logsumexp(np.linalg.eigh(p.hamiltonian_exponent(grid))[0])
        d1, var, _ = phi_derivatives(p, grid)
        gap = logsumexp(p.base.log_eigenvalues) - value + grid * d1
        x, dd = p.delta * grid, p.delta * p.delta
        assert np.array_equal(bregman_gap(p, grid), gap)
        values = phi(p, np.append(0.0, grid))
        np.testing.assert_allclose(gap, values[0] - values[1:] + grid * d1, rtol=1e-12, atol=1e-12)
        lower, upper, at = (np.expm1(-x) + x) / dd * var, (np.expm1(x) - x) / dd * var, [1, 3, 4]
        want = np.min([gap[at] - lower[at] + 1e-9, upper[at] - gap[at] + 1e-9, lower[at] + 1e-12])
        assert suite_margins("sandwich", LogPartitionProbe.stack([p])).tolist() == [want]


@pytest.mark.parametrize("scale", [1.0, 1e6])
@pytest.mark.parametrize("d", [2, 5, 8])
def test_fixed_point_margin_is_exact_minimum(d, scale):
    # at a non-diagonal target the gradient is round-off, scaled up by scale,
    # and generically commutes neither with rho nor with any sampled sigma
    rng = np.random.default_rng(46 + d)
    target = random_density(rng, d)
    f = quadratic_objective(HermitianOperator(target.matrix), scale)
    res = fixed_point_check(target, f, (0.5, 1.0))
    assert res.is_fixed_point
    g, rho = f.gradient(target), target.matrix
    assert res.optimality_margin == np.linalg.eigvalsh(g)[0] - np.vdot(g, rho).real
    for _ in range(200):
        sigma = random_density(rng, d).matrix
        assert res.optimality_margin <= np.vdot(g, sigma - rho).real + 1e-13
    v = np.linalg.eigh(g)[1][:, 0]
    bottom = np.vdot(g, np.outer(v, v.conj()) - rho).real
    assert res.optimality_margin == pytest.approx(bottom, abs=1e-13)


def test_suite_records_do_not_depend_on_other_checks():
    # "all" shares one derivative pass between ratio and self-concordance;
    # its records are still the six single-check suites', bit for bit
    checks = ("sandwich", "ratio", "moments", "kappa", "fixed-point", "self-concordance")
    for seed, samples in [(3, 6)] + [(s, n) for s in (0, 1, 2, 7) for n in (7, 24, 100)]:
        assert run_suite("all", samples, seed) == [
            r for c in checks for r in run_suite(c, samples, seed)], (seed, samples)


_P3 = random_probe(np.random.default_rng(57), 3, "qst")


@pytest.mark.parametrize("call", [
    # a step that is not finite, where a probe function forms its exponents
    lambda: phi(_P3, np.nan),
    lambda: phi(_P3, [0.1, np.inf]),
    lambda: phi_derivatives(_P3, np.nan),
    lambda: bregman_gap(_P3, np.inf),
    lambda: bregman_gap(_P3, [0.1, np.nan]),
    lambda: phi_derivatives(_P3, [0.1, np.inf]),
    lambda: phi_fd_derivatives(_P3, np.nan, 1e-3),
    lambda: phi_fd_derivatives(_P3, [0.3, np.inf], 1e-3),
    lambda: _P3.hamiltonian_exponent(np.inf),
    lambda: phi(LogPartitionProbe.stack([_P3, _P3]), [0.1, np.nan]),
    lambda: fixed_point_check(DensityState.maximally_mixed(3), qst_objective(standard_basis_ensemble(3)),
                              (0.1, np.nan)),
    lambda: fixed_point_check(DensityState.maximally_mixed(3), qst_objective(standard_basis_ensemble(3)),
                              (np.inf,)),
    # steps that are not numbers, or a ragged grid
    lambda: phi(_P3, "x"),
    lambda: phi(_P3, [[0.1], [0.2, 0.3]]),
    lambda: phi_derivatives(_P3, [[0.1], [0.2, 0.3]]),
    lambda: bregman_gap(_P3, "x"),
    lambda: fixed_point_check(DensityState.maximally_mixed(3), qst_objective(standard_basis_ensemble(3)), "x"),
    lambda: phi_fd_derivatives(_P3, 0.3, "x"),
    # a finite-difference step that is not positive
    lambda: phi_fd_derivatives(_P3, 0.3, -1e-3),
    lambda: phi_fd_derivatives(_P3, 0.3, 0.0),
    lambda: phi_fd_derivatives(_P3, 0.3, np.nan),
    # a step no double holds
    lambda: phi(_P3, [0.1, 10 ** 400]),
])
def test_malformed_steps_raise_invalid_input(call):
    with pytest.raises(InvalidInput):
        call()


@pytest.mark.parametrize("check", [
    lambda rho, f: fixed_point_check(rho, f, (0.1,)),
    lambda rho, f: fixed_point_check([rho], f, (0.1,)),
    lambda rho, f: inner_product_check(rho, f, 0.1),
], ids=["fixed-point", "fixed-point-list", "inner-product"])
@pytest.mark.parametrize("rho, f, message", [
    (DensityState.maximally_mixed(3), qst_objective(standard_basis_ensemble(4)), "dimension 3, objective 4"),
    (ProbabilityVector.uniform(3), qst_objective(standard_basis_ensemble(3)), "ProbabilityVector start"),
    (ProbabilityVector.uniform(3), burg_objective(3), "matrix objective"),
    (DensityState.maximally_mixed(3), burg_objective(3), "matrix objective"),
], ids=["dimension", "vector-state", "vector-objective", "matrix-state-vector-objective"])
def test_state_and_objective_must_fit(check, rho, f, message):
    # the checks solve makes of its start, and a matrix objective
    with pytest.raises(InvalidInput, match=message):
        check(rho, f)


@pytest.mark.parametrize("call", [
    lambda: run_suite("all", 2.5, 0),
    lambda: run_suite("ratio", 4, 1.5),
    lambda: run_suite("ratio", 4, "1"),
    lambda: run_suite("ratio", 4, True),
    lambda: run_suite("ratio", True, 0),
    lambda: random_probe(np.random.default_rng(0), 0, "qst"),
    lambda: random_probe([np.random.default_rng(0)], 2.5, ["hermitian"]),
    lambda: random_density(np.random.default_rng(0), 0),
    lambda: LogPartitionProbe(np.eye(2) / 2, np.eye(2)),
])
def test_malformed_counts_and_bases_raise_invalid_input(call):
    with pytest.raises(InvalidInput):
        call()
