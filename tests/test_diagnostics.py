"""Tests for the log-partition diagnostics: derivative formulas, the
Bregman-gap identity, sandwich/ratio/kappa bounds, and fixed-point checks."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from expgrad import diagnostics, suites
from expgrad import (
    DensityState,
    FixedPointResult,
    HermitianOperator,
    InvalidInput,
    LogPartitionProbe,
    bregman_gap,
    chi,
    eg_step,
    fixed_point_check,
    inner_product_check,
    kappa_bound_check,
    phi,
    phi_derivatives,
    phi_fd_derivatives,
    qst_objective,
    quadratic_objective,
    quantum_relative_entropy,
    random_density,
    random_hermitian,
    random_probe,
    ratio_monotonicity_check,
    run_suite,
    sandwich_check,
    self_concordance_check,
    standard_basis_ensemble,
)


def constant_direction_probe(d, c):
    rng = np.random.default_rng(99)
    return LogPartitionProbe(random_density(rng, d), HermitianOperator(c * np.eye(d)))


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
        for _ in range(20):
            p = random_probe(rng, 4, "qst")
            for alpha in (0.1, 1.0, 5.0):
                res = sandwich_check(p, alpha)
                assert res.lower - 1e-9 <= res.gap <= res.upper + 1e-9
                assert res.lower >= -1e-12

    def test_tight_for_small_steps(self):
        # both bounds approach alpha^2 phi''/2 as alpha -> 0
        rng = np.random.default_rng(10)
        p = random_probe(rng, 3, "hermitian")
        alpha = 1e-4
        _, var, _ = phi_derivatives(p, alpha)
        leading = alpha * alpha * var / 2.0
        res = sandwich_check(p, alpha)
        assert res.lower == pytest.approx(leading, rel=1e-3)
        assert res.upper == pytest.approx(leading, rel=1e-3)
        assert res.gap == pytest.approx(leading, rel=1e-3)

    def test_degenerate_direction(self):
        res = sandwich_check(constant_direction_probe(2, 0.7), 1.0)
        assert res.degenerate is True
        assert res.lower == res.gap == res.upper == 0.0
        assert all(type(x) is float for x in res[:3])

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, [0.5, -0.5]])
    def test_rejects_nonpositive_step(self, alpha):
        # a zero-width direction too, although every quantity is an exact zero there
        for p in (constant_direction_probe(3, 1.0), random_probe(np.random.default_rng(2), 3, "hermitian")):
            with pytest.raises(InvalidInput):
                sandwich_check(p, alpha)


class TestRatioMonotonicity:
    def test_non_increasing_on_random_probes(self):
        rng = np.random.default_rng(11)
        grid = np.geomspace(1e-3, 10.0, 25)
        for _ in range(15):
            p = random_probe(rng, 3, "qst")
            res = ratio_monotonicity_check(p, grid)
            assert res.non_increasing, res.worst_violation

    def test_small_step_limit(self):
        # as alpha -> 0 the ratio tends to phi''(0) / Delta^2
        rng = np.random.default_rng(12)
        p = random_probe(rng, 4, "hermitian")
        res = ratio_monotonicity_check(p, [1e-4, 1e-3])
        _, var0, _ = phi_derivatives(p, 0.0)
        assert res.ratios[0] == pytest.approx(var0 / p.delta ** 2, rel=1e-2)

    def test_rejects_bad_grid(self):
        p = constant_direction_probe(2, 1.0)
        for grid in ([], [0.0, 1.0], [1.0, 0.5]):
            with pytest.raises(InvalidInput):
                ratio_monotonicity_check(p, grid)

    def test_degenerate_direction(self):
        res = ratio_monotonicity_check(constant_direction_probe(2, 1.0), [0.5, 1.0])
        assert res.degenerate and res.non_increasing


class TestKappaBound:
    def test_point_value(self):
        # Delta = 1, alpha_bar = 1: kappa = 1 / (2 chi(1)) = 0.5
        p = LogPartitionProbe(DensityState.maximally_mixed(2),
                              HermitianOperator(np.diag([0.0, 1.0])))
        res = kappa_bound_check(p, 1.0, [0.5, 1.0])
        assert res.kappa == pytest.approx(0.5, abs=1e-12)

    def test_holds_on_random_probes(self):
        rng = np.random.default_rng(13)
        grid = np.linspace(0.05, 1.0, 20)
        for _ in range(15):
            p = random_probe(rng, 3, "qst")
            res = kappa_bound_check(p, 1.0, grid)
            assert res.holds, res.worst_margin

    def test_kappa_alpha_bar_squared_at_most_one(self):
        # kappa abar^2 = (D abar)^2 / (2 chi(D abar)) <= 1 since chi(x) >= x^2/2
        rng = np.random.default_rng(14)
        for abar in (0.3, 1.0, 4.0):
            p = random_probe(rng, 3, "hermitian")
            res = kappa_bound_check(p, abar, [abar / 2, abar])
            assert res.kappa * abar * abar <= 1.0 + 1e-12

    def test_rejects_grid_outside_range(self):
        p = constant_direction_probe(2, 1.0)
        with pytest.raises(InvalidInput):
            kappa_bound_check(p, 1.0, [0.5, 1.5])


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
        worst = self_concordance_check(constant_direction_probe(3, 1.0), [0.5, 1.0])
        assert worst <= 1e-10

    def test_holds_on_random_probes(self):
        rng = np.random.default_rng(18)
        grid = np.geomspace(1e-3, 10.0, 25)
        for kind in ("qst", "hermitian"):
            for _ in range(10):
                p = random_probe(rng, 4, kind)
                assert self_concordance_check(p, grid) <= 1e-10


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
        res = sandwich_check(p, grid)
        assert res.degenerate
        for part in (res.lower, res.gap, res.upper):
            assert np.array_equal(part, np.zeros(3))
        ratio = ratio_monotonicity_check(p, grid)
        assert ratio.degenerate and ratio.non_increasing and ratio.worst_violation == 0.0
        assert np.array_equal(ratio.ratios, np.zeros(3))
        kappa = kappa_bound_check(p, 5.0, grid)
        assert kappa.degenerate and kappa.holds and kappa.kappa == 0.0
        assert self_concordance_check(p, grid) <= 1e-10


class TestWorkPerCheck:
    """Each check costs a fixed number of stacked decompositions per probe,
    whatever the size of its grid or of its sample population."""

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

    def per_probe(self, monkeypatch, probes, check):
        counts = self.count_decompositions(monkeypatch)
        totals = []
        for p in probes:
            counts.clear()
            check(p)
            totals.append(sum(counts.values()))
        return totals

    def test_ratio(self, monkeypatch, probes):
        grid = np.geomspace(1e-3, 10.0, 25)
        assert max(self.per_probe(monkeypatch, probes,
                                  lambda p: ratio_monotonicity_check(p, grid))) <= 2

    def test_kappa(self, monkeypatch, probes):
        grid = np.linspace(0.05, 1.0, 20)
        assert max(self.per_probe(monkeypatch, probes,
                                  lambda p: kappa_bound_check(p, 1.0, grid))) <= 2

    def test_self_concordance(self, monkeypatch, probes):
        grid = np.geomspace(1e-3, 10.0, 25)
        assert self.per_probe(monkeypatch, probes,
                              lambda p: self_concordance_check(p, grid)) == [1] * len(probes)

    def test_sandwich(self, monkeypatch, probes):
        grid = np.array([0.1, 1.0, 5.0])
        assert self.per_probe(monkeypatch, probes,
                              lambda p: sandwich_check(p, grid)) == [2] * len(probes)

    def test_fixed_point(self, monkeypatch):
        # the stacked steps' eigh, their movement's eigvalsh, and eigvalsh(g)
        cases = [(DensityState.maximally_mixed(d), qst_objective(standard_basis_ensemble(d)))
                 for d in (2, 5, 8)]
        counts = self.count_decompositions(monkeypatch)
        for rho, f in cases:
            counts.clear()
            assert fixed_point_check(rho, f, (0.1, 1.0, 3.0)).is_fixed_point
            assert sum(counts.values()) == 3

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
        grid = np.geomspace(1e-3, 1.0, 25)
        for p in probes:
            bregman_gap(p, grid)
            ratio_monotonicity_check(p, grid)
            kappa_bound_check(p, 1.0, grid)
        assert counts == Counter()

    def test_sandwich_builds_no_second_divided_difference(self, monkeypatch, probes):
        counts = self.count_divided_differences(monkeypatch)
        for p in probes:
            sandwich_check(p, np.array([0.1, 1.0, 5.0]))
        assert counts == Counter({"_exp_dd1": len(probes)})

    @pytest.mark.parametrize("name, per_dim", [
        ("sandwich", 2), ("ratio", 2), ("kappa", 2), ("self-concordance", 1),
        # phi_derivatives 1, three finite-difference stacks, the relative
        # entropy path 1, bregman_gap 2
        ("moments", 7),
        # the optimum's state, ensemble and check 1 + 1 + 3; the off-optimum
        # states 2 and their check 3
        ("fixed-point", 10),
    ])
    def test_suite_cost_does_not_grow_with_samples(self, monkeypatch, name, per_dim):
        counts = self.count_decompositions(monkeypatch)
        in_builds = Counter()

        def build(*args, _build=suites.random_probe):
            before = sum(counts.values())
            probe = _build(*args)
            in_builds["n"] += sum(counts.values()) - before
            return probe

        monkeypatch.setattr(suites, "random_probe", build)

        def cost(samples):
            counts.clear()
            in_builds.clear()
            run_suite(name, samples, 0)
            return sum(counts.values()) - in_builds["n"]

        assert cost(8) == cost(100) == 4 * per_dim


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
        "sandwich": lambda p: sandwich_check(p, grid),
        "ratio": lambda p: ratio_monotonicity_check(p, grid),
        "kappa": lambda p: kappa_bound_check(p, 2.0, grid),
        "self-concordance": lambda p: self_concordance_check(p, grid),
    }

    def entry(result, i):
        return tuple(entry(r, i) for r in result) if isinstance(result, tuple) else np.asarray(result)[i]

    for name, check in checks.items():
        together = check(stacked)
        for i, p in enumerate(probes):
            np.testing.assert_equal(entry(together, i), check(p), err_msg=name)
    assert sandwich_check(stacked, grid).degenerate.tolist() == [False, True, False, False]
    for mixed in ([], [probes[0], random_probe(rng, 2, "qst")]):
        with pytest.raises(InvalidInput):
            LogPartitionProbe.stack(mixed)

    rngs = [np.random.default_rng([47, i]) for i in range(len(probes))]
    for i, margin in enumerate(suites._CHECKS["fixed-point"](stacked, rngs)):
        assert margin == suites._CHECKS["fixed-point"](LogPartitionProbe.stack(probes[i:i + 1]),
                                                       [np.random.default_rng([47, i])])[0]
    for name in ("sandwich", "ratio", "moments", "kappa", "self-concordance"):
        margins = suites._CHECKS[name](stacked, rngs)
        alone = [suites._CHECKS[name](LogPartitionProbe.stack([p]), rngs[:1])[0] for p in probes]
        np.testing.assert_array_equal(margins, alone, err_msg=name)


def test_list_of_states_matches_each_state():
    states = random_density([np.random.default_rng([48, i]) for i in range(3)], 4)
    for i, s in enumerate(states):
        alone = random_density(np.random.default_rng([48, i]), 4)
        assert np.array_equal(s.matrix, alone.matrix) and np.array_equal(s.exponent, alone.exponent)
    states.append(DensityState.maximally_mixed(4))
    f = qst_objective(standard_basis_ensemble(4))
    together = fixed_point_check(states, f, (0.1, 1.0, 3.0))
    assert together.is_fixed_point.tolist() == [False, False, False, True]
    for i, s in enumerate(states):
        alone = fixed_point_check(s, f, (0.1, 1.0, 3.0))
        assert (together.is_fixed_point[i], together.max_movement[i]) == alone[:2]
        assert alone.optimality_margin == (together.optimality_margin[i] if alone.is_fixed_point else None)


def test_third_order_memory_is_bounded_at_d32():
    # one (probe, step) pair per slab: O(d^3), not O(n d^3) (54.6 MB unslabbed)
    p = random_probe(np.random.default_rng(32), 32, "qst")
    tracemalloc.start()
    try:
        worst = self_concordance_check(p, np.geomspace(1e-3, 10.0, 25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert worst <= 1e-10
    assert peak < 8e6


@pytest.fixture
def bit_probes():
    rng = np.random.default_rng(45)
    return [random_probe(rng, d, kind) for d in (2, 5, 8) for kind in ("qst", "hermitian")
            for _ in range(2)]


def test_gap_and_sandwich_bits_match_full_derivatives(bit_probes):
    # reference: phi(0) - phi(alpha) + alpha phi'(alpha), and the sandwich
    # bounds from phi'', with phi' and phi'' from the third-order path
    grid = np.array([1e-3, 0.1, 0.7, 1.0, 5.0])
    for p in bit_probes:
        values = phi(p, np.append(0.0, grid))
        d1, var, _ = phi_derivatives(p, grid)
        gap = values[0] - values[1:] + grid * d1
        x, dd = p.delta * grid, p.delta * p.delta
        assert np.array_equal(bregman_gap(p, grid), gap)
        res = sandwich_check(p, grid)
        assert np.array_equal(res.lower, (np.expm1(-x) + x) / dd * var)
        assert np.array_equal(res.gap, gap)
        assert np.array_equal(res.upper, (np.expm1(x) - x) / dd * var)


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
    checks = ("sandwich", "ratio", "moments", "kappa", "fixed-point", "self-concordance")
    assert run_suite("all", 6, 3) == [r for c in checks for r in run_suite(c, 6, 3)]
