"""Numerical certification of the analytical machinery behind the solver:
log-partition probes, moment-based derivatives, the Bregman-gap identity,
sandwich bounds from self-concordant likeness, ratio monotonicity, the
kappa step-size bound, and fixed-point/optimality checks.

A probe pairs a strictly positive state rho with the descent direction
G = -grad f(rho). The log-partition function is
phi(alpha) = log tr exp(log rho + alpha G); its derivatives are moments of a
random variable eta_alpha supported on the (grouped) eigenvalues of G with
Gibbs weights tr(P_j exp(H_alpha)) / tr exp(H_alpha). rho and G are not
assumed to commute: H_alpha is formed as a matrix sum and decomposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .entropy import quantum_relative_entropy
from .errors import InvalidInput
from .linalg import (
    DensityState,
    HermitianOperator,
    group_eigenvalues,
    logsumexp,
    schatten_norm,
    spectral_decompose,
    trace_inner_product,
)
from .objectives import ObjectiveSpec
from .solver import eg_step

__all__ = [
    "LogPartitionProbe",
    "phi",
    "phi_derivatives",
    "bregman_gap",
    "SandwichResult",
    "sandwich_check",
    "RatioResult",
    "ratio_monotonicity_check",
    "KappaResult",
    "kappa_bound_check",
    "inner_product_check",
    "FixedPointResult",
    "fixed_point_check",
    "self_concordance_check",
    "chi",
    "random_hermitian",
    "random_density",
    "random_probe",
]


def chi(x: float) -> float:
    """e^x (x - 1) + 1, evaluated as x e^x - expm1(x) to limit cancellation
    near zero (the value behaves like x^2 / 2 there)."""
    return float(x * math.exp(x) - math.expm1(x))


class LogPartitionProbe:
    """A base state and descent direction with the direction's grouped
    spectrum; everything the log-partition diagnostics need."""

    __slots__ = ("base", "direction", "group_values", "group_slices",
                 "dir_eigenvectors", "delta")

    def __init__(self, base: DensityState, direction: HermitianOperator):
        if base.dim != direction.dim:
            raise InvalidInput("state and direction dimensions differ")
        self.base = base
        self.direction = direction
        dec = spectral_decompose(direction)
        self.dir_eigenvectors = dec.eigenvectors
        self.group_slices = group_eigenvalues(dec.eigenvalues)
        self.group_values = np.array(
            [float(np.mean(dec.eigenvalues[s])) for s in self.group_slices])
        self.delta = float(dec.eigenvalues[-1] - dec.eigenvalues[0])

    @classmethod
    def from_objective(cls, rho: DensityState, f: ObjectiveSpec) -> "LogPartitionProbe":
        return cls(rho, -f.gradient(rho))

    @property
    def dim(self) -> int:
        return self.base.dim

    def hamiltonian_exponent(self, alpha: float) -> np.ndarray:
        return self.base.exponent.mat + alpha * self.direction.mat

    def weights(self, alpha: float) -> np.ndarray:
        """Gibbs weights P(eta_alpha = lambda_j) over the grouped spectrum."""
        mu, u = np.linalg.eigh(self.hamiltonian_exponent(alpha))
        q = np.exp(mu - mu[-1])
        overlap = np.abs(self.dir_eigenvectors.conj().T @ u) ** 2  # rows: dir basis
        per_vector = overlap @ q
        w = np.array([float(np.sum(per_vector[s])) for s in self.group_slices])
        return w / float(np.sum(q))


def phi(probe: LogPartitionProbe, alpha: float) -> float:
    """Log-partition value log tr exp(log rho + alpha G)."""
    return logsumexp(np.linalg.eigvalsh(probe.hamiltonian_exponent(alpha)))


_DD_CLUSTER_TOL = 1e-2


def _exp_dd1(a, b):
    """First divided difference of exp, elementwise and cancellation-safe:
    e^{(a+b)/2} sinh(delta)/delta with a series branch for small delta."""
    m = 0.5 * (a + b)
    delta = 0.5 * (a - b)
    small = np.abs(delta) < 1e-4
    safe = np.where(small, 1.0, delta)
    ratio = np.where(small, 1.0 + delta * delta / 6.0, np.sinh(safe) / safe)
    return np.exp(m) * ratio


def _exp_dd2(a, b, c):
    """Second divided difference of exp, elementwise.

    For well-separated triples, one recurrence step through the extreme pair;
    for clustered triples, a centered Taylor expansion (error O(spread^5)).
    """
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    mid = a + b + c - lo - hi
    spread = hi - lo
    clustered = spread < _DD_CLUSTER_TOL
    safe_spread = np.where(clustered, 1.0, spread)
    split = (_exp_dd1(mid, hi) - _exp_dd1(lo, mid)) / safe_spread
    m = (a + b + c) / 3.0
    x, y, z = a - m, b - m, c - m
    p2 = x * x + y * y + z * z
    taylor = np.exp(m) * (0.5 + p2 / 48.0 + x * y * z / 120.0 + p2 * p2 / 2880.0)
    return np.where(clustered, taylor, split)


def phi_derivatives(probe: LogPartitionProbe, alpha: float) -> tuple[float, float, float]:
    """First three derivatives of phi, exactly, through the spectral calculus
    of the partition trace Z(alpha) = tr exp(H_alpha).

    In the eigenbasis of H_alpha (eigenvalues mu, direction entries Gt):
    Z' = sum_i Gt_ii e^{mu_i}, Z'' = sum_ij |Gt_ij|^2 exp[mu_i, mu_j], and
    Z''' = 2 sum_ijk Gt_ij Gt_jk Gt_ki exp[mu_i, mu_j, mu_k], with exp[...]
    divided differences of the exponential. When the state and direction
    commute these reduce to the central moments of eta_alpha (mean, variance,
    third moment); off the commuting case the moment formulas acquire a
    Duhamel correction that this path accounts for.
    """
    mu, u = np.linalg.eigh(probe.hamiltonian_exponent(alpha))
    mu = mu - mu[-1]  # common shift cancels in every ratio below
    gt = u.conj().T @ probe.direction.mat @ u
    z0 = float(np.sum(np.exp(mu)))
    z1 = float(np.sum(np.diag(gt).real * np.exp(mu)))
    d1 = _exp_dd1(mu[:, None], mu[None, :])
    z2 = float(np.sum((np.abs(gt) ** 2) * d1))
    d2 = _exp_dd2(mu[:, None, None], mu[None, :, None], mu[None, None, :])
    triple = np.einsum("ij,jk,ki->ijk", gt, gt, gt).real
    z3 = 2.0 * float(np.sum(triple * d2))
    m1 = z1 / z0
    m2 = z2 / z0
    m3 = z3 / z0
    return m1, m2 - m1 * m1, m3 - 3.0 * m2 * m1 + 2.0 * m1 ** 3


def bregman_gap(probe: LogPartitionProbe, alpha: float) -> float:
    """D(rho(alpha), rho) through the log-partition identity
    phi(0) - phi(alpha) + alpha phi'(alpha); nonnegative (Peierls-Bogoliubov).
    """
    if alpha <= 0.0:
        raise InvalidInput("step size must be positive")
    d1, _, _ = phi_derivatives(probe, alpha)
    return phi(probe, 0.0) - phi(probe, alpha) + alpha * d1


@dataclass(frozen=True)
class SandwichResult:
    lower: float
    gap: float
    upper: float
    degenerate: bool = False


def sandwich_check(probe: LogPartitionProbe, alpha: float) -> SandwichResult:
    """Two-sided bound on the Bregman gap from self-concordant likeness:
    (e^{-da} + da - 1)/d^2 * phi'' <= gap <= (e^{da} - da - 1)/d^2 * phi''.

    A zero spectral width is a first-class degenerate outcome: all three
    quantities vanish in the limit and are reported as exact zeros.
    """
    d = probe.delta
    if d == 0.0:
        return SandwichResult(0.0, 0.0, 0.0, degenerate=True)
    x = d * alpha
    _, var, _ = phi_derivatives(probe, alpha)
    lower = (math.expm1(-x) + x) / (d * d) * var
    upper = (math.expm1(x) - x) / (d * d) * var
    return SandwichResult(lower, bregman_gap(probe, alpha), upper)


@dataclass(frozen=True)
class RatioResult:
    non_increasing: bool
    worst_violation: float
    ratios: np.ndarray
    degenerate: bool = False


def ratio_monotonicity_check(probe: LogPartitionProbe,
                             alpha_grid: Sequence[float]) -> RatioResult:
    """Check that alpha -> D(rho(alpha), rho) / (e^{da}(da - 1) + 1) is
    non-increasing on the given ascending positive grid."""
    grid = np.asarray(alpha_grid, dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise InvalidInput("grid must be strictly ascending and positive")
    if probe.delta == 0.0:
        return RatioResult(True, 0.0, np.zeros(grid.size), degenerate=True)
    ratios = np.array([bregman_gap(probe, a) / chi(probe.delta * a) for a in grid])
    # allowed slack: next <= prev * (1 + 1e-8) + 1e-12
    excess = ratios[1:] - (ratios[:-1] * (1.0 + 1e-8) + 1e-12)
    worst = float(np.max(excess)) if excess.size else 0.0
    return RatioResult(bool(worst <= 0.0), max(worst, 0.0), ratios)


@dataclass(frozen=True)
class KappaResult:
    holds: bool
    worst_margin: float
    kappa: float
    degenerate: bool = False


def kappa_bound_check(probe: LogPartitionProbe, alpha_bar: float,
                      alpha_grid: Sequence[float]) -> KappaResult:
    """Check D(rho(a), rho)/a^2 >= kappa * D(rho(abar), rho) on a grid in
    (0, abar], with kappa = Delta^2 / (2 [e^{D abar}(D abar - 1) + 1])."""
    grid = np.asarray(alpha_grid, dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(grid > alpha_bar * (1 + 1e-12)):
        raise InvalidInput("grid must lie in (0, alpha_bar]")
    d = probe.delta
    if d == 0.0:
        return KappaResult(True, 0.0, 0.0, degenerate=True)
    kappa = d * d / (2.0 * chi(d * alpha_bar))
    rhs = kappa * bregman_gap(probe, alpha_bar)
    margins = np.array([bregman_gap(probe, a) / (a * a) - rhs for a in grid])
    worst = float(np.min(margins))
    return KappaResult(bool(worst >= -1e-9 * max(1.0, abs(rhs))), worst, kappa)


def inner_product_check(rho: DensityState, f: ObjectiveSpec, alpha: float) -> float:
    """Margin of <grad f(rho), rho(alpha) - rho> <= -D(rho(alpha), rho)/alpha;
    nonnegative (up to round-off) by the mirror-descent subproblem optimality.
    """
    g = f.gradient(rho)
    nxt = eg_step(rho, g, alpha)
    div = quantum_relative_entropy(nxt, rho)
    inner = trace_inner_product(g, HermitianOperator(nxt.matrix - rho.matrix))
    return -div / alpha - inner


@dataclass(frozen=True)
class FixedPointResult:
    is_fixed_point: bool
    max_movement: float
    optimality_margin: float | None


def fixed_point_check(rho: DensityState, f: ObjectiveSpec,
                      alpha_grid: Sequence[float],
                      rng: np.random.Generator | None = None,
                      samples: int = 100) -> FixedPointResult:
    """True iff rho is (numerically) invariant under the EG update at every
    grid step; a fixed point is then cross-checked for first-order optimality
    <grad f(rho), sigma - rho> >= 0 over sampled feasible sigma."""
    g = f.gradient(rho)
    movement = 0.0
    for alpha in alpha_grid:
        nxt = eg_step(rho, g, alpha)
        movement = max(movement, schatten_norm(
            HermitianOperator(nxt.matrix - rho.matrix), 1))
    if movement > 1e-10:
        return FixedPointResult(False, movement, None)
    rng = rng if rng is not None else np.random.default_rng(0)
    margin = math.inf
    for _ in range(samples):
        sigma = random_density(rng, rho.dim)
        margin = min(margin, trace_inner_product(
            g, HermitianOperator(sigma.matrix - rho.matrix)))
    return FixedPointResult(True, movement, margin)


def self_concordance_check(probe: LogPartitionProbe,
                           alpha_grid: Sequence[float]) -> float:
    """Worst normalized excess of |phi'''| over Delta * phi'' on the grid;
    nonpositive (within slack) when the self-concordant-likeness bound holds.
    """
    worst = -math.inf
    for alpha in alpha_grid:
        _, var, third = phi_derivatives(probe, alpha)
        bound = probe.delta * var
        worst = max(worst, (abs(third) - bound) / max(1.0, bound))
    return worst


def random_hermitian(rng: np.random.Generator, d: int,
                     unit_frobenius: bool = False) -> HermitianOperator:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = HermitianOperator(a)
    if unit_frobenius:
        h = h * (1.0 / schatten_norm(h, 2))
    return h


def random_density(rng: np.random.Generator, d: int) -> DensityState:
    """exp(S)/tr exp(S) for a random Hermitian S of unit Frobenius norm."""
    return DensityState.from_exponent(random_hermitian(rng, d, unit_frobenius=True))


def random_psd(rng: np.random.Generator, d: int) -> HermitianOperator:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOperator(a.conj().T @ a)


def random_probe(rng: np.random.Generator, d: int,
                 direction_kind: str = "qst") -> LogPartitionProbe:
    """Seeded probe with a random base state; the direction is either a
    tomography gradient (generically non-commuting with the base) or a plain
    random Hermitian. Both populations exercise the moment formulas."""
    from .objectives import MeasurementEnsemble, qst_objective

    rho = random_density(rng, d)
    if direction_kind == "qst":
        ens = MeasurementEnsemble([random_psd(rng, d) for _ in range(2 * d)])
        return LogPartitionProbe.from_objective(rho, qst_objective(ens))
    if direction_kind == "hermitian":
        return LogPartitionProbe(rho, random_hermitian(rng, d))
    raise InvalidInput(f"unknown direction kind {direction_kind!r}")
