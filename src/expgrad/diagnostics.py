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

phi, phi_derivatives and bregman_gap also take an array of alpha: one stack
of H_alpha, one stacked eigvalsh or eigh (same bits as one call per matrix).
The checks pass whole grids and build only the derivative orders they read:
per probe, sandwich, ratio and kappa cost 2 decompositions, self-concordance
1 and fixed point 3. The fixed-point margin is exact over all states sigma.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .entropy import quantum_relative_entropy
from .errors import InvalidInput
from .linalg import DensityState, HermitianOperator, _hermitian_part, logsumexp, schatten_norm
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


def chi(x):
    """e^x (x - 1) + 1, elementwise, evaluated as x e^x - expm1(x) to limit
    cancellation near zero (the value behaves like x^2 / 2 there)."""
    return x * np.exp(x) - np.expm1(x)


class LogPartitionProbe:
    """A base state and descent direction with the direction's spectral
    width delta; everything the log-partition diagnostics need.

    The direction is validated once, as a HermitianOperator, and stored as
    its read-only array."""

    __slots__ = ("base", "direction", "delta")

    def __init__(self, base: DensityState, direction):
        if not isinstance(direction, HermitianOperator):
            direction = HermitianOperator(direction)
        if base.dim != direction.dim:
            raise InvalidInput("state and direction dimensions differ")
        self.base = base
        self.direction = direction.mat
        vals = np.linalg.eigvalsh(self.direction)
        self.delta = float(vals[-1] - vals[0])

    @classmethod
    def from_objective(cls, rho: DensityState, f: ObjectiveSpec) -> "LogPartitionProbe":
        return cls(rho, -f.gradient(rho))

    @property
    def dim(self) -> int:
        return self.base.dim

    def hamiltonian_exponent(self, alpha) -> np.ndarray:
        """H_alpha = log rho + alpha G; an array of alpha gives a stack."""
        a = np.asarray(alpha, dtype=np.float64)[..., None, None]
        return self.base.exponent + a * self.direction


def phi(probe: LogPartitionProbe, alpha):
    """Log-partition value log tr exp(log rho + alpha G); a float, or an
    array of the shape of an array alpha, from one stacked eigvalsh."""
    return logsumexp(np.linalg.eigvalsh(probe.hamiltonian_exponent(alpha)))


_DD_CLUSTER_TOL = 1e-2


# On a grid of n steps the divided differences fill (n, d, d, d) arrays; they
# work in place and take each series branch only where it applies.
def _exp_dd1(a, b):
    """First divided difference of exp, elementwise and cancellation-safe:
    e^{(a+b)/2} sinh(delta)/delta with a series branch for small delta."""
    delta = 0.5 * (a - b)
    small = np.abs(delta) < 1e-4
    safe = np.where(small, 1.0, delta)
    ratio = np.sinh(safe)
    ratio /= safe
    delta = delta[small]
    ratio[small] = 1.0 + delta * delta / 6.0
    ratio *= np.exp(0.5 * (a + b))
    return ratio


def _exp_dd2(a, b, c):
    """Second divided difference of exp, elementwise.

    For well-separated triples, one recurrence step through the extreme pair;
    for clustered triples, a centered Taylor expansion (error O(spread^5)).
    """
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    mid = a + b + c - lo - hi
    out = _exp_dd1(mid, hi)
    out -= _exp_dd1(lo, mid)
    spread = np.subtract(hi, lo, out=hi)
    clustered = spread < _DD_CLUSTER_TOL
    spread[clustered] = 1.0
    out /= spread
    a, b, c = (np.broadcast_to(v, out.shape)[clustered] for v in (a, b, c))
    m = (a + b + c) / 3.0
    x, y, z = a - m, b - m, c - m
    p2 = x * x + y * y + z * z
    out[clustered] = np.exp(m) * (0.5 + p2 / 48.0 + x * y * z / 120.0 + p2 * p2 / 2880.0)
    return out


def _moments(probe: LogPartitionProbe, alpha, order: int):
    """The first ``order`` of (phi', phi'', phi''') as phi_derivatives computes
    them, from one stacked eigh; skips the divided differences not read."""
    mu, u = np.linalg.eigh(probe.hamiltonian_exponent(alpha))
    mu = mu - mu[..., -1:]  # common shift cancels in every ratio below
    gt = u.conj().swapaxes(-1, -2) @ probe.direction @ u
    z0 = np.sum(np.exp(mu), axis=-1)
    m1 = np.sum(np.diagonal(gt, axis1=-2, axis2=-1).real * np.exp(mu), axis=-1) / z0
    moments = [m1]
    if order >= 2:
        d1 = _exp_dd1(mu[..., :, None], mu[..., None, :])
        m2 = np.sum((np.abs(gt) ** 2) * d1, axis=(-2, -1)) / z0
        moments.append(m2 - m1 * m1)
    if order >= 3:
        d2 = _exp_dd2(mu[..., :, None, None], mu[..., None, :, None], mu[..., None, None, :])
        triple = np.einsum("...ij,...jk,...ki->...ijk", gt, gt, gt).real
        m3 = 2.0 * np.sum(triple * d2, axis=(-3, -2, -1)) / z0
        moments.append(m3 - 3.0 * m2 * m1 + 2.0 * m1 ** 3)
    return tuple(map(float, moments)) if mu.ndim == 1 else tuple(moments)


def phi_derivatives(probe: LogPartitionProbe, alpha):
    """First three derivatives of phi, exactly, through the spectral calculus
    of the partition trace Z(alpha) = tr exp(H_alpha).

    In the eigenbasis of H_alpha (eigenvalues mu, direction entries Gt):
    Z' = sum_i Gt_ii e^{mu_i}, Z'' = sum_ij |Gt_ij|^2 exp[mu_i, mu_j], and
    Z''' = 2 sum_ijk Gt_ij Gt_jk Gt_ki exp[mu_i, mu_j, mu_k], with exp[...]
    divided differences of the exponential. When the state and direction
    commute these reduce to the central moments of eta_alpha (mean, variance,
    third moment); off the commuting case the moment formulas acquire a
    Duhamel correction that this path accounts for. An array alpha gives
    three arrays, from one stacked eigh.
    """
    return _moments(probe, alpha, 3)


def _gap(probe: LogPartitionProbe, alpha, d1):
    """phi(0) - phi(alpha) + alpha phi'(alpha) at positive steps, given phi'."""
    a = np.asarray(alpha, dtype=np.float64)
    if np.any(a <= 0.0):
        raise InvalidInput("step size must be positive")
    values = phi(probe, np.append(0.0, a))
    gap = values[0] - values[1:].reshape(a.shape) + a * d1
    return float(gap) if gap.ndim == 0 else gap


def bregman_gap(probe: LogPartitionProbe, alpha):
    """D(rho(alpha), rho) through the log-partition identity
    phi(0) - phi(alpha) + alpha phi'(alpha); nonnegative (Peierls-Bogoliubov).
    An array alpha costs one eigvalsh and one first-order eigh."""
    return _gap(probe, alpha, _moments(probe, alpha, 1)[0])


class SandwichResult(NamedTuple):
    lower: float | np.ndarray
    gap: float | np.ndarray
    upper: float | np.ndarray
    degenerate: bool = False


def sandwich_check(probe: LogPartitionProbe, alpha) -> SandwichResult:
    """Two-sided bound on the Bregman gap from self-concordant likeness:
    (e^{-da} + da - 1)/d^2 * phi'' <= gap <= (e^{da} - da - 1)/d^2 * phi''.

    A zero spectral width is a first-class degenerate outcome: all three
    quantities vanish in the limit and are reported as exact zeros.
    """
    d = probe.delta
    x = d * np.asarray(alpha, dtype=np.float64)
    if d == 0.0:
        return SandwichResult(x, x, x, degenerate=True)
    d1, var = _moments(probe, alpha, 2)
    lower = (np.expm1(-x) + x) / (d * d) * var
    upper = (np.expm1(x) - x) / (d * d) * var
    return SandwichResult(lower, _gap(probe, alpha, d1), upper)


class RatioResult(NamedTuple):
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
    ratios = bregman_gap(probe, grid) / chi(probe.delta * grid)
    # allowed slack: next <= prev * (1 + 1e-8) + 1e-12
    excess = ratios[1:] - (ratios[:-1] * (1.0 + 1e-8) + 1e-12)
    worst = float(np.max(excess)) if excess.size else 0.0
    return RatioResult(bool(worst <= 0.0), max(worst, 0.0), ratios)


class KappaResult(NamedTuple):
    holds: bool
    worst_margin: float
    kappa: float
    degenerate: bool = False
    rhs: float = 0.0  # kappa * D(rho(abar), rho)


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
    gaps = bregman_gap(probe, np.append(grid, alpha_bar))
    rhs = kappa * gaps[-1]
    worst = float(np.min(gaps[:-1] / (grid * grid) - rhs))
    return KappaResult(bool(worst >= -1e-9 * max(1.0, abs(rhs))), worst, kappa, rhs=float(rhs))


def inner_product_check(rho: DensityState, f: ObjectiveSpec, alpha: float) -> float:
    """Margin of <grad f(rho), rho(alpha) - rho> <= -D(rho(alpha), rho)/alpha;
    nonnegative (up to round-off) by the mirror-descent subproblem optimality.
    """
    g = f.gradient(rho)
    nxt = eg_step(rho, g, alpha)
    div = quantum_relative_entropy(nxt, rho)
    inner = float(np.vdot(g, _hermitian_part(nxt.matrix - rho.matrix)).real)
    return -div / alpha - inner


class FixedPointResult(NamedTuple):
    is_fixed_point: bool
    max_movement: float
    optimality_margin: float | None


def fixed_point_check(rho: DensityState, f: ObjectiveSpec,
                      alpha_grid: Sequence[float]) -> FixedPointResult:
    """True iff rho is (numerically) invariant under the EG update at every
    grid step (one stack); a fixed point then gets the exact margin over all
    density matrices, min <g, sigma - rho> = lambda_min(g) - <g, rho>."""
    alphas = np.asarray(alpha_grid, dtype=np.float64)[:, None, None]
    if np.any(alphas <= 0.0):
        raise InvalidInput("step size must be positive")
    g = f.gradient(rho)
    vals, v = np.linalg.eigh(rho.exponent - alphas * g)  # exp(H)/tr exp(H) per step
    p = np.exp(vals - logsumexp(vals)[..., None])
    moved = _hermitian_part((v * p[..., None, :]) @ v.conj().swapaxes(-1, -2) - rho.matrix)
    movement = float(np.max(np.sum(np.abs(np.linalg.eigvalsh(moved)), axis=-1), initial=0.0))
    if movement > 1e-10:
        return FixedPointResult(False, movement, None)
    margin = np.linalg.eigvalsh(g)[0] - np.vdot(g, rho.matrix).real
    return FixedPointResult(True, movement, float(margin))


def self_concordance_check(probe: LogPartitionProbe,
                           alpha_grid: Sequence[float]) -> float:
    """Worst normalized excess of |phi'''| over Delta * phi'' on the grid;
    nonpositive (within slack) when the self-concordant-likeness bound holds.
    """
    _, var, third = phi_derivatives(probe, np.asarray(alpha_grid, dtype=np.float64))
    bound = probe.delta * var
    return float(np.max((np.abs(third) - bound) / np.maximum(1.0, bound), initial=-math.inf))


def random_hermitian(rng: np.random.Generator, d: int,
                     unit_frobenius: bool = False) -> np.ndarray:
    """The Hermitian part of a complex Gaussian d x d matrix, optionally
    scaled to unit Frobenius norm."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = _hermitian_part(a)
    if unit_frobenius:
        h = h * (1.0 / schatten_norm(h, 2))
    return h


def random_density(rng: np.random.Generator, d: int) -> DensityState:
    """exp(S)/tr exp(S) for a random Hermitian S of unit Frobenius norm."""
    return DensityState.from_exponent(random_hermitian(rng, d, unit_frobenius=True))


def random_psd(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a.conj().T @ a


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
