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

Every function of a probe also takes an array of alpha and a stacked probe
(LogPartitionProbe.stack; results per probe), for one stacked eigvalsh or
eigh over all probes and steps, with the bits of one call per matrix. So a
call costs a fixed number of decompositions: sandwich, ratio and kappa 2,
self-concordance 1, fixed point 3 (one state or a list), each building only
the derivative orders it reads. The fixed-point margin is exact. The arrays
formed from a decomposition are built in slabs of at most _SLAB_ELEMENTS
elements or one (probe, step) pair: memory O(n d^2 + d^3) for n steps.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .entropy import quantum_relative_entropy
from .errors import InvalidInput
from .linalg import DensityState, HermitianOperator, _hermitian_part, logsumexp
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

# The third-order term of one probe on a 25-point grid at d = 8.
_SLAB_ELEMENTS = 25 * 8 ** 3


def chi(x):
    """e^x (x - 1) + 1, elementwise, evaluated as x e^x - expm1(x) to limit
    cancellation near zero (the value behaves like x^2 / 2 there)."""
    return x * np.exp(x) - np.expm1(x)


def _scalar(x):
    """A 0-d result as a Python scalar; an array unchanged."""
    return x.item() if np.ndim(x) == 0 else x


class LogPartitionProbe:
    """A base state and descent direction with the direction's spectral
    width delta; everything the log-partition diagnostics need.

    The direction is validated once, as a HermitianOperator, and stored as
    its read-only array."""

    __slots__ = ("base", "exponent", "direction", "delta")

    def __init__(self, base: DensityState, direction):
        if not isinstance(direction, HermitianOperator):
            direction = HermitianOperator(direction)
        if base.dim != direction.dim:
            raise InvalidInput("state and direction dimensions differ")
        self.base = base
        self.exponent = base.exponent
        self.direction = direction.mat
        vals = np.linalg.eigvalsh(self.direction)
        self.delta = float(vals[-1] - vals[0])

    @classmethod
    def stack(cls, probes: Sequence["LogPartitionProbe"]) -> "LogPartitionProbe":
        """Probes of one dimension as one: the base states as a tuple, the
        exponents and directions on a leading axis, delta an array."""
        if len({p.dim for p in probes}) != 1:
            raise InvalidInput("a stack needs one or more probes of one dimension")
        out = cls.__new__(cls)
        out.base = tuple(p.base for p in probes)
        out.exponent, out.direction, out.delta = (
            np.array([getattr(p, n) for p in probes]) for n in ("exponent", "direction", "delta"))
        return out

    @classmethod
    def from_objective(cls, rho: DensityState, f: ObjectiveSpec) -> "LogPartitionProbe":
        return cls(rho, -f.gradient(rho))

    @property
    def dim(self) -> int:
        return self.direction.shape[-1]

    def hamiltonian_exponent(self, alpha) -> np.ndarray:
        """H_alpha = log rho + alpha G; an array of alpha gives a stack, after
        the probe axis of a stacked probe."""
        a = np.asarray(alpha, dtype=np.float64)
        at = (Ellipsis,) + (None,) * a.ndim + (slice(None), slice(None))
        h = a[..., None, None] * self.direction[at]
        h += self.exponent[at]
        return h


def phi(probe: LogPartitionProbe, alpha):
    """Log-partition value log tr exp(log rho + alpha G); a float, or an
    array of the shape of an array alpha, from one stacked eigvalsh."""
    return logsumexp(np.linalg.eigvalsh(probe.hamiltonian_exponent(alpha)))


_DD_CLUSTER_TOL = 1e-2


# The divided differences work in place, to bound the memory of a slab, and
# take each series branch only where it applies.
def _exp_dd1(a, b):
    """First divided difference of exp, elementwise and cancellation-safe:
    e^{(a+b)/2} sinh(delta)/delta with a series branch for small delta."""
    delta = 0.5 * (a - b)
    small = np.abs(delta) < 1e-4
    safe = np.where(small, 1.0, delta)
    delta = delta[small]
    ratio = np.sinh(safe)
    ratio /= safe
    ratio[small] = 1.0 + delta * delta / 6.0
    np.add(a, b, out=safe)
    safe *= 0.5
    ratio *= np.exp(safe, out=safe)
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
    them, from one stacked eigh; skips the divided differences not read and
    forms the rest one slab of (probe, step) pairs at a time."""
    mu, u = np.linalg.eigh(probe.hamiltonian_exponent(alpha))
    shape, d = mu.shape[:-1], mu.shape[-1]
    mu = (mu - mu[..., -1:]).reshape(-1, d)  # common shift cancels in every ratio below
    u = u.reshape(-1, d, d)
    g = probe.direction.reshape(-1, d, d)
    owner = np.arange(len(mu)) // (len(mu) // len(g))  # the probe of each pair
    raw = np.empty((order, len(mu)))  # Z'/Z, Z''/Z, Z'''/Z per pair
    slab = max(1, _SLAB_ELEMENTS // d ** 3)
    for s in range(0, len(mu), slab):
        m, v, at = mu[s:s + slab], u[s:s + slab], slice(s, s + slab)
        gt = v.conj().swapaxes(-1, -2) @ g[owner[at]] @ v
        z0 = np.sum(np.exp(m), axis=-1)
        raw[0, at] = np.sum(np.diagonal(gt, axis1=-2, axis2=-1).real * np.exp(m), axis=-1) / z0
        if order >= 2:
            d1 = _exp_dd1(m[..., :, None], m[..., None, :])
            raw[1, at] = np.sum((np.abs(gt) ** 2) * d1, axis=(-2, -1)) / z0
        if order >= 3:
            raw[2, at] = 2.0 * np.sum(
                _exp_dd2(m[..., :, None, None], m[..., None, :, None], m[..., None, None, :])
                * np.einsum("...ij,...jk,...ki->...ijk", gt, gt, gt).real, axis=(-3, -2, -1)) / z0
    m1, m2, m3 = (*raw.reshape((order,) + shape), 0.0, 0.0)[:3]
    moments = (m1, m2 - m1 * m1, m3 - 3.0 * m2 * m1 + 2.0 * m1 ** 3)[:order]
    return tuple(map(_scalar, moments))


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
    return _scalar(np.reshape(values[..., :1] - values[..., 1:], np.shape(d1)) + a * d1)


def bregman_gap(probe: LogPartitionProbe, alpha):
    """D(rho(alpha), rho) through the log-partition identity
    phi(0) - phi(alpha) + alpha phi'(alpha); nonnegative (Peierls-Bogoliubov).
    An array alpha costs one eigvalsh and one first-order eigh."""
    return _gap(probe, alpha, _moments(probe, alpha, 1)[0])


class SandwichResult(NamedTuple):
    lower: float | np.ndarray
    gap: float | np.ndarray
    upper: float | np.ndarray
    degenerate: bool | np.ndarray = False


def sandwich_check(probe: LogPartitionProbe, alpha) -> SandwichResult:
    """Two-sided bound on the Bregman gap from self-concordant likeness:
    (e^{-da} + da - 1)/d^2 * phi'' <= gap <= (e^{da} - da - 1)/d^2 * phi''.

    A zero spectral width is a first-class degenerate outcome: all three
    quantities vanish in the limit and are reported as exact zeros, after
    the steps are checked.
    """
    a = np.asarray(alpha, dtype=np.float64)
    d = np.reshape(probe.delta, np.shape(probe.delta) + (1,) * a.ndim)
    flat = d == 0.0
    d1, var = _moments(probe, a, 2)
    x, dd = d * a, np.where(flat, 1.0, d * d)
    parts = ((np.expm1(-x) + x) / dd * var, _gap(probe, a, d1), (np.expm1(x) - x) / dd * var)
    return SandwichResult(*map(_scalar, np.where(flat, 0.0, parts)),
                          degenerate=_scalar(np.reshape(flat, np.shape(probe.delta))))


class RatioResult(NamedTuple):
    non_increasing: bool | np.ndarray
    worst_violation: float | np.ndarray
    ratios: np.ndarray
    degenerate: bool | np.ndarray = False


def ratio_monotonicity_check(probe: LogPartitionProbe,
                             alpha_grid: Sequence[float]) -> RatioResult:
    """Check that alpha -> D(rho(alpha), rho) / (e^{da}(da - 1) + 1) is
    non-increasing on the given ascending positive grid (zero ratios at a
    zero width)."""
    grid = np.asarray(alpha_grid, dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise InvalidInput("grid must be strictly ascending and positive")
    d = np.asarray(probe.delta)[..., None]
    gaps = bregman_gap(probe, grid)
    ratios = np.divide(gaps, chi(d * grid), out=np.zeros_like(gaps), where=d != 0.0)
    # allowed slack: next <= prev * (1 + 1e-8) + 1e-12
    excess = ratios[..., 1:] - (ratios[..., :-1] * (1.0 + 1e-8) + 1e-12)
    worst = np.max(excess, axis=-1, initial=0.0)
    return RatioResult(_scalar(worst <= 0.0), _scalar(worst), ratios, _scalar(d[..., 0] == 0.0))


class KappaResult(NamedTuple):
    holds: bool | np.ndarray
    worst_margin: float | np.ndarray
    kappa: float | np.ndarray
    degenerate: bool | np.ndarray = False
    rhs: float | np.ndarray = 0.0  # kappa * D(rho(abar), rho)


def kappa_bound_check(probe: LogPartitionProbe, alpha_bar: float,
                      alpha_grid: Sequence[float]) -> KappaResult:
    """Check D(rho(a), rho)/a^2 >= kappa * D(rho(abar), rho) on a grid in
    (0, abar], with kappa = Delta^2 / (2 [e^{D abar}(D abar - 1) + 1]); at a
    zero width, kappa and the margin are zero."""
    grid = np.asarray(alpha_grid, dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(grid > alpha_bar * (1 + 1e-12)):
        raise InvalidInput("grid must lie in (0, alpha_bar]")
    d = np.asarray(probe.delta)
    flat = d == 0.0
    kappa = np.divide(d * d, 2.0 * chi(d * alpha_bar), out=np.zeros(d.shape), where=~flat)
    gaps = bregman_gap(probe, np.append(grid, alpha_bar))
    rhs = kappa * gaps[..., -1]
    worst = np.where(flat, 0.0, np.min(gaps[..., :-1] / (grid * grid) - rhs[..., None], axis=-1))
    holds = worst >= -1e-9 * np.maximum(1.0, np.abs(rhs))
    return KappaResult(*map(_scalar, (holds, worst, kappa, flat, rhs)))


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
    is_fixed_point: bool | np.ndarray
    max_movement: float | np.ndarray
    optimality_margin: float | np.ndarray | None


def fixed_point_check(rho: DensityState | list, f: ObjectiveSpec,
                      alpha_grid: Sequence[float]) -> FixedPointResult:
    """True iff rho is (numerically) invariant under the EG update at every
    grid step (one stack); a fixed point then gets the exact margin over all
    density matrices, min <g, sigma - rho> = lambda_min(g) - <g, rho>. A list
    of states gives one array entry per state (margin nan off a fixed point)
    from the same three decompositions."""
    alphas = np.asarray(alpha_grid, dtype=np.float64)[:, None, None]
    if np.any(alphas <= 0.0):
        raise InvalidInput("step size must be positive")
    states = rho if isinstance(rho, list) else [rho]
    g = np.stack([f.gradient(s) for s in states])
    exponent, matrix = (np.stack([getattr(s, n) for s in states]) for n in ("exponent", "matrix"))
    vals, v = np.linalg.eigh(exponent[:, None] - alphas * g[:, None])  # exp(H)/tr exp(H) per step
    p = np.exp(vals - logsumexp(vals)[..., None])
    moved = _hermitian_part((v * p[..., None, :]) @ v.conj().swapaxes(-1, -2) - matrix[:, None])
    movement = np.max(np.sum(np.abs(np.linalg.eigvalsh(moved)), axis=-1), axis=-1, initial=0.0)
    fixed = movement <= 1e-10
    margin = np.linalg.eigvalsh(g)[:, 0] - [np.vdot(gs, ms).real for gs, ms in zip(g, matrix)]
    if isinstance(rho, list):
        return FixedPointResult(fixed, movement, np.where(fixed, margin, np.nan))
    return FixedPointResult(bool(fixed[0]), float(movement[0]), float(margin[0]) if fixed[0] else None)


def self_concordance_check(probe: LogPartitionProbe,
                           alpha_grid: Sequence[float]) -> float:
    """Worst normalized excess of |phi'''| over Delta * phi'' on the grid;
    nonpositive (within slack) when the self-concordant-likeness bound holds.
    """
    _, var, third = phi_derivatives(probe, np.asarray(alpha_grid, dtype=np.float64))
    bound = np.asarray(probe.delta)[..., None] * var
    return _scalar(np.max((np.abs(third) - bound) / np.maximum(1.0, bound), axis=-1, initial=-math.inf))


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    """The Hermitian part of a complex Gaussian d x d matrix."""
    return _hermitian_part(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def random_density(rng: np.random.Generator | list, d: int) -> DensityState | list:
    """exp(S)/tr exp(S) for a random Hermitian S of unit Frobenius norm (its
    Schatten 2-norm); a list of generators gives a list of states, from one
    stacked eigvalsh and one stacked eigh."""
    s = np.stack([random_hermitian(r, d) for r in (rng if isinstance(rng, list) else [rng])])
    vals = np.linalg.eigvalsh(s)
    s *= (1.0 / np.sqrt(np.sum(vals * vals, axis=-1)))[:, None, None]
    vals, v = np.linalg.eigh(s)
    v.flags.writeable = False
    states = [DensityState(w - logsumexp(w), vecs) for w, vecs in zip(vals, v)]
    return states if isinstance(rng, list) else states[0]


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
