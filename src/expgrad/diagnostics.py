"""Numerical certification of the analysis behind the solver.

A probe pairs a strictly positive state rho with a Hermitian direction G,
commuting with rho or not. This module holds its log-partition function
phi(alpha) = log tr exp(log rho + alpha G), the exact derivatives of phi, the
Bregman gap, the checks of the EG update itself (fixed point, inner product)
and the seeded probes; the checks on phi's derivatives are in suites.

Every function of a probe takes a step or a 1-D array of steps, and a probe
or a stack of probes (LogPartitionProbe.stack), whose results then gain a
leading probe axis, each entry the bits of that probe alone. A step that is
not a number, or not finite where an exponent is formed, raises InvalidInput.
No stack that a check forms for eigh or eigvalsh takes more than
linalg._STACK_ELEMENTS matrix entries, or one probe's row of steps, and no
array formed from a decomposition more than _SLAB_ELEMENTS elements, or one
(probe, step) pair's. A probe build decomposes its base states and its
directions as the whole stacks they already are.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .entropy import quantum_relative_entropy
from .errors import InvalidInput
from .linalg import (DensityState, _array, _chunks, _count, _hermitian, _hermitian_part, _joined, logsumexp)
from .objectives import MeasurementEnsemble, ObjectiveSpec, qst_objective
from .solver import _check_fit, eg_step


# The third-order term (sorted triples) of one probe on a 25-point grid at d = 8.
_SLAB_ELEMENTS = 25 * 120

# Step sizes from the caller, as one float array (finite where an exponent is formed).
_steps = functools.partial(_array, dtype=np.float64, copy=None, what="step sizes")


def chi(x):
    """e^x (x - 1) + 1, elementwise, evaluated as x e^x - expm1(x) to limit
    cancellation near zero (the value behaves like x^2 / 2 there)."""
    return x * np.exp(x) - np.expm1(x)


def _scalar(x):
    """A 0-d result as a Python scalar; an array unchanged."""
    return x.item() if np.ndim(x) == 0 else x


class LogPartitionProbe:
    """A base state and a descent direction, validated as HermitianOperator
    validates it and stored as a read-only array, with the direction's
    spectral width delta: everything the log-partition diagnostics need."""

    __slots__ = ("base", "exponent", "direction", "delta")

    def __init__(self, base: DensityState, direction):
        if not isinstance(base, DensityState):
            raise InvalidInput(f"a probe's base must be a DensityState, got {type(base).__name__}")
        self.direction = _hermitian(direction)
        if base.dim != self.dim:
            raise InvalidInput("state and direction dimensions differ")
        self.base = base
        self.exponent = base.exponent
        vals = np.linalg.eigvalsh(self.direction)
        self.delta = float(vals[-1] - vals[0])

    @classmethod
    def stack(cls, probes: Sequence["LogPartitionProbe"]) -> "LogPartitionProbe":
        """Probes of one dimension as one: the base states as a tuple, the
        exponents and directions on a leading axis, delta an array."""
        if len({p.dim for p in probes}) != 1:
            raise InvalidInput("a stack needs one or more probes of one dimension")
        return cls._of(tuple(p.base for p in probes), *(
            np.array([getattr(p, n) for p in probes]) for n in ("exponent", "direction", "delta")))

    @classmethod
    def _of(cls, base, exponent, direction, delta) -> "LogPartitionProbe":
        """A probe from its parts, unchecked."""
        out = cls.__new__(cls)
        out.base, out.exponent, out.direction, out.delta = base, exponent, direction, delta
        return out

    def _parts(self, steps: int) -> list:
        """(slice, probe) pairs that cover the probe, each of whose H_alpha at
        `steps` steps holds at most linalg._STACK_ELEMENTS entries, or one
        probe's; a single probe whole."""
        if np.ndim(self.delta) == 0:
            return [(slice(None), self)]
        return [(at, self._of(self.base[at], self.exponent[at], self.direction[at], self.delta[at]))
                for at in _chunks(len(self.delta), steps * self.dim ** 2)]

    @property
    def dim(self) -> int:
        return self.direction.shape[-1]

    def hamiltonian_exponent(self, alpha) -> np.ndarray:
        """H_alpha = log rho + alpha G; an array of alpha gives a stack, after
        the probe axis of a stacked probe. A step that is not finite raises
        InvalidInput: every function of a probe forms its exponents here."""
        a = _steps(alpha)
        if not np.isfinite(a).all():
            raise InvalidInput("step sizes must be finite")
        at = (Ellipsis,) + (None,) * a.ndim + (slice(None), slice(None))
        h = a[..., None, None] * self.direction[at]
        h += self.exponent[at]
        return h


def phi(probe: LogPartitionProbe, alpha):
    """Log-partition value log tr exp(log rho + alpha G); a float, or an
    array of the shape of an array alpha."""
    a = _steps(alpha)
    return _joined([logsumexp(np.linalg.eigvalsh(p.hamiltonian_exponent(a))) for _, p in probe._parts(a.size)])


_DD_CLUSTER_TOL = 1e-2


def _exp_dd1(a, b):
    """First divided difference of exp, elementwise and cancellation-safe:
    e^{(a+b)/2} sinh(delta)/delta with a series branch for small delta."""
    delta = 0.5 * (a - b)
    small = np.abs(delta) < 1e-4
    safe = np.where(small, 1.0, delta)
    return np.exp(0.5 * (a + b)) * np.where(small, 1.0 + delta * delta / 6.0, np.sinh(safe) / safe)


def _exp_dd2(lo, mid, hi, upper, lower):
    """Second divided difference of exp, elementwise, for ordered triples
    lo <= mid <= hi (the divided difference is symmetric in its arguments),
    given the first ones upper = _exp_dd1(mid, hi) and lower = _exp_dd1(lo, mid).

    For well-separated triples, one recurrence step through the extreme pair;
    for clustered triples, a centered Taylor expansion (error O(spread^5)).
    """
    spread = hi - lo
    clustered = spread < _DD_CLUSTER_TOL
    spread[clustered] = 1.0
    out = (upper - lower) / spread
    a, b, c = lo[clustered], mid[clustered], hi[clustered]
    m = (a + b + c) / 3.0
    x, y, z = a - m, b - m, c - m
    p2 = x * x + y * y + z * z
    out[clustered] = np.exp(m) * (0.5 + p2 / 48.0 + x * y * z / 120.0 + p2 * p2 / 2880.0)
    return out


@functools.lru_cache(maxsize=8)  # built once per dimension, however many chunks read it
def _sorted_triples(d: int):
    """The index triples i <= j <= k below d, each with its multiplicity among
    all d^3 triples (1, 3 or 6); built in O(d^3 / 6) memory, read-only."""
    j, k = np.triu_indices(d)
    n = j + 1  # i = 0, ..., j for each pair j <= k
    i = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    j, k = np.repeat(j, n), np.repeat(k, n)
    weight = np.where(i == k, 1.0, np.where((i == j) | (j == k), 3.0, 6.0))
    for a in (i, j, k, weight):
        a.flags.writeable = False
    return i, j, k, weight


def _moments(probe: LogPartitionProbe, alpha, order: int, eig=None):
    """(phi, phi', ...) up to the derivative of order ``order`` (1 to 3) at
    the steps alpha, with the bits of phi and phi_derivatives. ``eig`` is
    numpy.linalg.eigh of the probe's exponents at alpha, when the caller has
    it. The third order sums the triples i <= j <= k of eigh's ascending
    eigenvalues, each weighted by its multiplicity: both of its factors are
    symmetric in (i, j, k)."""
    if eig is None:
        a = _steps(alpha)
        return _joined([_moments(p, a, order, np.linalg.eigh(p.hamiltonian_exponent(a)))
                        for _, p in probe._parts(a.size)])
    mu, u = eig
    shape, d = mu.shape[:-1], mu.shape[-1]
    value = logsumexp(mu)
    mu = (mu - mu[..., -1:]).reshape(-1, d)  # common shift cancels in every ratio below
    u = u.reshape(-1, d, d)
    g = probe.direction.reshape(-1, d, d)
    owner = np.arange(len(mu)) // (len(mu) // len(g))  # the probe of each pair
    raw = np.empty((order, len(mu)))  # Z'/Z, Z''/Z, Z'''/Z per pair
    if order >= 3:
        i, j, k, weight = _sorted_triples(d)
    slab = max(1, _SLAB_ELEMENTS // (len(i) if order >= 3 else d * d))  # by a pair's largest array
    for s in range(0, len(mu), slab):
        m, v, at = mu[s:s + slab], u[s:s + slab], slice(s, s + slab)
        gt = v.conj().swapaxes(-1, -2) @ g[owner[at]] @ v
        w = np.exp(m)
        z0 = w.sum(axis=-1)
        raw[0, at] = np.sum(np.diagonal(gt, axis1=-2, axis2=-1).real * w, axis=-1) / z0
        if order >= 2:
            d1 = _exp_dd1(m[..., :, None], m[..., None, :])
            raw[1, at] = np.sum((np.abs(gt) ** 2) * d1, axis=(-2, -1)) / z0
        if order >= 3:
            cycle = (gt[:, i, j] * gt[:, j, k] * gt[:, k, i]).real
            cycle *= _exp_dd2(m[:, i], m[:, j], m[:, k], d1[:, j, k], d1[:, i, j])
            cycle *= weight
            raw[2, at] = 2.0 * np.sum(cycle, axis=-1) / z0
    m1, m2, m3 = (*raw.reshape((order,) + shape), 0.0, 0.0)[:3]
    moments = (m1, m2 - m1 * m1, m3 - 3.0 * m2 * m1 + 2.0 * m1 ** 3)[:order]
    return (value, *map(_scalar, moments))


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
    three arrays.
    """
    return _moments(probe, alpha, 3)[1:]


def _gap(probe: LogPartitionProbe, alpha, value, d1):
    """phi(0) - phi(alpha) + alpha phi'(alpha) at positive steps, given phi
    and phi' there (from one decomposition, by _moments). phi(0) is the
    logsumexp of the base states' stored log-eigenvalues, since H_0 = log rho."""
    a = _steps(alpha)
    if np.any(a <= 0.0):
        raise InvalidInput("step size must be positive")
    base = probe.base if isinstance(probe.base, tuple) else (probe.base,)
    at_zero = logsumexp(np.array([b.log_eigenvalues for b in base]))
    return _scalar(np.reshape(at_zero, np.shape(probe.delta) + (1,) * a.ndim) - value + a * d1)


def bregman_gap(probe: LogPartitionProbe, alpha):
    """D(rho(alpha), rho) through the log-partition identity
    phi(0) - phi(alpha) + alpha phi'(alpha); nonnegative (Peierls-Bogoliubov).
    A step that is not positive raises InvalidInput."""
    return _gap(probe, alpha, *_moments(probe, alpha, 1))


def inner_product_check(rho: DensityState, f: ObjectiveSpec, alpha: float) -> float:
    """Margin of <grad f(rho), rho(alpha) - rho> <= -D(rho(alpha), rho)/alpha;
    nonnegative (up to round-off) by the mirror-descent subproblem optimality.
    A state that does not fit the matrix objective f raises InvalidInput.
    """
    _check_matrix_fit([rho], f)
    g = f.gradient(rho)
    nxt = eg_step(rho, g, alpha)
    div = quantum_relative_entropy(nxt, rho)
    inner = float(np.vdot(g, _hermitian_part(nxt.matrix - rho.matrix)).real)
    return -div / alpha - inner


def _check_matrix_fit(states, f: ObjectiveSpec) -> None:
    """InvalidInput unless f is a matrix objective that every state fits (solver._check_fit)."""
    if f.kind != "matrix":
        raise InvalidInput(f"the check needs a matrix objective, got a {f.kind} one")
    for state in states:
        _check_fit(state, f)


class FixedPointResult(NamedTuple):
    """Whether each state is fixed, its largest movement over the grid in
    the entrywise l1 norm (an upper bound on the trace norm), and its margin."""

    is_fixed_point: bool | np.ndarray
    max_movement: float | np.ndarray
    optimality_margin: float | np.ndarray | None


def fixed_point_check(rho: DensityState | Sequence, f: ObjectiveSpec,
                      alpha_grid: Sequence[float]) -> FixedPointResult:
    """True iff rho is (numerically) invariant under the EG update at every
    grid step: each moved state EG(rho) - rho has an entrywise l1 norm (the
    sum of its entries' moduli, an upper bound on the trace norm) of at most
    1e-10. A fixed point then gets the exact margin over all density
    matrices, min <g, sigma - rho> = lambda_min(g) - <g, rho>. A sequence of
    states, such as the base states of a stacked probe, gives one array entry
    per state (margin nan off a fixed point), each the bits of that state
    alone. No state, no step, a step that is not positive and finite, or a
    state that does not fit the matrix objective f raises InvalidInput."""
    alphas = _steps(alpha_grid)
    single = not isinstance(rho, Sequence)
    states = [rho] if single else rho
    if alphas.ndim != 1 or not alphas.size or not np.all((0.0 < alphas) & (alphas < math.inf)) or not states:
        raise InvalidInput("need one or more states, and a nonempty grid of positive finite step sizes")
    _check_matrix_fit(states, f)
    alphas = alphas[:, None, None]
    movement, margin = np.empty(len(states)), np.full(len(states), np.nan)
    for at in _chunks(len(states), alphas.size * states[0].dim ** 2):
        g = np.stack([f.gradient(s) for s in states[at]])
        exponent, matrix = (np.stack([getattr(s, n) for s in states[at]]) for n in ("exponent", "matrix"))
        vals, v = np.linalg.eigh(exponent[:, None] - alphas * g[:, None])  # exp(H)/tr exp(H) per step
        p = np.exp(vals - logsumexp(vals)[..., None])
        moved = (v * p[..., None, :]) @ v.conj().swapaxes(-1, -2) - matrix[:, None]
        movement[at] = np.max(np.abs(moved).sum(axis=(-2, -1)), axis=-1)
        fixed = movement[at] <= 1e-10
        if np.any(fixed):  # the margin is read at fixed states only
            margin[at][fixed] = np.linalg.eigvalsh(g[fixed])[:, 0] - [
                np.vdot(*gm).real for gm in zip(g[fixed], matrix[fixed])]
    fixed = movement <= 1e-10
    if single:
        return FixedPointResult(bool(fixed[0]), float(movement[0]), float(margin[0]) if fixed[0] else None)
    return FixedPointResult(fixed, movement, margin)


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    """The Hermitian part of a complex Gaussian d x d matrix; a dimension
    that is not an integer of at least 1 raises InvalidInput."""
    _count(d, "dimension", 1)
    return _hermitian_part(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def random_density(rng: np.random.Generator, d: int) -> DensityState:
    """exp(S)/tr exp(S) for a random Hermitian S of unit Frobenius norm; a
    dimension that is not an integer of at least 1 raises InvalidInput."""
    return _random_densities([rng], d)[0]


def _random_densities(rngs, d: int) -> tuple:
    """random_density of each of a nonempty list of generators, bit for bit
    one call per generator."""
    s = np.stack([random_hermitian(rng, d) for rng in rngs])
    s *= (1.0 / np.linalg.norm(s, axis=(-2, -1)))[:, None, None]
    return tuple(map(DensityState, *np.linalg.eigh(s)))


def random_psd(rng: np.random.Generator, d: int) -> np.ndarray:
    """A^H A for a complex Gaussian d x d matrix A: PSD by construction. A
    dimension that is not an integer of at least 1 raises InvalidInput."""
    _count(d, "dimension", 1)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a.conj().T @ a


def random_probe(rng, d: int, direction_kind="qst") -> LogPartitionProbe:
    """A seeded probe: a random_density base state and a direction of the
    kind asked for, a random_hermitian draw ("hermitian") or -grad f of
    qst_objective at the base state for the probe's own 2d random_psd
    operators ("qst"). Lists of generators and kinds, of one length, give
    their probes as one stack, bit for bit LogPartitionProbe.stack of one call
    per generator. Empty lists, lists of unequal lengths, an unknown kind, or
    a dimension that is not an integer of at least 1 raise InvalidInput."""
    if isinstance(rng, np.random.Generator):
        p = random_probe([rng], d, [direction_kind])
        return LogPartitionProbe._of(p.base[0], p.base[0].exponent, p.direction[0], float(p.delta[0]))
    if not rng or len(rng) != len(direction_kind):
        raise InvalidInput("need one direction kind per generator, and at least one")
    for kind in direction_kind:
        if kind not in ("qst", "hermitian"):
            raise InvalidInput(f"unknown direction kind {kind!r}")
    base = _random_densities(rng, d)
    g = np.stack([random_hermitian(r, d) if kind == "hermitian" else np.zeros((d, d), complex)
                  for r, kind in zip(rng, direction_kind)])
    for i in (i for i, kind in enumerate(direction_kind) if kind == "qst"):
        ops = _hermitian([random_psd(rng[i], d) for _ in range(2 * d)], 3)  # PSD by construction
        g[i] = -qst_objective(MeasurementEnsemble._of(ops)).gradient(base[i])
    g = _hermitian(g, 3)
    vals = np.linalg.eigvalsh(g)
    return LogPartitionProbe._of(base, np.array([b.exponent for b in base]), g, vals[:, -1] - vals[:, 0])
