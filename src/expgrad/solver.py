"""Exponentiated gradient updates, Armijo backtracking, and the outer solve
loop, for density matrices and (element-wise) for the probability simplex.

Iterates are carried in log domain: the matrix update composes additively in
the Hermitian exponent and is re-materialized by one spectral decomposition
per candidate, with logsumexp normalization. This avoids the accuracy loss of
exp/log round trips near singular states.

Work per solve. The stationarity probe at the end of iteration k, the step
of length alpha_bar from x_k, is the first Armijo candidate of iteration
k+1, and the accepted candidate's f value is the new f. With
candidates = iterations + total backtracks, a matrix solve that stops on
its own rule costs candidates + 1 eigendecompositions (one per candidate,
plus the last probe), candidates + 1 evaluations of f (one per candidate,
plus f(x0)) and iterations + 1 gradients, and one eigvalsh per iteration
for the gradient's spectral width.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .entropy import ProbabilityVector, classical_relative_entropy
from .errors import BacktrackCapExceeded, DomainError, InvalidInput
from .linalg import DensityState, HermitianOperator, eigen_extremes, logsumexp
from .objectives import ObjectiveSpec

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "SolveResult",
    "SolveStatus",
    "eg_step",
    "simplex_step",
    "armijo_search",
    "solve",
    "solve_simplex",
    "write_trace_csv",
    "TRACE_COLUMNS",
]

TRACE_COLUMNS = ("k", "f", "alpha", "backtracks", "delta", "bregman_gap_bar", "min_eig")


class SolveStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"
    BACKTRACK_CAP_HIT = "BacktrackCapHit"
    STATIONARY = "Stationary"


@dataclass(frozen=True)
class SolverConfig:
    """Armijo and stopping parameters.

    alpha_bar is the initial step, shrink the backtracking factor, tau the
    sufficient-decrease fraction. 60 halvings from alpha_bar reach 1e-18 of
    the initial step, below any meaningful scale, so max_backtracks is a
    safety cap rather than a tuning knob.
    """

    alpha_bar: float = 1.0
    shrink: float = 0.5
    tau: float = 0.5
    max_iters: int = 10000
    max_backtracks: int = 60
    stop_tol: float = 1e-10
    eig_floor: float = 1e-13

    def __post_init__(self):
        if not (self.alpha_bar > 0.0):
            raise InvalidInput("alpha_bar must be positive")
        if not (0.0 < self.shrink < 1.0):
            raise InvalidInput("shrink must lie in (0, 1)")
        if not (0.0 < self.tau < 1.0):
            raise InvalidInput("tau must lie in (0, 1)")
        if self.max_iters < 0:
            raise InvalidInput("max_iters must be nonnegative")
        if self.max_backtracks < 1:
            raise InvalidInput("max_backtracks must be positive")
        if not (self.stop_tol > 0.0):
            raise InvalidInput("stop_tol must be positive")
        if not (self.eig_floor > 0.0):
            raise InvalidInput("eig_floor must be positive")


@dataclass(frozen=True)
class IterationRecord:
    """One trace row; delta is the gradient spectral width at the previous
    iterate, bregman_gap_bar the divergence D(next(alpha_bar), current) at
    the new iterate (the stationarity measure the stopping rule watches)."""

    k: int
    f_value: float
    alpha_k: float
    backtracks: int
    delta_k: float
    bregman_gap_bar: float
    min_eig: float


@dataclass
class SolveResult:
    final_state: object
    trace: list[IterationRecord] = field(default_factory=list)
    status: SolveStatus = SolveStatus.MAX_ITERS


def eg_step(rho: DensityState, g: HermitianOperator, alpha: float,
            eig_floor: float = 1e-13) -> DensityState:
    """One exponentiated gradient update: exp(log rho - alpha g), trace-
    normalized in log domain. A gradient that is a multiple of the identity
    leaves the state unchanged (the normalization cancels the shift)."""
    if alpha <= 0.0:
        raise InvalidInput("step size must be positive")
    # a real combination of two exactly Hermitian arrays is exactly Hermitian
    h = HermitianOperator._exact(rho.exponent.mat - alpha * g.mat)
    return DensityState.from_exponent(h, eig_floor)


def simplex_step(x: ProbabilityVector, g: np.ndarray, alpha: float) -> ProbabilityVector:
    """Element-wise EG update x_i * exp(-alpha g_i) / Z via logsumexp."""
    if alpha <= 0.0:
        raise InvalidInput("step size must be positive")
    logx = np.log(x.entries) - alpha * np.asarray(g, dtype=np.float64)
    return ProbabilityVector(np.exp(logx - logsumexp(logx)))


class _MatrixGeometry:
    """Strategy hooks for the density-matrix constraint."""

    @staticmethod
    def step(state, g, alpha, eig_floor):
        return eg_step(state, g, alpha, eig_floor)

    @staticmethod
    def inner(g, new, old):
        return float(np.vdot(g.mat, new.matrix - old.matrix).real)

    @staticmethod
    def divergence(new, old):
        # tr[new (log new - log old)] through the stored exponents, which
        # are the exact logs; robust when an eigenvalue underflows to zero
        return float(np.vdot(new.matrix, new.exponent.mat - old.exponent.mat).real)

    @staticmethod
    def delta(g):
        lo, hi = eigen_extremes(g)
        return hi - lo

    @staticmethod
    def min_eig(state):
        return state.min_eig


class _SimplexGeometry:
    """Strategy hooks for the probability-simplex constraint."""

    @staticmethod
    def step(state, g, alpha, eig_floor):
        return simplex_step(state, g, alpha)

    @staticmethod
    def inner(g, new, old):
        return float(np.dot(g, new.entries - old.entries))

    divergence = staticmethod(classical_relative_entropy)

    @staticmethod
    def delta(g):
        return float(np.max(g) - np.min(g))

    @staticmethod
    def min_eig(state):
        return float(np.min(state.entries))


def _armijo(state, f: ObjectiveSpec, cfg: SolverConfig, geom, g, f_state, first=None):
    """Backtracking line search: the largest alpha_bar * shrink^j passing the
    sufficient-decrease test. A +inf candidate value counts as a failed test;
    equality at the boundary counts as acceptance. ``first``, when given, is
    the alpha_bar candidate already computed. Returns (alpha, candidate,
    backtracks, f(candidate))."""
    last_alpha = last_value = None
    for j in range(cfg.max_backtracks + 1):
        alpha = cfg.alpha_bar * cfg.shrink ** j
        if j == 0 and first is not None:
            candidate = first
        else:
            candidate = geom.step(state, g, alpha, cfg.eig_floor)
        f_cand = f.value(candidate)
        last_alpha, last_value = alpha, f_cand
        if math.isfinite(f_cand) and f_cand <= f_state + cfg.tau * geom.inner(g, candidate, state):
            return alpha, candidate, j, f_cand
    raise BacktrackCapExceeded(
        f"no acceptable step within {cfg.max_backtracks} backtracks",
        last_alpha=last_alpha, last_value=last_value)


def armijo_search(rho: DensityState, f: ObjectiveSpec, cfg: SolverConfig):
    """Armijo search on the density-matrix constraint.

    Returns (alpha_accepted, rho_next, backtracks).
    """
    g = f.gradient(rho)
    f_rho = f.value(rho)
    if not math.isfinite(f_rho):
        raise DomainError("line search started outside the effective domain")
    return _armijo(rho, f, cfg, _MatrixGeometry, g, f_rho)[:3]


def _solve_loop(state0, f: ObjectiveSpec, cfg: SolverConfig, geom,
                sink: Optional[Callable[[IterationRecord], None]] = None) -> SolveResult:
    if state0.dim != f.dim:
        raise InvalidInput(f"initial point has dimension {state0.dim}, objective {f.dim}")
    if not f.in_domain(state0):
        raise DomainError("initial point is outside the effective domain")
    state = state0
    f_prev = f.value(state)
    g = f.gradient(state)
    probe = None  # the alpha_bar step from state, once computed
    result = SolveResult(state, [], SolveStatus.MAX_ITERS)
    for k in range(1, cfg.max_iters + 1):
        try:
            alpha, state_next, backtracks, f_new = _armijo(state, f, cfg, geom, g, f_prev, probe)
        except BacktrackCapExceeded:
            result.status = SolveStatus.BACKTRACK_CAP_HIT
            break
        g_next = f.gradient(state_next)
        probe = geom.step(state_next, g_next, cfg.alpha_bar, cfg.eig_floor)
        gap_bar = geom.divergence(probe, state_next)
        record = IterationRecord(k, f_new, alpha, backtracks, geom.delta(g),
                                 gap_bar, geom.min_eig(state_next))
        result.trace.append(record)
        if sink is not None:
            sink(record)
        state, g = state_next, g_next
        result.final_state = state
        if gap_bar <= cfg.stop_tol:
            result.status = SolveStatus.STATIONARY
            break
        if abs(f_prev - f_new) <= cfg.stop_tol * max(1.0, abs(f_new)):
            result.status = SolveStatus.CONVERGED
            break
        f_prev = f_new
    return result


def solve(rho0: DensityState, f: ObjectiveSpec, cfg: SolverConfig = SolverConfig(),
          sink: Optional[Callable[[IterationRecord], None]] = None) -> SolveResult:
    """Run the exponentiated gradient method with Armijo line search from a
    non-singular initial state until stationarity (the Bregman gap at the
    full step drops below stop_tol), relative f-stagnation, or max_iters."""
    if f.kind != "matrix":
        raise InvalidInput("objective is not a matrix objective; use solve_simplex")
    return _solve_loop(rho0, f, cfg, _MatrixGeometry, sink)


def solve_simplex(x0: ProbabilityVector, f: ObjectiveSpec, cfg: SolverConfig = SolverConfig(),
                  sink: Optional[Callable[[IterationRecord], None]] = None) -> SolveResult:
    """Element-wise analogue of :func:`solve` on the probability simplex."""
    if f.kind != "vector":
        raise InvalidInput("objective is not a vector objective; use solve")
    if np.any(x0.entries <= 0.0):
        raise DomainError("initial point must be strictly positive")
    return _solve_loop(x0, f, cfg, _SimplexGeometry, sink)


def write_trace_csv(records: Sequence[IterationRecord], path) -> None:
    """Write the iteration trace with 17-significant-digit floats."""

    def fmt(x: float) -> str:
        return format(x, ".17g")

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_COLUMNS)
        for r in records:
            w.writerow([r.k, fmt(r.f_value), fmt(r.alpha_k), r.backtracks,
                        fmt(r.delta_k), fmt(r.bregman_gap_bar), fmt(r.min_eig)])
