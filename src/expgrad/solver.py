"""Exponentiated gradient updates, Armijo backtracking, and the outer solve
loop, for density matrices and for the probability simplex.

Both state types are carried in log domain and share one step, one loop and
one stopping test: the vector update is the diagonal case of the matrix one.
The update composes additively in the exponent and is re-materialized by one
spectral decomposition per candidate (element-wise exp for a vector), with
logsumexp normalization. This avoids the accuracy loss of exp/log round trips
near singular states. Inside the loop, gradients and exponents are arrays.

Work per solve. The stationarity probe at the end of iteration k, the step
of length alpha_bar from x_k, is the first Armijo candidate of iteration
k+1, and the accepted candidate's f value is the new f. With
candidates = iterations + total backtracks, a solve that stops on its own
rule costs candidates + 1 evaluations of f (one per candidate, plus f(x0))
and iterations + 1 gradients. On a matrix it also costs candidates + 1
eigendecompositions (one per candidate, plus the last probe) and one
eigvalsh per iteration for the gradient's spectral width.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .entropy import ProbabilityVector
from .errors import BacktrackCapExceeded, DomainError, InvalidInput
from .linalg import DensityState
from .objectives import ObjectiveSpec

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "SolveResult",
    "SolveStatus",
    "eg_step",
    "armijo_search",
    "solve",
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


def eg_step(state, g: np.ndarray, alpha: float):
    """One exponentiated gradient update exp(log x - alpha g), normalized in
    log domain, of a DensityState (g a Hermitian array) or a
    ProbabilityVector (g a vector). A gradient that is a multiple of the
    identity leaves the state unchanged (the normalization cancels it)."""
    if alpha <= 0.0:
        raise InvalidInput("step size must be positive")
    # a real combination of two exactly Hermitian arrays is exactly Hermitian
    return type(state).from_exponent(state.exponent - alpha * g)


def _divergence(new, old) -> float:
    """D(new, old) = <new, log new - log old> through the stored exponents,
    which are the exact logs: robust when an eigenvalue or an entry of new
    underflows to zero. The unit-sum term sum(new - old) is left out."""
    return float(np.vdot(new.point, new.exponent - old.exponent).real)


def _armijo(state, f: ObjectiveSpec, cfg: SolverConfig, g, f_state, first=None):
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
            candidate = eg_step(state, g, alpha)
        f_cand = f.value(candidate)
        last_alpha, last_value = alpha, f_cand
        if math.isfinite(f_cand) and f_cand <= f_state + cfg.tau * float(
                np.vdot(g, candidate.point - state.point).real):
            return alpha, candidate, j, f_cand
    raise BacktrackCapExceeded(
        f"no acceptable step within {cfg.max_backtracks} backtracks",
        last_alpha=last_alpha, last_value=last_value)


def armijo_search(state, f: ObjectiveSpec, cfg: SolverConfig):
    """Armijo search from a DensityState or a ProbabilityVector.

    Returns (alpha_accepted, next_state, backtracks).
    """
    g = f.gradient(state)
    f_state = f.value(state)
    if not math.isfinite(f_state):
        raise DomainError("line search started outside the effective domain")
    return _armijo(state, f, cfg, g, f_state)[:3]


_KINDS = {DensityState: "matrix", ProbabilityVector: "vector"}


def solve(x0, f: ObjectiveSpec, cfg: SolverConfig = SolverConfig(),
          sink: Optional[Callable[[IterationRecord], None]] = None) -> SolveResult:
    """Run the exponentiated gradient method with Armijo line search from a
    strictly positive DensityState or ProbabilityVector until stationarity
    (the Bregman gap at the full step drops below stop_tol), relative
    f-stagnation, or max_iters."""
    if _KINDS.get(type(x0)) != f.kind:
        raise InvalidInput(f"a {type(x0).__name__} start does not fit a {f.kind} objective")
    if x0.dim != f.dim:
        raise InvalidInput(f"initial point has dimension {x0.dim}, objective {f.dim}")
    if not np.all(np.isfinite(x0.exponent)):
        raise DomainError("initial point must be strictly positive")
    if not f.in_domain(x0):
        raise DomainError("initial point is outside the effective domain")
    state = x0
    f_prev = f.value(state)
    g = f.gradient(state)
    probe = None  # the alpha_bar step from state, once computed
    result = SolveResult(state, [], SolveStatus.MAX_ITERS)
    for k in range(1, cfg.max_iters + 1):
        try:
            alpha, state_next, backtracks, f_new = _armijo(state, f, cfg, g, f_prev, probe)
        except BacktrackCapExceeded:
            result.status = SolveStatus.BACKTRACK_CAP_HIT
            break
        g_next = f.gradient(state_next)
        probe = eg_step(state_next, g_next, cfg.alpha_bar)
        gap_bar = _divergence(probe, state_next)
        spectrum = np.linalg.eigvalsh(g) if g.ndim == 2 else g
        delta = float(np.max(spectrum) - np.min(spectrum))
        record = IterationRecord(k, f_new, alpha, backtracks, delta, gap_bar, state_next.min_eig)
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
