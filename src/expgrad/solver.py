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
k+1, and the accepted candidate's f value is the new f. A candidate is
excluded, its f not evaluated, when the objective is a barrier and a Weyl
bound on the spread of its exponent proves that an eigenvalue falls below
the smallest normal double, objectives._TINY, where the barrier is +inf
(see _armijo); a fresh candidate past the bound is not formed either, while
a probe past it was formed for the stopping test. With candidates =
iterations + total backtracks, a solve that stops on its own rule costs
candidates - excluded + 1 evaluations of f (one per candidate not excluded,
plus f(x0)) and iterations + 1 gradients. On a matrix it also costs that
many eigendecompositions plus one per excluded probe (one per candidate
formed, plus the last probe), and one eigvalsh per iteration for the
gradient's spectral width; building the start is not counted: the
maximally mixed one takes none, one from DensityState.from_matrix one. The
exponent log rho is formed only where it is read, at the start, at each
accepted iterate and at each alpha_bar probe, so at most 2 iterations + 1
times per solve however many candidates the line search rejects.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import astuple, dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .entropy import ProbabilityVector
from .errors import DomainError, InvalidInput
from .linalg import DensityState, _array, _count, _positive
from .objectives import _TINY, ObjectiveSpec


TRACE_COLUMNS = ("k", "f", "alpha", "backtracks", "delta", "bregman_gap_bar", "min_eig")

# exp(x) < _TINY below log(_TINY) = -708.3964, where a barrier objective is
# +inf; _ROUNDING * d * scale bounds the rounding of the spectral bound at
# that scale (see _armijo)
_EDGE = -math.log(_TINY)
_ROUNDING = 32 * np.finfo(np.float64).eps


class SolveStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"
    BACKTRACK_CAP_HIT = "BacktrackCapHit"
    STATIONARY = "Stationary"


@dataclass(frozen=True)
class SolverConfig:
    """Armijo and stopping parameters.

    alpha_bar is the initial step, shrink the backtracking factor, tau the
    sufficient-decrease fraction. max_backtracks is a safety cap: 60 halvings
    reach 1e-18 of alpha_bar, yet a gradient of spectral width 1e23 makes
    every such step underflow. A cap whose last step, alpha_bar *
    shrink**max_backtracks, rounds to 0.0 raises InvalidInput. A search that
    reaches the cap ends the run as BacktrackCapHit, with the last step tried
    and its value in the result's last_alpha and last_value.
    """

    alpha_bar: float = 1.0
    shrink: float = 0.5
    tau: float = 0.5
    max_iters: int = 10000
    max_backtracks: int = 60
    stop_tol: float = 1e-10

    def __post_init__(self):
        _positive(self.alpha_bar, "alpha_bar")
        _positive(self.shrink, "shrink", below=1.0)
        _positive(self.tau, "tau", below=1.0)
        _count(self.max_iters, "max_iters", 0)
        _count(self.max_backtracks, "max_backtracks", 1)
        _positive(self.stop_tol, "stop_tol")
        try:  # the cap's step, as _armijo forms it, must not round to 0.0
            last = self.alpha_bar * self.shrink ** self.max_backtracks
        except OverflowError:  # a cap past the float range
            last = 0.0
        if last == 0.0:
            raise InvalidInput("max_backtracks must keep alpha_bar * shrink**max_backtracks above 0.0")


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
    """The last accepted state, the trace and the stopping status. On
    BacktrackCapHit, last_alpha and last_value are the last candidate step
    tried and its f value (+inf for an excluded candidate); None otherwise."""

    final_state: object
    trace: list[IterationRecord] = field(default_factory=list)
    status: SolveStatus = SolveStatus.MAX_ITERS
    last_alpha: Optional[float] = None
    last_value: Optional[float] = None


def _gradient(state, g) -> np.ndarray:
    """g as an array to subtract from the state's exponent: InvalidInput
    unless it has that exponent's shape and holds finite numbers, real ones
    for a ProbabilityVector and an exactly Hermitian matrix for a
    DensityState."""
    g = _array(g, copy=None, what="gradient")
    if g.shape != state.exponent.shape:
        raise InvalidInput(f"gradient of shape {g.shape} for a state of shape {state.exponent.shape}")
    if g.dtype.kind not in ("biuf" if g.ndim == 1 else "biufc"):
        raise InvalidInput(f"gradient of dtype {g.dtype} for a {type(state).__name__}")
    if not np.isfinite(g).all():
        raise InvalidInput("gradient has non-finite entries")
    if g.ndim == 2 and not np.array_equal(g, g.conj().T):
        raise InvalidInput("gradient is not Hermitian")
    return g


def eg_step(state, g: np.ndarray, alpha: float):
    """One exponentiated gradient update exp(log x - alpha g), normalized in
    log domain, of a DensityState (g a Hermitian array) or a
    ProbabilityVector (g a real vector). A gradient that is a multiple of
    the identity leaves the state unchanged (the normalization cancels it).
    A step that is not a positive, finite real number, or a gradient that
    _gradient rejects, raises InvalidInput."""
    _positive(alpha, "step size")
    g = _gradient(state, g)
    # a real combination of two exactly Hermitian arrays is exactly Hermitian
    return type(state).from_exponent(state.exponent - alpha * g)


def _divergence(new, old) -> float:
    """D(new, old) = <new, log new - log old> through the stored exponents,
    which are the exact logs: robust when an eigenvalue or an entry of new
    underflows to zero. The unit-sum term sum(new - old) is left out."""
    return float(np.vdot(new.point, new.exponent - old.exponent).real)


def _underflow_step(state, lo: float, hi: float) -> float:
    """A step beyond which eg_step(state, g, alpha) provably has an
    eigenvalue or entry below _TINY, for a g with extreme eigenvalues
    lo <= hi; +inf where the bound proves nothing (as at lo == hi). See
    _armijo."""
    slack = _ROUNDING * state.dim
    width = (hi - lo) - slack * max(-lo, hi)
    if width <= 0.0:
        return math.inf
    w = state.log_eigenvalues
    spread = float(np.max(w) - np.min(w))
    return (_EDGE + spread + slack * (spread + math.log(state.dim))) / width


def _armijo(state, f: ObjectiveSpec, cfg: SolverConfig, g, f_state, first=None, cut=math.inf):
    """Backtracking line search: the largest alpha_bar * shrink^j passing the
    sufficient-decrease test. A +inf candidate value counts as a failed test;
    equality at the boundary counts as acceptance. ``first``, when given, is
    the alpha_bar candidate already computed. Returns (alpha, candidate,
    backtracks, f(candidate)); past the cap, (alpha, None, max_backtracks, f)
    for the last step tried, with f +inf for an excluded candidate.

    A candidate with alpha > ``cut`` is excluded, ``first`` included: f is
    not evaluated and a fresh candidate is not formed. It counts as a failed
    test with value +inf, which is what evaluating it would give when
    ``cut`` is _underflow_step(state, ...) and f is a barrier. The argument:
    let Delta = lambda_max(g) - lambda_min(g) and s the spread of the state's
    normalized log-eigenvalues w. By Weyl's inequalities the exponent
    H = log rho - alpha g has lambda_max(H) - lambda_min(H) >= alpha Delta - s.
    As logsumexp >= max, the candidate's smallest normalized log-eigenvalue
    is at most -(lambda_max(H) - lambda_min(H)), and exp of it is below
    _TINY once that spread exceeds _EDGE = -log(_TINY) = 708.3964: the
    objectives' one numerical edge, where a barrier gives +inf. Rounding in
    Delta, in s, in forming H and the eigensolver's backward error move the
    computed spread by at most c d eps (alpha ||g|| + max|w|) with a modest
    c; _underflow_step adds 32 d eps (alpha ||g|| + s + log d) to _EDGE, as
    max|w| <= s + log d for normalized w. That slack, at least
    32 d eps _EDGE / 2 past the bound, also covers exp(-_EDGE), which rounds
    above _TINY by 3e-14 relative. On a vector the same holds entrywise,
    without the eigensolver."""
    for j in range(cfg.max_backtracks + 1):
        alpha = cfg.alpha_bar * cfg.shrink ** j
        if alpha > cut:
            f_cand = math.inf
            continue
        # a fresh candidate is eg_step without its checks, which solve made of g
        candidate = (first if j == 0 and first is not None
                     else type(state).from_exponent(state.exponent - alpha * g))
        f_cand = f.value(candidate)
        if math.isfinite(f_cand) and f_cand <= f_state + cfg.tau * float(
                np.vdot(g, candidate.point - state.point).real):
            return alpha, candidate, j, f_cand
    return alpha, None, cfg.max_backtracks, f_cand


_KINDS = {DensityState: "matrix", ProbabilityVector: "vector"}


def _check_fit(x, f: ObjectiveSpec) -> None:
    """InvalidInput unless the state x has the type of f's kind and f's dimension."""
    if _KINDS.get(type(x)) != f.kind:
        raise InvalidInput(f"a {type(x).__name__} start does not fit a {f.kind} objective")
    if x.dim != f.dim:
        raise InvalidInput(f"initial point has dimension {x.dim}, objective {f.dim}")


def solve(x0, f: ObjectiveSpec, cfg: SolverConfig = SolverConfig(),
          sink: Optional[Callable[[IterationRecord], None]] = None) -> SolveResult:
    """Run the exponentiated gradient method with Armijo line search from a
    strictly positive DensityState or ProbabilityVector until stationarity
    (the Bregman gap at the full step drops below stop_tol), relative
    f-stagnation, or max_iters. Each gradient f returns is checked once, as
    eg_step checks its g; one that fails raises InvalidInput. A start where
    f is not finite is outside f's domain and raises DomainError."""
    _check_fit(x0, f)
    if not np.all(np.isfinite(x0.exponent)):
        raise DomainError("initial point must be strictly positive")
    state = x0
    f_prev = f.value(state)
    if not math.isfinite(f_prev):
        raise DomainError("initial point is outside the effective domain")
    g = _gradient(state, f.gradient(state))
    probe = None  # the alpha_bar step from state, once computed
    result = SolveResult(state, [], SolveStatus.MAX_ITERS)
    for k in range(1, cfg.max_iters + 1):
        spectrum = np.linalg.eigvalsh(g) if g.ndim == 2 else g
        lo, hi = float(np.min(spectrum)), float(np.max(spectrum))
        cut = _underflow_step(state, lo, hi) if f.barrier else math.inf
        alpha, state_next, backtracks, f_new = _armijo(state, f, cfg, g, f_prev, probe, cut)
        if state_next is None:
            result.status = SolveStatus.BACKTRACK_CAP_HIT
            result.last_alpha, result.last_value = alpha, f_new
            break
        g_next = _gradient(state_next, f.gradient(state_next))
        probe = type(state_next).from_exponent(state_next.exponent - cfg.alpha_bar * g_next)
        gap_bar = _divergence(probe, state_next)
        record = IterationRecord(k, f_new, alpha, backtracks, hi - lo, gap_bar, state_next.min_eig)
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
    """Write the iteration trace, one row per record in its field order,
    with 17-significant-digit floats."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_COLUMNS)
        for r in records:
            w.writerow([format(x, ".17g") if isinstance(x, (float, np.floating)) else x for x in astuple(r)])
