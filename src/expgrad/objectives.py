"""Objective functions: the tomography log-likelihood family, its hedged
(barrier-regularized) variant, simplex counterparts, and a smooth quadratic
used to exercise the line-search acceptance path.

Out-of-domain evaluation returns +inf rather than raising: the Armijo loop
treats +inf as a failed sufficient-decrease test and shrinks the step.
Gradients, by contrast, raise DomainError outside the effective domain.
Every objective here has one numerical edge, _TINY: a t_i, simplex entry or
eigenvalue below the smallest normal double is off the domain, as 1/x can
overflow there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, InvalidInput
from .linalg import DensityState, _array, _count, _hermitian, _hermitian_part, _positive

# the smallest normal double: every objective's domain ends below it
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class ObjectiveSpec:
    """Value/gradient contract for a convex objective.

    ``kind`` is "matrix" (states are DensityState, gradients are Hermitian
    d x d arrays) or "vector" (states are ProbabilityVector, gradients are
    length-d arrays). ``value`` is the one statement of the effective
    domain: it returns +inf outside it. ``in_domain(x)`` follows it, as
    math.isfinite(value(x)) unless one is given; solve does not read it.
    ``barrier`` is set by the constructors of objectives whose value is +inf
    at every state with an eigenvalue or entry below _TINY; the line search
    then skips candidates that provably have one. The tomography, Poisson
    and Burg objectives are one function, -sum_i log t_i of a linear map
    t(x), and differ only in that map and its adjoint.
    """

    dim: int
    value: Callable
    gradient: Callable
    in_domain: Optional[Callable] = None
    kind: str = "matrix"
    barrier: bool = False

    def __post_init__(self):
        if self.in_domain is None:
            # the value alone, not self: a spec in a reference cycle would
            # hold its ensemble until the garbage collector runs
            value = self.value
            object.__setattr__(self, "in_domain", lambda x: math.isfinite(value(x)))


class MeasurementEnsemble:
    """Hermitian PSD measurement operators M_i, from a list of matrices (arrays
    or HermitianOperator), or one (m, d, d) array. ``operators`` is their
    validated read-only (m, d, d) complex stack, the one copy kept; ``_flat``
    is its real (m, 2 d^2) view, row i M_i's real and imaginary parts
    interleaved, so that tr(M_i rho) over the whole ensemble is one
    matrix-vector product and sum_i w_i M_i one vector-matrix product."""

    __slots__ = ("dim", "operators", "_flat")

    def __init__(self, operators):
        try:
            ops = list(operators)
        except TypeError:
            raise InvalidInput(f"ensemble needs a sequence of operators, got {operators!r}") from None
        if not ops:
            raise InvalidInput("ensemble needs at least one operator")
        if len({_array(op, copy=None).shape for op in ops}) > 1:  # no copy of an array
            raise InvalidInput("ensemble operators have mixed dimensions")
        stack = _hermitian(ops, 3)
        lows = np.linalg.eigvalsh(stack)[:, 0]
        if np.any(lows < -1e-10):
            raise InvalidInput(f"operator is not PSD (min eigenvalue {float(lows.min())})")
        if not np.any(stack, axis=(1, 2)).all():
            raise InvalidInput("every operator must be nonzero")
        self._keep(stack)

    @classmethod
    def _of(cls, stack: np.ndarray) -> "MeasurementEnsemble":
        """An ensemble of a Hermitian PSD (m, d, d) stack, unchecked."""
        out = cls.__new__(cls)
        out._keep(stack)
        return out

    def _keep(self, stack: np.ndarray) -> None:
        self.dim, self.operators = stack.shape[-1], stack
        self._flat = stack.view(np.float64).reshape(len(stack), -1)

    def probabilities(self, rho_mat: np.ndarray) -> np.ndarray:
        """tr(M_i rho) for every operator: Re vdot(M_i, rho), with rho a
        d x d complex array."""
        return self._flat @ np.ascontiguousarray(rho_mat, dtype=np.complex128).view(np.float64).ravel()

    def weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """sum_i weights_i M_i as a d x d complex array, for real weights;
        Hermitian bit for bit, as the M_i are: an entry and its mirror are dot
        products of the weights with equal (real part) or negated (imaginary
        part) columns of the real layout."""
        return (weights @ self._flat).view(np.complex128).reshape(self.dim, self.dim)


def standard_basis_ensemble(d: int) -> MeasurementEnsemble:
    """Projectors onto the standard basis, e_i (x) e_i. For d=2 this is the
    instance whose objective reduces to -log x - log y on the diagonal. A
    dimension that is not an integer of at least 1 raises InvalidInput."""
    _count(d, "dimension", 1)
    return MeasurementEnsemble._of(_hermitian([np.diag(e) for e in np.eye(d)], 3))


def _log_likelihood(dim: int, kind: str, probabilities: Callable, adjoint: Callable,
                    barrier: bool = False) -> ObjectiveSpec:
    """-sum_i log t_i for a linear map t = probabilities(x), nonnegative on
    the domain, with gradient -adjoint(t), where adjoint(t) applies the
    map's adjoint to the weights 1/t_i. A point where some t_i < _TINY
    (zero and negative round-off included) is out of the domain. t is
    computed once per state: a call at the state object of the last call
    reuses it, as states are read-only."""
    last = [None, None]  # the last state and its t

    def t_at(x) -> np.ndarray:
        if x is not last[0]:
            last[:] = x, probabilities(x)
        return last[1]

    def value(x) -> float:
        t = t_at(x)
        if (t < _TINY).any():
            return math.inf
        return float(-np.log(t).sum())

    def gradient(x) -> np.ndarray:
        t = t_at(x)
        if (t < _TINY).any():
            raise DomainError("gradient requested where some t_i(x) is below the smallest normal double")
        return -adjoint(t)

    return ObjectiveSpec(dim, value, gradient, kind=kind, barrier=barrier)


def qst_objective(ens: MeasurementEnsemble) -> ObjectiveSpec:
    """Log-likelihood objective -sum_i log tr(M_i rho)."""
    return _log_likelihood(ens.dim, "matrix", lambda rho: ens.probabilities(rho.matrix),
                           lambda t: ens.weighted_sum(1.0 / t))


def hedged_qst_objective(ens: MeasurementEnsemble, lam: float) -> ObjectiveSpec:
    """QST objective plus the log-det barrier: f_QST(rho) - lam * log det rho.

    The barrier forces every limit point of a monotone run into the interior.
    The log-det is the sum of the state's stored log-spectrum. Value and
    gradient share one domain, the states whose smallest eigenvalue is at
    least _TINY: below it rho^{-1} can overflow, so the value there is +inf,
    as at a zero eigenvalue. A weight lam that is not a positive, finite
    real number raises InvalidInput.
    """
    _positive(lam, "barrier weight")
    base = qst_objective(ens)

    def value(rho: DensityState) -> float:
        if rho.eigenvalues[0] < _TINY:  # before base.value forms rho.matrix
            return math.inf
        # +inf stays +inf: the log-det of a normal spectrum is finite
        return base.value(rho) - lam * float(rho.log_eigenvalues.sum())

    def gradient(rho: DensityState) -> np.ndarray:
        if rho.eigenvalues[0] < _TINY:
            raise DomainError("barrier gradient undefined on a singular state")
        return base.gradient(rho) - lam * rho.inverse()  # exactly Hermitian, as both terms are

    return ObjectiveSpec(ens.dim, value, gradient, barrier=True)


def burg_objective(d: int) -> ObjectiveSpec:
    """Burg entropy -sum_i log v_i on the simplex; +inf where an entry is
    below _TINY. A dimension that is not an integer of at least 1 raises
    InvalidInput."""
    _count(d, "dimension", 1)
    return _log_likelihood(d, "vector", lambda x: x.entries, lambda t: 1.0 / t, barrier=True)


def poisson_linear_objective(rows) -> ObjectiveSpec:
    """-sum_i log <a_i, x> for nonnegative rows a_i; the diagonal
    specialization of the tomography objective."""
    a = _array(rows, np.float64)
    if a.ndim != 2 or a.shape[0] == 0:
        raise InvalidInput(f"expected a nonempty 2-D row array, got shape {a.shape}")
    if np.any(a < 0.0) or not np.all(np.isfinite(a)):
        raise InvalidInput("rows must be finite and nonnegative")
    if np.any(np.all(a == 0.0, axis=1)):
        raise InvalidInput("every row must be nonzero")
    return _log_likelihood(a.shape[1], "vector", lambda x: a @ x.entries,
                           lambda t: (a / t[:, None]).sum(axis=0))


def quadratic_objective(target, scale: float = 1.0) -> ObjectiveSpec:
    """Smooth test objective (scale/2) * ||rho - T||_F^2, T the Hermitian part
    of the square target, with gradient scale * (rho - T); its gradient is
    scale-Lipschitz, so the first Armijo candidate is accepted for small
    enough initial steps. A scale that is not a positive, finite real number
    raises InvalidInput."""
    _positive(scale, "scale")
    target = _hermitian(target)

    def value(rho: DensityState) -> float:
        diff = rho.matrix - target
        return 0.5 * scale * float(np.vdot(diff, diff).real)

    def gradient(rho: DensityState) -> np.ndarray:
        return _hermitian_part(scale * (rho.matrix - target))

    return ObjectiveSpec(target.shape[0], value, gradient)
