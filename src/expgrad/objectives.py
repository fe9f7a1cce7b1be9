"""Objective functions: the tomography log-likelihood family, its hedged
(barrier-regularized) variant, simplex counterparts, and a smooth quadratic
used to exercise the line-search acceptance path.

Out-of-domain evaluation returns +inf rather than raising: the Armijo loop
treats +inf as a failed sufficient-decrease test and shrinks the step.
Gradients, by contrast, raise DomainError outside the effective domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidInput
from .entropy import ProbabilityVector
from .linalg import DensityState, HermitianOperator, _hermitian_part

__all__ = [
    "ObjectiveSpec",
    "MeasurementEnsemble",
    "qst_objective",
    "hedged_qst_objective",
    "burg_objective",
    "poisson_linear_objective",
    "quadratic_objective",
    "qst_hardness_witness",
    "standard_basis_ensemble",
]


@dataclass(frozen=True)
class ObjectiveSpec:
    """Value/gradient/domain contract for a convex objective.

    ``kind`` is "matrix" (states are DensityState, gradients are Hermitian
    d x d arrays) or "vector" (states are ProbabilityVector, gradients are
    length-d arrays). ``value`` returns +inf outside the effective domain.
    """

    dim: int
    value: Callable
    gradient: Callable
    in_domain: Callable
    kind: str = "matrix"


class MeasurementEnsemble:
    """A collection of Hermitian PSD measurement operators.

    The operators are also stacked into one read-only (m, d, d) array, kept
    as its real (m, 2 d^2) view, so that tr(M_i rho) over the whole ensemble
    is one matrix-vector product and sum_i w_i M_i one vector-matrix product.
    """

    __slots__ = ("dim", "operators", "_flat")

    def __init__(self, operators):
        ops = [op if isinstance(op, HermitianOperator) else HermitianOperator(op) for op in operators]
        if not ops:
            raise InvalidInput("ensemble needs at least one operator")
        d = ops[0].dim
        if any(op.dim != d for op in ops):
            raise InvalidInput("ensemble operators have mixed dimensions")
        stack = np.stack([op.mat for op in ops])
        lows = np.linalg.eigvalsh(stack)[:, 0]
        if np.any(lows < -1e-10):
            raise InvalidInput(f"operator is not PSD (min eigenvalue {float(lows.min())})")
        if not np.any(stack):
            raise InvalidInput("ensemble is all zeros")
        self.dim = d
        self.operators = tuple(ops)
        # row i holds the real and imaginary parts of M_i, interleaved
        self._flat = stack.view(np.float64).reshape(len(ops), -1)
        self._flat.flags.writeable = False

    @property
    def count(self) -> int:
        return len(self.operators)

    def probabilities(self, rho_mat: np.ndarray) -> np.ndarray:
        """tr(M_i rho) for every operator: Re vdot(M_i, rho), with rho a
        d x d complex array."""
        return self._flat @ np.ascontiguousarray(rho_mat, dtype=np.complex128).view(np.float64).ravel()

    def weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """sum_i weights_i M_i as a d x d complex array, for real weights."""
        return (weights @ self._flat).view(np.complex128).reshape(self.dim, self.dim)


def standard_basis_ensemble(d: int) -> MeasurementEnsemble:
    """Projectors onto the standard basis, e_i (x) e_i. For d=2 this is the
    instance whose objective reduces to -log x - log y on the diagonal."""
    eye = np.eye(d)
    return MeasurementEnsemble([np.outer(eye[i], eye[i]) for i in range(d)])


def _measurement_probs(ens: MeasurementEnsemble, rho: DensityState) -> np.ndarray:
    # tr(M_i rho); negative round-off on PSD operators counts as out of domain
    return ens.probabilities(rho.matrix)


def qst_objective(ens: MeasurementEnsemble) -> ObjectiveSpec:
    """Log-likelihood objective -sum_i log tr(M_i rho)."""

    def value(rho: DensityState) -> float:
        t = _measurement_probs(ens, rho)
        if (t <= 0.0).any():
            return math.inf
        return float(-np.log(t).sum())

    def gradient(rho: DensityState) -> np.ndarray:
        t = _measurement_probs(ens, rho)
        if np.any(t <= 0.0):
            raise DomainError("gradient requested where some tr(M_i rho) <= 0")
        return _hermitian_part(-ens.weighted_sum(1.0 / t))

    def in_domain(rho: DensityState) -> bool:
        return bool(np.all(_measurement_probs(ens, rho) > 0.0))

    return ObjectiveSpec(ens.dim, value, gradient, in_domain, "matrix")


def hedged_qst_objective(ens: MeasurementEnsemble, lam: float) -> ObjectiveSpec:
    """QST objective plus the log-det barrier: f_QST(rho) - lam * log det rho.

    The barrier forces every limit point of a monotone run into the interior.
    The log-det is taken from the state's realized eigenvalues.
    """
    if lam <= 0.0:
        raise InvalidInput("barrier weight must be positive")
    base = qst_objective(ens)

    def value(rho: DensityState) -> float:
        if rho.eigenvalues[0] <= 0.0:  # before base.value forms rho.matrix
            return math.inf
        v = base.value(rho)
        if not math.isfinite(v):
            return math.inf
        return v - lam * float(np.log(rho.eigenvalues).sum())

    def gradient(rho: DensityState) -> np.ndarray:
        if rho.eigenvalues[0] <= 0.0:
            raise DomainError("barrier gradient undefined on a singular state")
        return base.gradient(rho) - lam * rho.inverse()  # exactly Hermitian, as both terms are

    def in_domain(rho: DensityState) -> bool:
        return base.in_domain(rho) and rho.eigenvalues[0] > 0.0

    return ObjectiveSpec(ens.dim, value, gradient, in_domain, "matrix")


def burg_objective(d: int) -> ObjectiveSpec:
    """Burg entropy -sum_i log v_i on the simplex; +inf at the boundary."""
    if d < 1:
        raise InvalidInput("dimension must be at least 1")

    def value(x: ProbabilityVector) -> float:
        v = x.entries
        if np.any(v <= 0.0):
            return math.inf
        return float(-np.sum(np.log(v)))

    def gradient(x: ProbabilityVector) -> np.ndarray:
        v = x.entries
        if np.any(v <= 0.0):
            raise DomainError("Burg gradient undefined at the simplex boundary")
        return -1.0 / v

    def in_domain(x: ProbabilityVector) -> bool:
        return bool(np.all(x.entries > 0.0))

    return ObjectiveSpec(d, value, gradient, in_domain, "vector")


def poisson_linear_objective(rows) -> ObjectiveSpec:
    """-sum_i log <a_i, x> for nonnegative rows a_i; the diagonal
    specialization of the tomography objective."""
    a = np.asarray(rows, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] == 0:
        raise InvalidInput(f"expected a nonempty 2-D row array, got shape {a.shape}")
    if np.any(a < 0.0) or not np.all(np.isfinite(a)):
        raise InvalidInput("rows must be finite and nonnegative")
    if np.any(np.all(a == 0.0, axis=1)):
        raise InvalidInput("every row must be nonzero")
    d = a.shape[1]

    def value(x: ProbabilityVector) -> float:
        t = a @ x.entries
        if np.any(t <= 0.0):
            return math.inf
        return float(-np.sum(np.log(t)))

    def gradient(x: ProbabilityVector) -> np.ndarray:
        t = a @ x.entries
        if np.any(t <= 0.0):
            raise DomainError("gradient requested where some <a_i, x> <= 0")
        return -(a / t[:, None]).sum(axis=0)

    def in_domain(x: ProbabilityVector) -> bool:
        return bool(np.all(a @ x.entries > 0.0))

    return ObjectiveSpec(d, value, gradient, in_domain, "vector")


def quadratic_objective(target: HermitianOperator, scale: float = 1.0) -> ObjectiveSpec:
    """Smooth test objective (scale/2) * ||rho - target||_F^2 with gradient
    scale * (rho - target); its gradient is scale-Lipschitz, so the first
    Armijo candidate is accepted for small enough initial steps."""
    if scale <= 0.0:
        raise InvalidInput("scale must be positive")

    def value(rho: DensityState) -> float:
        diff = rho.matrix - target.mat
        return 0.5 * scale * float(np.vdot(diff, diff).real)

    def gradient(rho: DensityState) -> np.ndarray:
        return _hermitian_part(scale * (rho.matrix - target.mat))

    return ObjectiveSpec(target.dim, value, gradient, lambda rho: True, "matrix")


def qst_hardness_witness(smoothness: float) -> tuple[float, float]:
    """Certify that the tomography objective is not `smoothness`-smooth
    relative to negative entropy.

    Returns (x, violation) with x = 1/(2 * smoothness): relative smoothness
    would require L/x - 1/x^2 >= 0 on (0, 1), but the returned violation
    L/x - 1/x^2 = -2 L^2 is strictly negative for every L > 0.
    """
    if smoothness <= 0.0:
        raise InvalidInput("smoothness constant must be positive")
    x = 1.0 / (2.0 * smoothness)
    violation = smoothness / x - 1.0 / (x * x)
    return x, violation
