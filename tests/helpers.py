"""Reference functions that only the tests read: a Schatten norm, the
classical KL divergence, and the witness that the tomography objective is not
relatively smooth. Test modules import them as ``from helpers import ...``
(pytest puts this directory on the path)."""

import numpy as np

from expgrad.entropy import ProbabilityVector
from expgrad.errors import DomainError, InvalidInput


def schatten_norm(a: np.ndarray, p) -> float:
    """Schatten p-norm for p in {1, 2, inf} of a Hermitian array, read as
    numpy.linalg.eigvalsh reads it (lower triangle)."""
    vals = np.linalg.eigvalsh(a)
    if p == 1:
        return float(np.sum(np.abs(vals)))
    if p == 2:
        return float(np.sqrt(np.sum(vals * vals)))
    if p in (np.inf, float("inf"), "inf"):
        return float(np.max(np.abs(vals))) if vals.size else 0.0
    raise InvalidInput(f"unsupported Schatten order {p!r}")


def classical_relative_entropy(p: ProbabilityVector, q: ProbabilityVector) -> float:
    """KL divergence sum p_i log(p_i/q_i) - sum(p_i - q_i), with 0 log 0 = 0."""
    if p.dim != q.dim:
        raise InvalidInput(f"dimension mismatch: {p.dim} vs {q.dim}")
    pe, qe = p.entries, q.entries
    if np.any((qe == 0.0) & (pe > 0.0)):
        raise DomainError("KL divergence undefined: q vanishes where p does not")
    mask = pe > 0.0
    kl = float(np.sum(pe[mask] * (np.log(pe[mask]) - np.log(qe[mask]))))
    return kl - float(np.sum(pe) - np.sum(qe))


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
