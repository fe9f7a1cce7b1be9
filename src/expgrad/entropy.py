"""Entropy functionals and divergences on density matrices and probability
vectors.

The quantum relative entropy is evaluated in the two eigenbases of its
arguments (tr(rho log sigma) as sum_ij |<u_i, v_j>|^2 lam_i^rho log lam_j^sigma)
instead of chaining matrix logs, which keeps the computation stable when an
argument is close to singular.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InvalidInput
from .linalg import DensityState, logsumexp

__all__ = [
    "ProbabilityVector",
    "quantum_relative_entropy",
    "classical_relative_entropy",
]


class ProbabilityVector:
    """Nonnegative vector with unit sum; the simplex analogue of a density
    matrix, and like it carried in log domain: ``exponent`` is log(entries),
    -inf at a zero entry. EG iterates are additionally strictly positive."""

    __slots__ = ("entries", "exponent")

    def __init__(self, entries):
        x = np.array(entries, dtype=np.float64)  # a copy: it is frozen below
        if x.ndim != 1 or x.size == 0:
            raise InvalidInput(f"expected a nonempty vector, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise InvalidInput("vector has non-finite entries")
        if np.any(x < 0.0):
            raise InvalidInput("vector has negative entries")
        if abs(float(np.sum(x)) - 1.0) > 1e-12:
            raise InvalidInput(f"entries sum to {float(np.sum(x))}, not 1")
        with np.errstate(divide="ignore"):
            self.exponent = np.log(x)
        x.flags.writeable = self.exponent.flags.writeable = False
        self.entries = x

    @classmethod
    def from_exponent(cls, h) -> "ProbabilityVector":
        """exp(h)/sum exp(h) for a real vector h with a finite maximum,
        normalized in log domain; an entry may underflow to 0 while its
        exponent stays finite. No input checks."""
        p = cls.__new__(cls)
        p.exponent = h - logsumexp(h)
        p.entries = np.exp(p.exponent)
        p.exponent.flags.writeable = p.entries.flags.writeable = False
        return p

    @classmethod
    def uniform(cls, d: int) -> "ProbabilityVector":
        return cls(np.full(d, 1.0 / d))

    @property
    def dim(self) -> int:
        return self.entries.size

    @property
    def min_eig(self) -> float:
        return float(np.min(self.entries))

    point = property(lambda self: self.entries)  # the name DensityState shares

    def __repr__(self):
        return f"ProbabilityVector({np.array2string(self.entries, precision=4)})"


def quantum_relative_entropy(rho: DensityState, sigma: DensityState) -> float:
    """tr(rho log rho) - tr(rho log sigma) - tr(rho - sigma).

    For unit-trace arguments the last term vanishes, but it is computed
    anyway so the function is correct on general positive operators.
    """
    if rho.dim != sigma.dim:
        raise InvalidInput(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    lam_r, lam_s = rho.eigenvalues, sigma.eigenvalues
    if lam_s[0] <= 0.0:
        raise DomainError("relative entropy undefined against a singular state")
    if lam_r[0] <= 0.0:
        raise DomainError("relative entropy undefined for a singular state")
    return float(_relative_entropy(lam_r, rho.eigenvectors, lam_s, sigma.eigenvectors))


def _relative_entropy(lam_r, u, lam_s, v):
    """quantum_relative_entropy from positive eigenvalues and eigenvector
    columns, stacked on leading axes that broadcast; no input checks."""
    overlap = np.abs(u.conj().swapaxes(-1, -2) @ v) ** 2
    own = np.sum(lam_r * np.log(lam_r), axis=-1)
    cross = ((lam_r[..., None, :] @ overlap) @ np.log(lam_s)[..., None])[..., 0, 0]
    traces = np.sum(lam_r, axis=-1) - np.sum(lam_s, axis=-1)
    return own - cross - traces


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
