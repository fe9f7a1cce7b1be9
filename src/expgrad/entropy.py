"""Entropy functionals and divergences on density matrices and probability
vectors.

The quantum relative entropy is evaluated in the two eigenbases of its
arguments (tr(rho log sigma) as sum_ij |<u_i, v_j>|^2 lam_i^rho log lam_j^sigma)
instead of chaining matrix logs, with log lam the stored log-spectra, so it
is defined also where an eigenvalue underflows to 0.0.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput
from .linalg import DensityState, _array, _count, logsumexp


class ProbabilityVector:
    """Nonnegative vector with unit sum; the simplex analogue of a density
    matrix, and like it carried in log domain: ``exponent`` is log(entries),
    -inf at a zero entry, and ``log_eigenvalues`` names it as ``point``
    names the entries. EG iterates are additionally strictly positive."""

    __slots__ = ("entries", "exponent")

    def __init__(self, entries):
        x = _array(entries, np.float64)  # a copy: it is frozen below
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
        _count(d, "dimension", 1)
        return cls(np.full(d, 1.0 / d))

    @property
    def dim(self) -> int:
        return self.entries.size

    @property
    def min_eig(self) -> float:
        return float(np.min(self.entries))

    point = property(lambda self: self.entries)  # the names DensityState shares
    log_eigenvalues = property(lambda self: self.exponent)

    def __repr__(self):
        return f"ProbabilityVector({np.array2string(self.entries, precision=4)})"


def quantum_relative_entropy(rho: DensityState, sigma: DensityState) -> float:
    """tr(rho log rho) - tr(rho log sigma) - tr(rho - sigma), for any two
    DensityStates of one dimension; other arguments raise InvalidInput.

    For unit-trace arguments the last term vanishes, but it is computed
    anyway so the function is correct on general positive operators.
    """
    if not (isinstance(rho, DensityState) and isinstance(sigma, DensityState)):
        raise InvalidInput(f"needs two DensityStates, got {type(rho).__name__}, {type(sigma).__name__}")
    if rho.dim != sigma.dim:
        raise InvalidInput(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    return float(_relative_entropy(rho.log_eigenvalues, rho.eigenvectors,
                                   sigma.log_eigenvalues, sigma.eigenvectors))


def _relative_entropy(w_r, u, w_s, v):
    """quantum_relative_entropy from finite log-spectra w and eigenvector
    columns, stacked on leading axes that broadcast; no input checks."""
    lam_r = np.exp(w_r)
    overlap = np.abs(u.conj().swapaxes(-1, -2) @ v) ** 2
    own = np.sum(lam_r * w_r, axis=-1)
    cross = ((lam_r[..., None, :] @ overlap) @ w_s[..., None])[..., 0, 0]
    traces = np.sum(lam_r, axis=-1) - np.sum(np.exp(w_s), axis=-1)
    return own - cross - traces
