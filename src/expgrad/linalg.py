"""Dense Hermitian linear algebra: spectral decompositions, matrix functions,
Schatten norms, and the log-domain density-matrix representation.

Everything here is dense and double precision; the methods built on top are
spectral-decomposition-bound, so there is nothing to gain from sparsity at
the target sizes (d <= 64).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidInput

__all__ = [
    "HermitianOperator",
    "SpectralDecomposition",
    "DensityState",
    "spectral_decompose",
    "matrix_function",
    "trace_inner_product",
    "schatten_norm",
    "eigen_extremes",
    "logsumexp",
]

DEFAULT_EIG_FLOOR = 1e-13


def logsumexp(x: np.ndarray):
    """log sum exp(x) over the last axis, for rows with a finite maximum,
    shifted by that maximum so that no term overflows; -inf entries
    contribute nothing. A vector gives a float, a stack an array."""
    top = np.max(x, axis=-1, keepdims=True)
    out = top[..., 0] + np.log(np.sum(np.exp(x - top), axis=-1))
    return float(out) if out.ndim == 0 else out


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


class HermitianOperator:
    """A d x d complex Hermitian matrix.

    The constructor symmetrizes via (A + A^H)/2 so that round-off from
    upstream arithmetic never produces a non-Hermitian operator. Instances
    are immutable after construction.
    """

    __slots__ = ("mat",)

    def __init__(self, entries):
        a = np.asarray(entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidInput("matrix has non-finite entries")
        a = _hermitian_part(a)
        a.flags.writeable = False
        self.mat = a

    @classmethod
    def _trusted(cls, a: np.ndarray) -> "HermitianOperator":
        """Wrap the Hermitian part of a square complex array computed inside
        the package from finite Hermitian data, without the input checks."""
        return cls._exact(_hermitian_part(a))

    @classmethod
    def _exact(cls, a: np.ndarray) -> "HermitianOperator":
        """Wrap an exactly Hermitian array as it is: no checks, no copy."""
        op = cls.__new__(cls)
        a.flags.writeable = False
        op.mat = a
        return op

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def identity(cls, d: int) -> "HermitianOperator":
        return cls(np.eye(d))

    @classmethod
    def diag(cls, values) -> "HermitianOperator":
        return cls(np.diag(np.asarray(values, dtype=np.complex128)))

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        return HermitianOperator(self.mat + other.mat)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        return HermitianOperator(self.mat - other.mat)

    def __mul__(self, scalar: float) -> "HermitianOperator":
        return HermitianOperator(self.mat * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "HermitianOperator":
        return HermitianOperator(-self.mat)

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian operator, eigenvalues ascending.

    Column j of ``eigenvectors`` pairs with ``eigenvalues[j]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def spectral_decompose(a: HermitianOperator) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator, eigenvalues ascending."""
    vals, vecs = np.linalg.eigh(a.mat)
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return SpectralDecomposition(vals, vecs)


def matrix_function(a: HermitianOperator, g: Callable[[np.ndarray], np.ndarray]) -> HermitianOperator:
    """Apply a scalar function to a Hermitian operator through its spectrum.

    ``g`` must be defined (finite) on every eigenvalue of ``a``; otherwise a
    DomainError is raised (e.g. log of a non-positive eigenvalue).
    """
    dec = spectral_decompose(a)
    with np.errstate(all="ignore"):
        gvals = np.asarray(g(dec.eigenvalues), dtype=np.float64)
    if gvals.shape != dec.eigenvalues.shape or not np.all(np.isfinite(gvals)):
        raise DomainError("scalar function undefined on part of the spectrum")
    v = dec.eigenvectors
    return HermitianOperator((v * gvals) @ v.conj().T)


def trace_inner_product(a: HermitianOperator, b: HermitianOperator) -> float:
    """Hilbert-Schmidt inner product tr(A^H B); imaginary residue discarded."""
    if a.dim != b.dim:
        raise InvalidInput(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(np.vdot(a.mat, b.mat).real)


def schatten_norm(a: HermitianOperator, p) -> float:
    """Schatten p-norm for p in {1, 2, inf} of a Hermitian operator."""
    vals = np.linalg.eigvalsh(a.mat)
    if p == 1:
        return float(np.sum(np.abs(vals)))
    if p == 2:
        return float(np.sqrt(np.sum(vals * vals)))
    if p in (np.inf, float("inf"), "inf"):
        return float(np.max(np.abs(vals))) if vals.size else 0.0
    raise InvalidInput(f"unsupported Schatten order {p!r}")


def eigen_extremes(a: HermitianOperator) -> tuple[float, float]:
    """Smallest and largest eigenvalues (lambda_min, lambda_max)."""
    vals = np.linalg.eigvalsh(a.mat)
    return float(vals[0]), float(vals[-1])


class DensityState:
    """Strictly positive-definite, unit-trace Hermitian matrix in log domain.

    The state is carried as a Hermitian exponent H with rho = exp(H), kept
    normalized so that tr exp(H) = 1 (logsumexp of H's eigenvalues is zero).
    The realized eigensystem of rho is stored alongside, and the matrix rho
    is formed once, on first use. If a materialized eigenvalue falls below
    the floor the state is flagged, not rejected: the solver observes
    near-singularity rather than fabricating interiority.
    """

    __slots__ = ("exponent", "eigenvalues", "eigenvectors", "floor_clamped", "_matrix")

    def __init__(self, exponent, eigenvalues, eigenvectors, floor_clamped):
        self.exponent = exponent
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        self.floor_clamped = floor_clamped
        self._matrix = None

    @classmethod
    def from_exponent(cls, h, eig_floor: float = DEFAULT_EIG_FLOOR) -> "DensityState":
        """Build exp(H)/tr exp(H) from a Hermitian exponent H.

        H is a HermitianOperator or a square array, of which the Hermitian
        part is taken. One eigendecomposition; a non-finite H raises
        InvalidInput, detected on the eigenvalues it yields.
        """
        if isinstance(h, HermitianOperator):
            a = h.mat
        else:
            a = np.asarray(h, dtype=np.complex128)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
            a = _hermitian_part(a)
        try:
            vals, v = np.linalg.eigh(a)
        except np.linalg.LinAlgError:  # LAPACK does not converge on inf entries
            raise InvalidInput("exponent has non-finite entries") from None
        if not np.all(np.isfinite(vals)):
            raise InvalidInput("exponent has non-finite entries")
        w = vals - logsumexp(vals)
        v.flags.writeable = False
        exponent = HermitianOperator._trusted((v * w) @ v.conj().T)
        eigenvalues = np.exp(w)
        eigenvalues.flags.writeable = False
        return cls(exponent, eigenvalues, v, bool(eigenvalues[0] < eig_floor))

    @classmethod
    def from_matrix(cls, rho, eig_floor: float = DEFAULT_EIG_FLOOR) -> "DensityState":
        """Build from a positive-definite unit-trace matrix."""
        if not isinstance(rho, HermitianOperator):
            rho = HermitianOperator(rho)
        vals, vecs = np.linalg.eigh(rho.mat)
        tr = float(np.sum(vals))
        if abs(tr - 1.0) > 1e-8:
            raise InvalidInput(f"trace {tr} is not 1")
        if vals[0] <= 0.0:
            raise DomainError("matrix is singular or indefinite; cannot take log")
        return cls.from_exponent(HermitianOperator((vecs * np.log(vals)) @ vecs.conj().T), eig_floor)

    @classmethod
    def maximally_mixed(cls, d: int) -> "DensityState":
        return cls.from_exponent(HermitianOperator(np.zeros((d, d))))

    @property
    def dim(self) -> int:
        return self.exponent.dim

    @property
    def min_eig(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def matrix(self) -> np.ndarray:
        """rho as a read-only d x d array."""
        if self._matrix is None:
            v = self.eigenvectors
            self._matrix = (v * self.eigenvalues) @ v.conj().T
            self._matrix.flags.writeable = False
        return self._matrix

    def inverse(self) -> HermitianOperator:
        with np.errstate(divide="ignore", over="ignore"):
            inv = 1.0 / self.eigenvalues
        if not np.all(np.isfinite(inv)):
            raise DomainError("inverse undefined for a numerically singular state")
        v = self.eigenvectors
        return HermitianOperator._trusted((v * inv) @ v.conj().T)

    def __repr__(self):
        return f"DensityState(dim={self.dim}, min_eig={self.min_eig:.3e})"
