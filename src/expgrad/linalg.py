"""Dense Hermitian linear algebra: the validating Hermitian input type
and the log-domain density-matrix representation.

Everything here is dense and double precision; the methods built on top are
spectral-decomposition-bound, so there is nothing to gain from sparsity at
the target sizes (d <= 64).
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

from .errors import DomainError, InvalidInput


def logsumexp(x: np.ndarray):
    """log sum exp(x) over the last axis, for rows with a finite maximum,
    shifted by that maximum so that no term overflows; -inf entries
    contribute nothing. A vector gives a float, a stack an array."""
    top = x.max(axis=-1, keepdims=True)
    out = top[..., 0] + np.log(np.exp(x - top).sum(axis=-1))
    return float(out) if out.ndim == 0 else out


# The most matrix entries in one stacked eigh or eigvalsh of a stack that a
# check forms: a larger one is formed and decomposed in chunks along its first
# axis (_chunks), the same bits per matrix. A stack that exists already is
# decomposed whole, as chunks of it would bound no memory.
_STACK_ELEMENTS = 20_000


def _chunks(count: int, row: int) -> list[slice]:
    """Slices of a stack of `count` rows of `row` matrix entries each: each
    slice holds at most _STACK_ELEMENTS entries, or one row."""
    size = max(1, _STACK_ELEMENTS // max(row, 1))
    return [slice(s, s + size) for s in range(0, count, size)]


def _joined(parts: list):
    """The results of one call per chunk, an array or a tuple of arrays each,
    joined on their first axis; one chunk's as they are."""
    if len(parts) == 1:
        return parts[0]
    return tuple(map(np.concatenate, zip(*parts))) if isinstance(parts[0], tuple) else np.concatenate(parts)


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _array(entries, dtype=None, copy=True, what: str = "input") -> np.ndarray:
    """numpy.array of caller input, the one conversion of it: the array numpy
    reads, then cast to dtype where it is not that already, with string
    entries, numeric ones included, and numpy's errors (a mapping, ragged
    nesting, an integer no double holds) as InvalidInput."""
    try:
        a = np.array(entries, copy=copy)
        if a.dtype.kind in "SU":  # a cast to dtype would parse "1" as a number
            raise TypeError(f"string entries of dtype {a.dtype}")
        return a if dtype is None else a.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed {what}: {exc}") from None


def _count(value, what: str, least: int) -> None:
    """InvalidInput unless caller input that counts is an integer, not a
    bool, of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InvalidInput(f"{what} must be an integer of at least {least}, got {value!r}")


def _positive(value, what: str, below: float = math.inf) -> None:
    """InvalidInput unless caller input that is a step, weight, factor or
    tolerance is a real number, not a bool, in (0, below) that a double holds."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            0.0 < value < below and value <= sys.float_info.max):
        raise InvalidInput(f"{what} must be a finite number in (0, {below:g}), got {value!r}")


def _hermitian(entries, ndim: int = 2) -> np.ndarray:
    """The Hermitian part (A + A^H)/2 of a square matrix (ndim 2) or a stack
    of them (ndim 3), formed in place on a fresh copy with the bits of
    _hermitian_part, and returned read-only; other shapes, and a non-finite
    part (non-finite input, or overflow), raise InvalidInput."""
    a = _array(entries, np.complex128)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        a += a.conj().swapaxes(-1, -2)
        np.multiply(0.5, a, out=a)  # not a *= 0.5, whose loop rounds signed zeros differently
    if not np.isfinite(a).all():
        raise InvalidInput("matrix has non-finite entries")
    a.flags.writeable = False
    return a


class HermitianOperator:
    """A validated d x d complex Hermitian matrix, the read-only ``mat`` that
    _hermitian gives. It is an array-like, accepted wherever a matrix is;
    past the API boundary the package works on the plain array."""

    __slots__ = ("mat",)

    def __init__(self, entries):
        self.mat = _hermitian(entries)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.mat, dtype=dtype, copy=copy)


class DensityState:
    """Strictly positive-definite, unit-trace Hermitian matrix in log domain.

    The state is carried as the eigenvectors V and the normalized
    log-eigenvalues w of rho = V diag(exp w) V^H, so that tr rho = 1; w is
    ``log_eigenvalues``, ascending and finite where an eigenvalue exp(w)
    underflows to 0.0. The read-only Hermitian exponent H = log rho and the
    matrix rho are each formed once, on first read: an Armijo candidate that
    is rejected needs neither.
    """

    __slots__ = ("log_eigenvalues", "eigenvalues", "eigenvectors", "_exponent", "_matrix")

    def __init__(self, log_eigenvalues, eigenvectors):
        """The state of an ascending log-spectrum with a finite maximum,
        shifted here by its logsumexp, and of the eigenvectors V; w, exp(w)
        and V are kept read-only."""
        self.log_eigenvalues = log_eigenvalues - logsumexp(log_eigenvalues)
        self.eigenvalues = np.exp(self.log_eigenvalues)
        self.eigenvectors = eigenvectors
        for a in (self.log_eigenvalues, self.eigenvalues, eigenvectors):
            a.flags.writeable = False
        self._exponent = self._matrix = None

    @classmethod
    def from_exponent(cls, h) -> "DensityState":
        """Build exp(H)/tr exp(H) from a Hermitian exponent H, a square
        array read as numpy.linalg.eigh reads it (lower triangle, no
        symmetrizing copy), so one that is Hermitian already. One
        eigendecomposition; an empty or non-finite H raises InvalidInput, the
        latter detected on the eigenvalues it yields."""
        a = _array(h, np.complex128, copy=None)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
            raise InvalidInput(f"expected a nonempty square matrix, got shape {a.shape}")
        try:
            vals, v = np.linalg.eigh(a)
        except np.linalg.LinAlgError:  # LAPACK does not converge on inf entries
            raise InvalidInput("exponent has non-finite entries") from None
        if not np.isfinite(vals).all():
            raise InvalidInput("exponent has non-finite entries")
        return cls(vals, v)

    @classmethod
    def from_matrix(cls, rho) -> "DensityState":
        """Build from a positive-definite unit-trace matrix, from its own
        eigenpairs: one eigendecomposition."""
        vals, vecs = np.linalg.eigh(_hermitian(rho))
        tr = float(np.sum(vals))
        if abs(tr - 1.0) > 1e-8:
            raise InvalidInput(f"trace {tr} is not 1")
        if vals[0] <= 0.0:
            raise DomainError("matrix is singular or indefinite; cannot take log")
        return cls(np.log(vals), vecs)

    @classmethod
    def maximally_mixed(cls, d: int) -> "DensityState":
        """I/d in closed form, log-spectrum -log d and eigenbasis I: the bits
        of from_exponent of the zero matrix, with no eigendecomposition."""
        _count(d, "dimension", 1)
        return cls(np.zeros(d), np.eye(d, dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def min_eig(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def exponent(self) -> np.ndarray:
        """log rho as a read-only Hermitian d x d array."""
        if self._exponent is None:
            v = self.eigenvectors
            self._exponent = _hermitian_part((v * self.log_eigenvalues) @ v.conj().T)
            self._exponent.flags.writeable = False
        return self._exponent

    @property
    def matrix(self) -> np.ndarray:
        """rho as a read-only d x d array."""
        if self._matrix is None:
            v = self.eigenvectors
            self._matrix = (v * self.eigenvalues) @ v.conj().T
            self._matrix.flags.writeable = False
        return self._matrix

    point = matrix  # the realized point, under the name ProbabilityVector shares

    def inverse(self) -> np.ndarray:
        """rho^{-1} as a read-only Hermitian array."""
        with np.errstate(divide="ignore", over="ignore"):
            inv = 1.0 / self.eigenvalues
        if not np.all(np.isfinite(inv)):
            raise DomainError("inverse undefined for a numerically singular state")
        v = self.eigenvectors
        out = _hermitian_part((v * inv) @ v.conj().T)
        out.flags.writeable = False
        return out

    def __repr__(self):
        return f"DensityState(dim={self.dim}, min_eig={self.min_eig:.3e})"
