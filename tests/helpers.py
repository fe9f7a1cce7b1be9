"""Reference functions that only the tests read: the random density
matrices and measurement ensembles of the test instances, a Schatten norm,
the classical KL divergence, the witness that the tomography objective is
not relatively smooth, an exact-arithmetic oracle for the solver's Armijo
product, divergence and tomography value difference, and an ensemble loader
that parses a whole file at once. Test modules import them as
``from helpers import ...`` (pytest puts this directory on the path)."""

import json

import mpmath
import numpy as np

from expgrad.diagnostics import random_psd
from expgrad.entropy import ProbabilityVector
from expgrad.errors import DomainError, InvalidInput
from expgrad.linalg import DensityState, HermitianOperator
from expgrad.objectives import MeasurementEnsemble
from expgrad.serialize import matrix_from_json


def random_density(rng, d: int) -> DensityState:
    """exp(H) / tr exp(H) for the Hermitian part H of a complex Gaussian
    d x d matrix, scaled to unit Frobenius norm. Not
    diagnostics.random_density, whose norm sums in another order and so
    differs in the last bits of some draws."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = HermitianOperator(a)
    return DensityState.from_exponent(HermitianOperator(h.mat * (1.0 / np.linalg.norm(h.mat))))


def random_ensemble(rng, d: int, m: int) -> MeasurementEnsemble:
    """m operators A^H A, each of a complex Gaussian d x d matrix A."""
    return MeasurementEnsemble([random_psd(rng, d) for _ in range(m)])


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


def json_load_ensemble(path) -> MeasurementEnsemble:
    """serialize.load_ensemble by json.load of the whole file into nested
    lists, then its checks and conversions in their order: the reference
    whose exceptions and stacks the streaming loader must give."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or type(payload.get("dim")) is not int or "operators" not in payload:
        raise InvalidInput("ensemble file must contain an integer 'dim' and 'operators'")
    if not isinstance(payload["operators"], list):
        raise InvalidInput("'operators' must be a list of matrices")
    ens = MeasurementEnsemble([matrix_from_json(m) for m in payload["operators"]])
    if ens.dim != payload["dim"]:
        raise InvalidInput("ensemble dimension does not match its operators")
    return ens


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


_DIGITS = 60  # of the exact evaluations below


def _exact_matrix(state, log: bool = False) -> list:
    """rho = V diag(exp w) V^H, or with `log` log rho = V diag(w) V^H, of a
    DensityState as nested lists of mpmath numbers, from its stored
    eigenvectors V and log-eigenvalues w taken as exact."""
    w = [mpmath.mpf(float(x)) for x in state.log_eigenvalues]
    values = w if log else [mpmath.exp(x) for x in w]
    v = [[mpmath.mpc(complex(x)) for x in row] for row in state.eigenvectors]
    d = len(v)
    out = [[None] * d for _ in range(d)]
    for i in range(d):  # one triangle, mirrored: the matrix is Hermitian
        scaled = [v[i][k] * values[k] for k in range(d)]
        for j in range(i, d):
            out[i][j] = mpmath.fdot(scaled, [mpmath.conj(x) for x in v[j]])
            out[j][i] = mpmath.conj(out[i][j])
    return out


def _exact_inner(a, b, c):
    """Re sum_ij conj(a_ij) (b_ij - c_ij), as numpy.vdot(a, b - c).real."""
    return mpmath.re(mpmath.fsum(
        mpmath.conj(x) * (y - z) for ra, rb, rc in zip(a, b, c) for x, y, z in zip(ra, rb, rc)))


def exact_armijo_product(new, old, g: np.ndarray) -> float:
    """<g, rho_new - rho_old>, the product of the Armijo test, at 60 digits
    for DensityStates new and old and a Hermitian float array g taken as
    exact."""
    with mpmath.workdps(_DIGITS):
        return float(_exact_inner([[mpmath.mpc(complex(x)) for x in row] for row in g],
                                  _exact_matrix(new), _exact_matrix(old)))


def exact_divergence(new, old, unit_trace: bool = False) -> float:
    """D(new, old) = <rho_new, log rho_new - log rho_old> at 60 digits, the
    solver's stopping gap entropy._divergence up to its unit-trace term. With
    `unit_trace`, minus tr(rho_new - rho_old) too: the quantity
    entropy._divergence and quantum_relative_entropy round. That term is not
    zero, as the stored log-eigenvalues are normalized in floating point."""
    with mpmath.workdps(_DIGITS):
        rho_new = _exact_matrix(new)
        out = _exact_inner(rho_new, _exact_matrix(new, log=True), _exact_matrix(old, log=True))
        if unit_trace:
            rho_old = _exact_matrix(old)
            out -= mpmath.re(mpmath.fsum(rho_new[i][i] - rho_old[i][i] for i in range(len(rho_new))))
        return float(out)


def exact_value_difference(new, old, operators) -> float:
    """f(new) - f(old) for qst_objective, f(rho) = -sum_i log tr(M_i rho), at
    60 digits for DensityStates new and old and the float operators M_i (an
    (m, d, d) array) taken as exact: the difference that solver._armijo tests
    against tau times the Armijo product."""
    with mpmath.workdps(_DIGITS):
        a, b = _exact_matrix(new), _exact_matrix(old)
        total = mpmath.mpf(0)
        for m in operators:
            m = [[mpmath.mpc(complex(x)) for x in row] for row in m]
            # tr(M rho) = sum_jk M_jk conj(rho_jk), as rho is Hermitian
            t_new, t_old = (mpmath.re(mpmath.fsum(x * mpmath.conj(y) for rm, rr in zip(m, rho)
                                                  for x, y in zip(rm, rr))) for rho in (a, b))
            total += mpmath.log(t_old) - mpmath.log(t_new)
        return float(total)
