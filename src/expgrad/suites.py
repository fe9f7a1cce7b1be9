"""Batch diagnostic suites over seeded random probes.

Each suite evaluates one check on a reproducible probe population and emits
one record per probe: {check, seed, dim, pass, worst_margin}. A check is one
function (_CHECKS) from a stacked probe's _Table, the numbers it reads, to a
margin per probe: the worst remaining slack after the check's stated
tolerance, so pass is equivalent to worst_margin >= 0. A record has the same
bits whether its check runs alone or under "all", and memory is bounded as
in diagnostics: no stack that a check forms for a decomposition takes more
than linalg._STACK_ELEMENTS matrix entries, or one probe's row of steps.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .diagnostics import (
    LogPartitionProbe,
    _gap,
    _moments,
    _steps,
    chi,
    fixed_point_check,
    phi,
    phi_derivatives,  # noqa: F401
    random_probe,
)
# phi_derivatives and quantum_relative_entropy are not called here; perfbench's tracer wraps them
from .entropy import _relative_entropy, quantum_relative_entropy  # noqa: F401
from .errors import InvalidInput
from .linalg import DensityState, _count, logsumexp
from .objectives import qst_objective, standard_basis_ensemble


SUITE_NAMES = ("sandwich", "ratio", "moments", "kappa", "fixed-point",
               "self-concordance", "all")

_PROBE_DIMS = (2, 3, 5, 8)
_FD_STEPS = (1e-4, 1e-3, 1e-2)
_GRID = np.geomspace(1e-3, 10.0, 25)  # the ratio and self-concordance grid
_SANDWICH = np.array([0.1, 1.0, 5.0])
_MOMENTS = np.array([0.1, 0.3, 0.7])  # exact derivatives against finite differences
_PATH = np.array([0.1, 0.5, 1.0])  # the Bregman gap against the relative-entropy path
_KAPPA_STEPS = np.append(np.linspace(0.05, 1.0, 20), 1.0)  # a grid in (0, alpha_bar], then alpha_bar = 1.0


def phi_fd_derivatives(probe: LogPartitionProbe, alpha, h):
    """Central-difference oracle for the first three derivatives of phi,
    Richardson-extrapolated from steps h and h/2. alpha and h broadcast. A
    step h that is not positive raises InvalidInput."""
    a, h = np.broadcast_arrays(_steps(alpha), _steps(h))
    if not np.all(h > 0.0):
        raise InvalidInput("finite-difference steps must be positive")
    step = np.stack([h, h / 2])[..., None]  # (coarse, fine), then the stencil axis
    stencil = a[..., None] + np.arange(-2.0, 3.0) * step
    points, at = np.unique(stencil, return_inverse=True)
    pm2, pm1, p0, pp1, pp2 = np.moveaxis(phi(probe, points)[..., at.reshape(stencil.shape)], -1, 0)
    step = step[..., 0]
    d1 = (pp1 - pm1) / (2 * step)
    d2 = (pp1 - 2 * p0 + pm1) / (step * step)
    d3 = (pp2 - 2 * pp1 + 2 * pm1 - pm2) / (2 * step ** 3)
    coarse, fine = np.moveaxis(np.stack([d1, d2, d3]), -1 - a.ndim, 0)
    return tuple((4.0 * fine - coarse) / 3.0)


class _Table:
    """The numbers the named checks (_CHECKS) read of a stacked probe, by step: phi and its
    derivatives up to the highest order a check reads there, with the bits _moments gives, and,
    for the moments check, D(rho(alpha), rho) on its relative-entropy path (_PATH), with
    rho(alpha) = exp(H_alpha) / tr exp(H_alpha). Each step is decomposed once per probe."""

    def __init__(self, probe: LogPartitionProbe, names):
        order = {}  # each step, with the highest derivative order read there
        for k, steps in (read for n in names for read in _CHECKS[n][1]):
            order.update({a: max(order.get(a, 0), k) for a in steps.tolist()})
        self.column = {a: i for i, a in enumerate(sorted(order, key=lambda a: (order[a], a)))}
        self.moments = np.full((4, len(probe.base), len(order)), np.nan)
        self.divergence = np.full((len(probe.base), len(_PATH)), np.nan)
        steps, per_order = np.array(list(self.column)), np.bincount(list(order.values()), minlength=4)
        for chunk, p in probe._parts(len(steps)) if order else ():
            eig = np.linalg.eigh(p.hamiltonian_exponent(steps))
            for k in np.flatnonzero(per_order):  # the columns of one order are a slice
                at = slice(per_order[:k].sum(), per_order[:k + 1].sum())
                self.moments[:k + 1, chunk, at] = _moments(p, steps[at], k, tuple(x[:, at] for x in eig))
            if "moments" in names:
                vals, u = (x[:, [self.column[a] for a in _PATH.tolist()]] for x in eig)
                w = np.stack([b.log_eigenvalues for b in p.base])[:, None]
                v = np.stack([b.eigenvectors for b in p.base])[:, None]
                self.divergence[chunk] = _relative_entropy(vals - logsumexp(vals)[..., None], u, w, v)

    def read(self, steps, order: int):  # phi and its first `order` derivatives, (probe, step) each
        return tuple(self.moments[:order + 1, :, [self.column[a] for a in steps.tolist()]])


# Each check maps the stacked probes of one dimension, and their table, to one margin per probe.
# D(alpha) is the Bregman gap D(rho(alpha), rho) and x = Delta alpha. At a zero width Delta the sandwich
# margin is +inf, the ratio and kappa margins 0.0.
def _check_sandwich(probe, table):
    """(e^-x + x - 1) phi''/Delta^2 <= D <= (e^x - x - 1) phi''/Delta^2 within 1e-9, lower >= -1e-12."""
    value, d1, var = table.read(_SANDWICH, 2)
    d = probe.delta[:, None]
    x, dd = d * _SANDWICH, np.where(d == 0.0, 1.0, d * d)
    lower, upper = (np.expm1(-x) + x) / dd * var, (np.expm1(x) - x) / dd * var
    gap = _gap(probe, _SANDWICH, value, d1)
    margin = np.min([gap - lower + 1e-9, upper - gap + 1e-9, lower + 1e-12], axis=(0, -1))
    return np.where(probe.delta == 0.0, math.inf, margin)


def _check_ratio(probe, table):
    """D(alpha) / chi(x) non-increasing on _GRID: each at most the one before (1 + 1e-8) + 1e-12."""
    d = probe.delta[:, None]
    gaps = _gap(probe, _GRID, *table.read(_GRID, 1))
    ratios = np.divide(gaps, chi(d * _GRID), out=np.zeros_like(gaps), where=d != 0.0)
    excess = ratios[:, 1:] - (ratios[:, :-1] * (1.0 + 1e-8) + 1e-12)
    return np.where(probe.delta == 0.0, 0.0, -np.max(excess, axis=-1, initial=0.0))


def _check_moments(probe, table):
    """phi' to phi''' within 1e-5 of finite differences, phi'' <= Delta^2/4 + 1e-10, D within 1e-8."""
    analytic = np.array(table.read(_MOMENTS, 3)[1:])  # (derivative, probe, alpha)
    # every finite-difference step h in one call: (h, derivative, probe, alpha)
    fd = np.moveaxis(phi_fd_derivatives(probe, _MOMENTS, np.array(_FD_STEPS)[:, None]), -2, 0)
    best = np.min(np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic)), axis=0)
    margin = np.min(1e-5 - best, axis=(0, -1))
    # variance bound: phi'' <= Delta^2 / 4
    margin = np.minimum(margin, np.min(probe.delta[:, None] ** 2 / 4.0 + 1e-10 - analytic[1], axis=-1))
    # Bregman-gap identity against the relative-entropy path, with
    # rho(alpha) = eg_step(rho, -G, alpha) from the table's H_alpha
    direct = table.divergence
    gap = _gap(probe, _PATH, *table.read(_PATH, 1))
    rel = np.abs(gap - direct) / np.maximum(np.abs(direct), 1e-12)
    return np.minimum(margin, np.min(1e-8 - rel, axis=-1))


def _check_kappa(probe, table):
    """D(alpha)/alpha^2 >= kappa D(1) - 1e-9 max(1, kappa D(1)), kappa = Delta^2/(2 chi(Delta))."""
    d, grid = probe.delta, _KAPPA_STEPS[:-1]
    gaps = _gap(probe, _KAPPA_STEPS, *table.read(_KAPPA_STEPS, 1))
    rhs = np.divide(d * d, 2.0 * chi(d), out=np.zeros(d.shape), where=d != 0.0) * gaps[:, -1]
    worst = np.min(gaps[:, :-1] / (grid * grid) - rhs[:, None], axis=-1)
    return np.where(d == 0.0, 0.0, worst + 1e-9 * np.maximum(1.0, np.abs(rhs)))


def _check_fixed_point(probe, _):
    """The optimum, the maximally mixed state, fixed with margin >= -1e-8; no base state fixed."""
    d = probe.dim
    res = fixed_point_check([DensityState.maximally_mixed(d), *probe.base],
                            qst_objective(standard_basis_ensemble(d)), (0.1, 1.0, 3.0))
    margin = res.optimality_margin[0] + 1e-8 if res.is_fixed_point[0] else -1.0
    return np.where(res.is_fixed_point[1:], -1.0, margin)


def _check_self_concordance(probe, table):
    """|phi'''| <= Delta phi'' on _GRID, within 1e-10 max(1, Delta phi'')."""
    _, _, var, third = table.read(_GRID, 3)
    bound = probe.delta[:, None] * var
    return 1e-10 - np.max((np.abs(third) - bound) / np.maximum(1.0, bound), axis=-1)


# Each check, with the (order, steps) it reads from the table: the highest
# derivative order read at those steps.
_CHECKS: dict[str, tuple[Callable, tuple]] = {
    "sandwich": (_check_sandwich, ((2, _SANDWICH),)),
    "ratio": (_check_ratio, ((1, _GRID),)),
    "moments": (_check_moments, ((3, _MOMENTS), (1, _PATH))),
    "kappa": (_check_kappa, ((1, _KAPPA_STEPS),)),
    "fixed-point": (_check_fixed_point, ()),
    "self-concordance": (_check_self_concordance, ((3, _GRID),)),
}


def run_suite(name: str, samples: int, seed: int) -> list[dict]:
    """The records of a named suite, or of every check under "all", over
    `samples` seeded probes. Probe i draws from default_rng([seed, i]) and
    has dimension (2, 3, 5, 8)[i % 4], with a tomography-gradient direction
    for even i and a random Hermitian one for odd i: every probe of dimension
    2 or 5 is a tomography probe, every probe of dimension 3 or 8 a Hermitian
    one, and no base state commutes with its direction. An unknown name,
    samples or seed not an integer (a bool is not one), samples below 1 or
    seed below 0 raise InvalidInput."""
    if name not in SUITE_NAMES:
        raise InvalidInput(f"unknown suite {name!r}")
    _count(samples, "samples", 1)
    _count(seed, "seed", 0)
    names = [n for n in SUITE_NAMES if n != "all"] if name == "all" else [name]
    margins = np.empty((len(names), samples))
    for k, d in enumerate(_PROBE_DIMS):
        idx = range(k, samples, len(_PROBE_DIMS))
        if not idx:
            continue
        probe = random_probe([np.random.default_rng([seed, i]) for i in idx], d,
                             ["qst" if i % 2 == 0 else "hermitian" for i in idx])
        table = _Table(probe, names)
        for row, check_name in zip(margins, names):
            row[idx] = _CHECKS[check_name][0](probe, table)
    return [{
        "check": check_name,
        "seed": seed,
        "dim": _PROBE_DIMS[i % len(_PROBE_DIMS)],
        "pass": bool(margin >= 0.0),
        "worst_margin": float(margin),
    } for check_name, row in zip(names, margins) for i, margin in enumerate(row)]
