"""Batch diagnostic suites over seeded random probes.

Each suite evaluates one family of checks on a reproducible probe population
and emits one record per probe: {check, seed, dim, pass, worst_margin}. A
margin is the worst remaining slack after the check's stated tolerance, so
pass is equivalent to worst_margin >= 0. The probes of each dimension are
built as one stack, and each check runs once per dimension on that stack,
with whole alpha grids; under "all", the ratio and self-concordance checks
read one pass of phi and its derivatives on their common grid.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .diagnostics import (
    LogPartitionProbe,
    _concordance_excess,
    _gap,
    _moments,
    _ratio_check,
    fixed_point_check,
    kappa_bound_check,
    phi,
    phi_derivatives,
    random_probe,
    sandwich_check,
)
# quantum_relative_entropy is not called here, but perfbench's tracer wraps it under this name
from .entropy import _relative_entropy, quantum_relative_entropy  # noqa: F401
from .errors import InvalidInput
from .linalg import DensityState, logsumexp
from .objectives import qst_objective, standard_basis_ensemble

__all__ = ["SUITE_NAMES", "run_suite", "phi_fd_derivatives"]

SUITE_NAMES = ("sandwich", "ratio", "moments", "kappa", "fixed-point",
               "self-concordance", "all")

_PROBE_DIMS = (2, 3, 5, 8)
_FD_STEPS = (1e-4, 1e-3, 1e-2)
_GRID = np.geomspace(1e-3, 10.0, 25)  # the ratio and self-concordance grid


def phi_fd_derivatives(probe: LogPartitionProbe, alpha, h):
    """Central-difference oracle for the first three derivatives of phi,
    Richardson-extrapolated from steps h and h/2. alpha and h broadcast; the
    distinct stencil points take one stacked phi call."""
    a, h = np.broadcast_arrays(np.asarray(alpha, dtype=np.float64), np.asarray(h, dtype=np.float64))
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


# Each check takes the stacked probes of one dimension, and phi with its
# three derivatives on _GRID (diagnostics._moments) when the suite has them
# for ratio and self-concordance together (else None), and returns one margin
# per probe.
def _check_sandwich(probe, _):
    res = sandwich_check(probe, np.array([0.1, 1.0, 5.0]))
    margin = np.min([res.gap - res.lower + 1e-9, res.upper - res.gap + 1e-9, res.lower + 1e-12],
                    axis=(0, -1))
    return np.where(res.degenerate, math.inf, margin)


def _check_ratio(probe, derivatives):
    # phi and phi' are the same bits at every order of _moments
    res = _ratio_check(probe, _GRID, *(derivatives or _moments(probe, _GRID, 1))[:2])
    return np.where(res.degenerate, 0.0, -res.worst_violation)


def _check_moments(probe, _):
    alphas = np.array([0.1, 0.3, 0.7])
    analytic = np.array(phi_derivatives(probe, alphas))  # (derivative, probe, alpha)
    fd = np.array([phi_fd_derivatives(probe, alphas, h) for h in _FD_STEPS])  # one stack per h
    best = np.min(np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic)), axis=0)
    margin = np.min(1e-5 - best, axis=(0, -1))
    # variance bound: phi'' <= Delta^2 / 4
    margin = np.minimum(margin, np.min(probe.delta[:, None] ** 2 / 4.0 + 1e-10 - analytic[1], axis=-1))
    # Bregman-gap identity against the relative-entropy path, with
    # rho(alpha) = eg_step(rho, -G, alpha) from the same H_alpha; the gap is
    # bregman_gap(probe, alphas), reading that one decomposition
    alphas = np.array([0.1, 0.5, 1.0])
    vals, u = np.linalg.eigh(probe.hamiltonian_exponent(alphas))
    lam = np.stack([b.eigenvalues for b in probe.base])[:, None]
    v = np.stack([b.eigenvectors for b in probe.base])[:, None]
    direct = _relative_entropy(np.exp(vals - logsumexp(vals)[..., None]), u, lam, v)
    gap = _gap(probe, alphas, *_moments(probe, alphas, 1, (vals, u)))
    rel = np.abs(gap - direct) / np.maximum(np.abs(direct), 1e-12)
    return np.minimum(margin, np.min(1e-8 - rel, axis=-1))


def _check_kappa(probe, _):
    res = kappa_bound_check(probe, 1.0, np.linspace(0.05, 1.0, 20))
    return np.where(res.degenerate, 0.0, res.worst_margin + 1e-9 * np.maximum(1.0, np.abs(res.rhs)))


def _check_fixed_point(probe, _):
    # one stack: the maximally mixed state, the optimum, must be a fixed
    # point; the control, the probes' base states (random densities), not
    d = probe.dim
    res = fixed_point_check([DensityState.maximally_mixed(d), *probe.base],
                            qst_objective(standard_basis_ensemble(d)), (0.1, 1.0, 3.0))
    margin = res.optimality_margin[0] + 1e-8 if res.is_fixed_point[0] else -1.0
    return np.where(res.is_fixed_point[1:], -1.0, margin)


def _check_self_concordance(probe, derivatives):
    return 1e-10 - _concordance_excess(probe, *(derivatives or _moments(probe, _GRID, 3))[2:])


_CHECKS: dict[str, Callable] = {
    "sandwich": _check_sandwich,
    "ratio": _check_ratio,
    "moments": _check_moments,
    "kappa": _check_kappa,
    "fixed-point": _check_fixed_point,
    "self-concordance": _check_self_concordance,
}


def run_suite(name: str, samples: int, seed: int) -> list[dict]:
    """Run a named suite (or all of them) over `samples` seeded probes.

    Probe i has dimension (2, 3, 5, 8)[i % 4] and a tomography-gradient
    direction for even i, a plain Hermitian one for odd i, covering both
    commuting and non-commuting (state, direction) pairs; it draws from its
    own generator, default_rng([seed, i]). The probes of each dimension are
    built as one stack, from 3 or 4 stacked decompositions, and each check
    runs once per dimension on that stack, at a fixed cost per dimension:
    sandwich, ratio, kappa and self-concordance 1 (a gap reads phi from the
    decomposition that gives phi'), moments 5, fixed point 5 (one check of
    the optimum stacked with the base states). Under "all", ratio and
    self-concordance share one third-order pass on their common grid, which
    carries phi too, so "all" costs 13 per dimension, not 14, and its
    records equal the six single-check suites' bit for bit.
    """
    if name not in SUITE_NAMES:
        raise InvalidInput(f"unknown suite {name!r}")
    if samples < 1:
        raise InvalidInput("samples must be at least 1")
    names = [n for n in SUITE_NAMES if n != "all"] if name == "all" else [name]
    shared = "ratio" in names and "self-concordance" in names
    margins = np.empty((len(names), samples))
    for k, d in enumerate(_PROBE_DIMS):
        idx = range(k, samples, len(_PROBE_DIMS))
        if not idx:
            continue
        probe = random_probe([np.random.default_rng([seed, i]) for i in idx], d,
                             ["qst" if i % 2 == 0 else "hermitian" for i in idx])
        derivatives = _moments(probe, _GRID, 3) if shared else None
        for row, check_name in zip(margins, names):
            row[idx] = _CHECKS[check_name](probe, derivatives)
    return [{
        "check": check_name,
        "seed": seed,
        "dim": _PROBE_DIMS[i % len(_PROBE_DIMS)],
        "pass": bool(margin >= 0.0),
        "worst_margin": float(margin),
    } for check_name, row in zip(names, margins) for i, margin in enumerate(row)]
