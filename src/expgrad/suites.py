"""Batch diagnostic suites over seeded random probes.

Each suite evaluates one family of checks on a reproducible probe population
and emits one record per probe: {check, seed, dim, pass, worst_margin}. A
margin is the worst remaining slack after the check's stated tolerance, so
pass is equivalent to worst_margin >= 0. Each check runs once per probe
dimension, on the stacked probes of that dimension, with whole alpha grids.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .diagnostics import (
    LogPartitionProbe,
    bregman_gap,
    fixed_point_check,
    kappa_bound_check,
    phi,
    phi_derivatives,
    random_density,
    random_probe,
    ratio_monotonicity_check,
    sandwich_check,
    self_concordance_check,
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


# Each check takes the stacked probes of one dimension and their generators,
# and returns one margin per probe.
def _check_sandwich(probe, rngs):
    res = sandwich_check(probe, np.array([0.1, 1.0, 5.0]))
    margin = np.min([res.gap - res.lower + 1e-9, res.upper - res.gap + 1e-9, res.lower + 1e-12],
                    axis=(0, -1))
    return np.where(res.degenerate, math.inf, margin)


def _check_ratio(probe, rngs):
    res = ratio_monotonicity_check(probe, np.geomspace(1e-3, 10.0, 25))
    return np.where(res.degenerate, 0.0, -res.worst_violation)


def _check_moments(probe, rngs):
    alphas = np.array([0.1, 0.3, 0.7])
    analytic = np.array(phi_derivatives(probe, alphas))  # (derivative, probe, alpha)
    fd = np.array([phi_fd_derivatives(probe, alphas, h) for h in _FD_STEPS])  # one stack per h
    best = np.min(np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic)), axis=0)
    margin = np.min(1e-5 - best, axis=(0, -1))
    # variance bound: phi'' <= Delta^2 / 4
    margin = np.minimum(margin, np.min(probe.delta[:, None] ** 2 / 4.0 + 1e-10 - analytic[1], axis=-1))
    # Bregman-gap identity against the relative-entropy path, with
    # rho(alpha) = eg_step(rho, -G, alpha) from the same H_alpha
    alphas = np.array([0.1, 0.5, 1.0])
    vals, u = np.linalg.eigh(probe.hamiltonian_exponent(alphas))
    lam = np.stack([b.eigenvalues for b in probe.base])[:, None]
    v = np.stack([b.eigenvectors for b in probe.base])[:, None]
    direct = _relative_entropy(np.exp(vals - logsumexp(vals)[..., None]), u, lam, v)
    rel = np.abs(bregman_gap(probe, alphas) - direct) / np.maximum(np.abs(direct), 1e-12)
    return np.minimum(margin, np.min(1e-8 - rel, axis=-1))


def _check_kappa(probe, rngs):
    res = kappa_bound_check(probe, 1.0, np.linspace(0.05, 1.0, 20))
    return np.where(res.degenerate, 0.0, res.worst_margin + 1e-9 * np.maximum(1.0, np.abs(res.rhs)))


def _check_fixed_point(probe, rngs):
    d = probe.dim
    f = qst_objective(standard_basis_ensemble(d))
    grid = (0.1, 1.0, 3.0)
    at_opt = fixed_point_check(DensityState.maximally_mixed(d), f, grid)
    at_off = fixed_point_check(random_density(rngs, d), f, grid)
    margin = at_opt.optimality_margin + 1e-8 if at_opt.is_fixed_point else -1.0
    return np.where(at_off.is_fixed_point, -1.0, margin)


def _check_self_concordance(probe, rngs):
    return 1e-10 - self_concordance_check(probe, np.geomspace(1e-3, 10.0, 25))


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

    Probes cycle through dimensions (2, 3, 5, 8) and alternate between
    tomography-gradient and plain Hermitian directions, covering both
    commuting and non-commuting (state, direction) pairs. Each probe is
    built once, each check runs once per dimension on the stacked probes of
    that dimension, and each probe's generator restarts from the state just
    after its build for every check.
    """
    if name not in SUITE_NAMES:
        raise InvalidInput(f"unknown suite {name!r}")
    if samples < 1:
        raise InvalidInput("samples must be at least 1")
    names = [n for n in SUITE_NAMES if n != "all"] if name == "all" else [name]
    probes = []
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        probe = random_probe(rng, _PROBE_DIMS[i % len(_PROBE_DIMS)], "qst" if i % 2 == 0 else "hermitian")
        probes.append((probe, rng, rng.bit_generator.state))
    by_dim: dict[int, list[int]] = {}
    for i, (probe, _, _) in enumerate(probes):
        by_dim.setdefault(probe.dim, []).append(i)
    groups = [(idx, LogPartitionProbe.stack([probes[i][0] for i in idx])) for idx in by_dim.values()]
    margins = np.empty((len(names), samples))
    for row, check_name in zip(margins, names):
        for idx, stacked in groups:
            for i in idx:
                probes[i][1].bit_generator.state = probes[i][2]
            row[idx] = _CHECKS[check_name](stacked, [probes[i][1] for i in idx])
    return [{
        "check": check_name,
        "seed": seed,
        "dim": probe.dim,
        "pass": bool(margin >= 0.0),
        "worst_margin": float(margin),
    } for check_name, row in zip(names, margins) for (probe, _, _), margin in zip(probes, row)]
