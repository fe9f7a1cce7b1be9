"""Batch diagnostic suites over seeded random probes.

Each suite evaluates one family of checks on a reproducible probe population
and emits one record per probe: {check, seed, dim, pass, worst_margin}. A
margin is the worst remaining slack after the check's stated tolerance, so
pass is equivalent to worst_margin >= 0. Checks pass their alpha grids whole.
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
from .entropy import quantum_relative_entropy
from .errors import InvalidInput
from .linalg import DensityState
from .objectives import qst_objective, standard_basis_ensemble
from .solver import eg_step

__all__ = ["SUITE_NAMES", "run_suite", "phi_fd_derivatives"]

SUITE_NAMES = ("sandwich", "ratio", "moments", "kappa", "fixed-point",
               "self-concordance", "all")

_PROBE_DIMS = (2, 3, 5, 8)
_FD_STEPS = (1e-4, 1e-3, 1e-2)


def phi_fd_derivatives(probe: LogPartitionProbe, alpha, h):
    """Central-difference oracle for the first three derivatives of phi,
    Richardson-extrapolated from steps h and h/2. alpha and h broadcast;
    all stencil points take one stacked phi call."""
    a, h = np.broadcast_arrays(np.asarray(alpha, dtype=np.float64), np.asarray(h, dtype=np.float64))
    step = np.stack([h, h / 2])[..., None]  # (coarse, fine), then the stencil axis
    pm2, pm1, p0, pp1, pp2 = np.moveaxis(phi(probe, a[..., None] + np.arange(-2.0, 3.0) * step), -1, 0)
    step = step[..., 0]
    d1 = (pp1 - pm1) / (2 * step)
    d2 = (pp1 - 2 * p0 + pm1) / (step * step)
    d3 = (pp2 - 2 * pp1 + 2 * pm1 - pm2) / (2 * step ** 3)
    coarse, fine = np.stack([d1, d2, d3], axis=1)
    return tuple((4.0 * fine - coarse) / 3.0)


def _check_sandwich(probe, rng):
    res = sandwich_check(probe, np.array([0.1, 1.0, 5.0]))
    if res.degenerate:
        return math.inf
    return float(np.min([res.gap - res.lower + 1e-9,
                         res.upper - res.gap + 1e-9,
                         res.lower + 1e-12]))


def _check_ratio(probe, rng):
    res = ratio_monotonicity_check(probe, np.geomspace(1e-3, 10.0, 25))
    return -res.worst_violation if not res.degenerate else 0.0


def _check_moments(probe, rng):
    alphas = np.array([0.1, 0.3, 0.7])
    analytic = np.array(phi_derivatives(probe, alphas))[:, :, None]  # (derivative, alpha, h)
    fd = np.array(phi_fd_derivatives(probe, alphas[:, None], np.array(_FD_STEPS)))
    best = np.min(np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic)), axis=-1)
    margin = float(np.min(1e-5 - best))
    # variance bound: phi'' <= Delta^2 / 4
    margin = min(margin, float(np.min(probe.delta ** 2 / 4.0 + 1e-10 - analytic[1])))
    # Bregman-gap identity against the relative-entropy path
    alphas = (0.1, 0.5, 1.0)
    neg = -probe.direction.mat
    for alpha, via_moments in zip(alphas, bregman_gap(probe, np.array(alphas))):
        direct = quantum_relative_entropy(eg_step(probe.base, neg, alpha), probe.base)
        rel = abs(via_moments - direct) / max(abs(direct), 1e-12)
        margin = min(margin, 1e-8 - rel)
    return margin


def _check_kappa(probe, rng):
    res = kappa_bound_check(probe, 1.0, np.linspace(0.05, 1.0, 20))
    if res.degenerate:
        return 0.0
    return res.worst_margin + 1e-9 * max(1.0, abs(res.rhs))


def _check_fixed_point(probe, rng):
    d = probe.dim
    f = qst_objective(standard_basis_ensemble(d))
    grid = (0.1, 1.0, 3.0)
    at_opt = fixed_point_check(DensityState.maximally_mixed(d), f, grid, rng)
    off = random_density(rng, d)
    at_off = fixed_point_check(off, f, grid, rng)
    if not at_opt.is_fixed_point or at_off.is_fixed_point:
        return -1.0
    return at_opt.optimality_margin + 1e-8


def _check_self_concordance(probe, rng):
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
    built once, and each check starts from the generator state just after it.
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
    records = []
    for check_name in names:
        for probe, rng, state in probes:
            rng.bit_generator.state = state
            margin = _CHECKS[check_name](probe, rng)
            records.append({
                "check": check_name,
                "seed": seed,
                "dim": probe.dim,
                "pass": bool(margin >= 0.0),
                "worst_margin": float(margin),
            })
    return records
