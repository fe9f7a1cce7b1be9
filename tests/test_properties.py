"""Property tests of the EG solver on drawn instances: monotone descent, unit
trace and Hermiticity of every iterate, the Armijo condition at every
accepted step, invariance of the step when the gradient moves by c I, the
soundness of the spectral bound by which the line search excludes
candidates of a barrier objective (hedged QST and Burg), and the Armijo
product, the divergence, the value difference and
diagnostics.inner_product_check against an exact-arithmetic oracle
(helpers.exact_armijo_product, helpers.exact_divergence,
helpers.exact_value_difference).

Ensembles are drawn random (Wishart), rank-deficient (rank-one operators
spanning half the space, so the optimum is singular) or near-commuting (one
common eigenbasis plus a 1e-6 perturbation), at d up to 64. Examples are
derandomized, so every run draws the same instances.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expgrad.diagnostics import inner_product_check, random_density, random_psd
from expgrad.entropy import ProbabilityVector, _divergence
from expgrad.linalg import DensityState, _hermitian
from expgrad.objectives import MeasurementEnsemble, burg_objective, hedged_qst_objective, qst_objective
from expgrad.solver import SolverConfig, _armijo, _underflow_step, eg_step, solve
from helpers import exact_armijo_product, exact_divergence, exact_value_difference

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=15)
KINDS = ("random", "rank-deficient", "near-commuting")

kinds = st.sampled_from(KINDS)
dims = st.sampled_from((2, 3, 5, 8, 16, 64))
seeds = st.integers(0, 2 ** 32 - 1)
steps = st.floats(1e-3, 10.0)


def complex_gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_unitary(rng, d):
    q, r = np.linalg.qr(complex_gaussian(rng, d, d))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def draw_ensemble(kind, d, rng):
    if kind == "random":
        a = complex_gaussian(rng, 2 * d, d, d)
        ops = a.conj().swapaxes(-1, -2) @ a
    elif kind == "rank-deficient":
        v = complex_gaussian(rng, max(1, d // 2), d)
        ops = v[:, :, None] * v[:, None, :].conj()
    else:
        u = haar_unitary(rng, d)
        ops = (u * (rng.random((2 * d, 1, d)) + 0.1)) @ u.conj().T
        noise = 1e-6 * complex_gaussian(rng, 2 * d, d, d)
        ops = ops + noise.conj().swapaxes(-1, -2) @ noise
    return MeasurementEnsemble(list(ops))


def assert_density(state):
    m = state.matrix
    scale = np.finfo(float).eps * state.dim
    assert np.max(np.abs(m - m.conj().T)) <= 4 * scale
    assert abs(np.trace(m).real - 1.0) <= 4 * scale
    assert abs(np.sum(state.eigenvalues) - 1.0) <= 4 * scale


@PROPERTY
@given(kind=kinds, d=dims, seed=seeds, hedged=st.booleans())
def test_accepted_steps_descend_and_pass_armijo(kind, d, seed, hedged):
    # replay each accepted step of a solve from its recorded alpha: the
    # replayed f is the solver's, and each step passes the Armijo test
    rng = np.random.default_rng(seed)
    ens = draw_ensemble(kind, d, rng)
    f = hedged_qst_objective(ens, 1e-3) if hedged else qst_objective(ens)
    cfg = SolverConfig(max_iters=4)
    state = DensityState.maximally_mixed(d) if seed % 2 else random_density(rng, d)
    result = solve(state, f, cfg)
    assert result.trace
    f_state = f.value(state)
    for record in result.trace:
        g = f.gradient(state)
        nxt = eg_step(state, g, record.alpha_k)
        f_next = f.value(nxt)
        assert f_next == record.f_value
        assert f_next <= f_state + cfg.tau * np.vdot(g, nxt.matrix - state.matrix).real
        assert f_next <= f_state
        assert_density(nxt)
        state, f_state = nxt, f_next
    assert_density(result.final_state)


@PROPERTY
@given(kind=kinds, d=dims, seed=seeds, c=st.floats(-100.0, 100.0), alpha=steps)
def test_step_ignores_identity_shift(kind, d, seed, c, alpha):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, d)
    shift = c * np.eye(d)
    tol = 1e-13 * (1.0 + abs(alpha * c))
    assert np.max(np.abs(eg_step(rho, shift, alpha).matrix - rho.matrix)) <= tol
    g = qst_objective(draw_ensemble(kind, d, rng)).gradient(rho)
    g = g / max(1.0, np.max(np.abs(g)))
    moved = eg_step(rho, g, alpha)
    assert np.max(np.abs(eg_step(rho, g + shift, alpha).matrix - moved.matrix)) <= tol
    assert_density(moved)


EPS = np.finfo(np.float64).eps


def near_singular_state(rng, d, log10_min):
    """exp(H) / tr exp(H) for H = U diag(w) U^H, U Haar and w log 10 drawn in
    [log10_min, 0] with one entry at log10_min."""
    w = np.append(rng.uniform(log10_min, 0.0, d - 1), log10_min) * math.log(10.0)
    u = haar_unitary(rng, d)
    return DensityState.from_exponent(_hermitian((u * w) @ u.conj().T))


def entry_scale(state, values):
    """|V| diag(values) |V|^T for the state's stored eigenvectors V: entrywise,
    a bound on the magnitude of each term summed to form V diag(values) V^H."""
    v = np.abs(state.eigenvectors)
    return (v * values) @ v.T


def product_scale(new, old, g):
    """sum_ij |g_ij| (A' + A)_ij, A = |V| diag(lambda) |V|^T: the magnitude of
    the terms of <g, rho' - rho>."""
    return np.sum(np.abs(g) * (entry_scale(new, new.eigenvalues) + entry_scale(old, old.eigenvalues)))


def divergence_scale(new, old):
    """sum_ij A'_ij (L' + L)_ij, L = |V| diag(|log lambda|) |V|^T: the
    magnitude of the terms of D(rho', rho)."""
    logs = entry_scale(new, np.abs(new.log_eigenvalues)) + entry_scale(old, np.abs(old.log_eigenvalues))
    return np.sum(entry_scale(new, new.eigenvalues) * logs)


@PROPERTY
@given(d=st.integers(2, 8), seed=seeds, log10_min=st.floats(-300.0, 0.0),
       log2_step=st.floats(-60.0, 0.0), log10_width=st.floats(-2.0, 6.0))
def test_armijo_product_and_divergence_match_the_exact_oracle(d, seed, log10_min, log2_step, log10_width):
    # a state with lambda_min = 10**log10_min and a candidate eg_step from it:
    # the Armijo test's float product <g, rho' - rho> and the stopping gap
    # entropy._divergence D(rho', rho) are each within d eps S of the exact
    # values, the round-off of sums of d terms: S = product_scale for the
    # product and divergence_scale for D, whose A and L bound the terms of rho
    # and log rho
    rng = np.random.default_rng(seed)
    rho = near_singular_state(rng, d, log10_min)
    g = _hermitian(complex_gaussian(rng, d, d) * 10.0 ** log10_width)
    nxt = eg_step(rho, g, 2.0 ** log2_step)
    product = float(np.vdot(g, nxt.point - rho.point).real)  # as solver._armijo forms it
    assert abs(product - exact_armijo_product(nxt, rho, g)) <= d * EPS * product_scale(nxt, rho, g)
    assert abs(_divergence(nxt, rho) - exact_divergence(nxt, rho)) <= d * EPS * divergence_scale(nxt, rho)


@PROPERTY
@given(d=st.integers(2, 6), seed=seeds, log10_min=st.floats(-300.0, 0.0), log2_step=st.floats(-20.0, 0.0))
def test_inner_product_check_matches_the_exact_oracle(d, seed, log10_min, log2_step):
    # diagnostics.inner_product_check, -D(rho', rho)/alpha - <g, rho' - rho>
    # at the tomography gradient g, against its value at 60 digits, with D's
    # unit-trace term -tr(rho' - rho) as quantum_relative_entropy has it:
    # within d eps ((divergence_scale + 2) / alpha + product_scale), the 2 for
    # the terms tr rho' + tr rho of the unit-trace term. Below steps of 2**-20
    # that bound exceeds the margin itself. A candidate with an eigenvalue
    # that underflows to 0 is included: both sides read the stored
    # log-eigenvalues.
    rng = np.random.default_rng(seed)
    rho = near_singular_state(rng, d, log10_min)
    f = qst_objective(MeasurementEnsemble([random_psd(rng, d) for _ in range(2 * d)]))
    g, alpha = f.gradient(rho), 2.0 ** log2_step
    nxt = eg_step(rho, g, alpha)
    want = -exact_divergence(nxt, rho, unit_trace=True) / alpha - exact_armijo_product(nxt, rho, g)
    bound = d * EPS * ((divergence_scale(nxt, rho) + 2.0) / alpha + product_scale(nxt, rho, g))
    assert abs(inner_product_check(rho, f, alpha) - want) <= bound


@PROPERTY
@given(d=st.integers(2, 6), seed=seeds, log10_min=st.floats(-300.0, 0.0), log2_step=st.floats(-60.0, 0.0))
def test_value_difference_matches_the_exact_oracle(d, seed, log10_min, log2_step):
    # the float difference f(rho') - f(rho) that solver._armijo tests, for
    # qst_objective at a step along its gradient, against
    # helpers.exact_value_difference: within d eps sum_i (S_i / t_i + |log t_i|)
    # over both states, with t_i = tr(M_i rho) and S_i = sum_jk |M_i|_jk A_jk
    # the magnitude of its terms, so S_i / t_i bounds the relative round-off
    # of t_i, and |log t_i| that of the sum of the logs
    rng = np.random.default_rng(seed)
    rho = near_singular_state(rng, d, log10_min)
    ens = MeasurementEnsemble([random_psd(rng, d) for _ in range(2 * d)])
    f = qst_objective(ens)
    nxt = eg_step(rho, f.gradient(rho), 2.0 ** log2_step)
    scale = 0.0
    for state in (nxt, rho):
        t = ens.probabilities(state.matrix)
        terms = np.sum(np.abs(ens.operators) * entry_scale(state, state.eigenvalues), axis=(-2, -1))
        scale += np.sum(terms / t + np.abs(np.log(t)))
    difference = f.value(nxt) - f.value(rho)
    assert abs(difference - exact_value_difference(nxt, rho, ens.operators)) <= d * EPS * scale


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the float Armijo product cancels at near-singular iterates")
def test_armijo_decision_matches_the_exact_one_at_a_near_singular_iterate():
    # the hedged tomography instance on which the solver stops spuriously:
    # at its first iterate (lambda_min 8e-19) the float product is -3.74e-3
    # and the exact one -1.170e-4, while f falls by 1.165e-4 at the step
    # 2**-60. The solver's own search from there, with that step as its
    # first and one backtrack allowed, accepts the step iff it returns
    # j = 0 with a candidate; it returns j = 1, rejecting a step that the
    # exact test accepts
    rng = np.random.default_rng(0)
    f = hedged_qst_objective(MeasurementEnsemble([random_psd(rng, 32) for _ in range(4 * 32)]), 1e-2)
    cfg = SolverConfig(alpha_bar=2.0 ** -60, max_backtracks=1)
    state = solve(DensityState.maximally_mixed(32), f, SolverConfig(max_iters=1)).final_state
    g = f.gradient(state)
    f_state = f.value(state)
    _, candidate, j, _ = _armijo(state, f, cfg, g, f_state)
    solver_accepts = j == 0 and candidate is not None
    nxt = eg_step(state, g, cfg.alpha_bar)
    exact_accepts = f.value(nxt) <= f_state + cfg.tau * exact_armijo_product(nxt, state, g)
    assert solver_accepts == exact_accepts


def spectral_cut(state, g):
    spectrum = np.linalg.eigvalsh(g) if g.ndim == 2 else np.sort(g)
    return _underflow_step(state, float(spectrum[0]), float(spectrum[-1]))


CUT_MULTIPLES = np.array([1.0 + 1e-12, 1.001, 1.004, 1.01, 1.1, 2.0, 10.0, 1e3])


@PROPERTY
@given(kind=kinds, d=dims, seed=seeds, lam=st.floats(1e-4, 1e-1))
def test_excluded_steps_underflow(kind, d, seed, lam):
    # every step past the bound forms a state with an eigenvalue below the
    # smallest normal double and hedged value +inf; from the maximally mixed
    # state Weyl's inequality is nearly tight, so the steps just past the
    # bound test its constant
    rng = np.random.default_rng(seed)
    f = hedged_qst_objective(draw_ensemble(kind, d, rng), lam)
    state = DensityState.maximally_mixed(d)
    if seed % 3 == 1:
        state = random_density(rng, d)
    elif seed % 3 == 2:  # an iterate, nearer the boundary
        state = solve(state, f, SolverConfig(max_iters=5)).final_state
    g = f.gradient(state)
    cut = spectral_cut(state, g)
    assert math.isfinite(cut)
    for alpha in cut * CUT_MULTIPLES:
        nxt = eg_step(state, g, alpha)
        assert nxt.eigenvalues[0] < np.finfo(np.float64).tiny
        assert f.value(nxt) == math.inf


@PROPERTY
@given(d=dims, seed=seeds, concentration=st.floats(0.1, 10.0))
def test_excluded_simplex_steps_underflow(d, seed, concentration):
    # the vector path of the bound: every Burg step past it forms an entry
    # below the smallest normal double and value +inf, from a drawn interior
    # point or from an iterate nearer the boundary
    rng = np.random.default_rng(seed)
    f = burg_objective(d)
    x = ProbabilityVector(rng.dirichlet(np.full(d, concentration)))
    assume(np.all(x.entries > 0.0) and math.isfinite(f.value(x)))
    if seed % 2:
        x = solve(x, f, SolverConfig(max_iters=5)).final_state
    g = f.gradient(x)
    cut = spectral_cut(x, g)
    assert math.isfinite(cut)
    for alpha in cut * CUT_MULTIPLES:
        nxt = eg_step(x, g, alpha)
        assert nxt.entries.min() < np.finfo(np.float64).tiny
        assert f.value(nxt) == math.inf


@PROPERTY
@given(d=dims, seed=seeds, c=st.floats(-1e6, 1e6))
def test_identity_gradient_excludes_nothing(d, seed, c):
    # a gradient c I (rotated, so with round-off) moves no eigenvalue apart
    rng = np.random.default_rng(seed)
    state = random_density(rng, d)
    u = haar_unitary(rng, d)
    assert spectral_cut(state, c * np.eye(d)) == math.inf
    assert spectral_cut(state, (u * c) @ u.conj().T) == math.inf
