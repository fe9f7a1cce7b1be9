"""Exponentiated gradient method with Armijo line search on density
matrices, the spectrahedron, and the probability simplex, plus a numerical
diagnostics suite for the surrounding convex-analysis machinery."""

from .entropy import (
    ProbabilityVector,
    classical_relative_entropy,
    pinsker_gap,
    quantum_relative_entropy,
    von_neumann_entropy_neg,
)
from .diagnostics import (
    FixedPointResult,
    KappaResult,
    LogPartitionProbe,
    RatioResult,
    SandwichResult,
    bregman_gap,
    chi,
    fixed_point_check,
    inner_product_check,
    kappa_bound_check,
    phi,
    phi_derivatives,
    random_density,
    random_hermitian,
    random_probe,
    ratio_monotonicity_check,
    sandwich_check,
    self_concordance_check,
)
from .errors import BacktrackCapExceeded, DomainError, InvalidInput
from .linalg import (
    DensityState,
    HermitianOperator,
    SpectralDecomposition,
    eigen_extremes,
    matrix_function,
    schatten_norm,
    spectral_decompose,
    trace_inner_product,
)
from .objectives import (
    MeasurementEnsemble,
    ObjectiveSpec,
    burg_objective,
    hedged_qst_objective,
    poisson_linear_objective,
    qst_hardness_witness,
    qst_objective,
    quadratic_objective,
    standard_basis_ensemble,
)
from .suites import SUITE_NAMES, phi_fd_derivatives, run_suite
from .solver import (
    IterationRecord,
    SolveResult,
    SolveStatus,
    SolverConfig,
    armijo_search,
    eg_step,
    solve,
    write_trace_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
