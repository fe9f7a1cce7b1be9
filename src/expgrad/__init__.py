"""Exponentiated gradient method with Armijo line search on density
matrices, the spectrahedron, and the probability simplex, plus a numerical
diagnostics suite for the surrounding convex-analysis machinery."""

from types import ModuleType as _ModuleType

from .entropy import ProbabilityVector, quantum_relative_entropy
from .diagnostics import (
    FixedPointResult,
    LogPartitionProbe,
    bregman_gap,
    chi,
    fixed_point_check,
    inner_product_check,
    phi,
    phi_derivatives,
    random_density,
    random_hermitian,
    random_probe,
)
from .errors import DomainError, InvalidInput
from .linalg import DensityState, HermitianOperator
from .objectives import (
    MeasurementEnsemble,
    ObjectiveSpec,
    burg_objective,
    hedged_qst_objective,
    poisson_linear_objective,
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
    eg_step,
    solve,
    write_trace_csv,
)

# the public names, without the submodules that the imports above bind
__all__ = [name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
