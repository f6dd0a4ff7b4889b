"""Stabilized 1D finite-element solver for the LWR density model.

Solves rho_t + (v_f - (2 v_f / rho_m) rho) rho_x = f with Lagrange P1/P2
elements, damping spurious oscillations near shocks with a differential
filter / deconvolution stabilization term, and optionally sharpening the
temporal accuracy of backward Euler with a second-order time filter.
"""

from .analysis import (
    ConvergenceTable,
    NonHalvingLadderError,
    TableRow,
    convergence_table,
    l2_error,
    overshoot,
    run_error_inf,
    total_variation,
)
from .filtering import (
    FilterContext,
    NegativeChiError,
    build_filter_context,
    stabilization_matrix,
)
from .linalg import (
    DimensionMismatchError,
    SingularMatrixError,
    lu_factorize,
    lu_solve,
)
from .mesh import (
    DIRICHLET,
    PERIODIC,
    FeFunction,
    InvalidDegreeError,
    Mesh1D,
    MeshMismatchError,
    OutOfDomainError,
    QuadratureRule,
    TooFewElementsError,
    build_mesh,
    evaluate,
    l2_project,
)
from .operators import (
    AssembledOperators,
    assemble,
    b_form,
    b_jacobian,
    b_residual,
    forcing_vector,
)
from .scenarios import SCENARIOS, Scenario, manufactured, rarefaction, shock
from .stepping import (
    ModelParams,
    NoConvergenceError,
    StepDiagnostics,
    Stepper,
    TimeGrid,
    be_step,
    energy_e,
    energy_z,
    mass_norm,
    newton_solve,
    run_time_filtered,
    time_filter_step,
)

__version__ = "0.1.0"
