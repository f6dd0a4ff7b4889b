"""Stabilized 1D finite-element solver for the LWR density model.

Solves rho_t + (v_f - (2 v_f / rho_m) rho) rho_x = f with Lagrange P1/P2
elements, damping spurious oscillations near shocks with a differential
filter / deconvolution stabilization term, and optionally sharpening the
temporal accuracy of backward Euler with a second-order time filter.
"""

from .analysis import TableRow, convergence_table, l2_error, run_error_inf
from .filtering import FilterContext, build_filter_context, stabilization_matrix
from .linalg import SingularMatrixError, lu_solve
from .mesh import (
    DIRICHLET,
    PERIODIC,
    Mesh1D,
    QuadratureRule,
    build_mesh,
    evaluate,
)
from .operators import (
    AssembledOperators,
    assemble,
    b_jacobian,
    b_residual,
    forcing_vector,
    l2_project,
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
