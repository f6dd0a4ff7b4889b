"""Stabilized 1D finite-element solver for the LWR density model.

Solves rho_t + (v_f - (2 v_f / rho_m) rho) rho_x = f with Lagrange P1/P2
elements, damping spurious oscillations near shocks with a differential
filter / deconvolution stabilization term, and optionally sharpening the
temporal accuracy of backward Euler with a second-order time filter.

The package exports the run-level surface: the run's parameters, grid
and marching loop, its set-up (mesh, operators, filter context, initial
projection), its error, the scenarios, and the two exceptions a caller
catches.  Everything else is imported from its module, whose docstring
holds its contract.
"""

from .analysis import run_error_inf
from .filtering import build_filter_context
from .linalg import SingularMatrixError
from .mesh import build_mesh
from .operators import assemble, l2_project
from .scenarios import SCENARIOS, manufactured, rarefaction, shock
from .stepping import ModelParams, NoConvergenceError, TimeGrid, run_time_filtered

__version__ = "0.1.0"
