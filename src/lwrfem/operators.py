"""Coefficient-space operators of the variational formulation.

Assembles the mass matrix M_ij = (phi_j, phi_i), stiffness matrix
S_ij = (dphi_j/dx, dphi_i/dx), convection matrix C_ij = (dphi_j/dx, phi_i),
and forcing vectors (f, phi_i), plus the residual vector b(rho, rho, phi_i)
and Newton Jacobian of the skew-symmetric trilinear form

    b(u, v, w) = (1/3) int ( d(uv)/dx + u dv/dx ) w dx
               = (1/3) int ( u' v + 2 u v' ) w dx.

With u = v the integrand is rho rho' phi_i, exactly quadratic in the
coefficients: on each element b(rho, rho, phi_i) = T_ijk c_j c_k with the
element tensor T_ijk = int phi_j phi_k' phi_i dx of the assembly rule
(``QuadratureRule.transport``), which is the same on every element of
the uniform mesh.  The residual and the Jacobian contract that one
tensor with the element coefficients c; no quadrature values are formed.
The matrices, the Jacobian included, are scattered element by element
straight into band storage (``mesh.scatter_band``): entry (i, j) sits at
ab[w + i - j, j] with w the mesh's half-bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import (
    ASSEMBLY_RULE,
    FeFunction,
    Mesh1D,
    load_vector,
    mass_matrix,
    sample_function,
    scatter_band,
)


@dataclass(frozen=True, eq=False)
class AssembledOperators:
    """Mass, stiffness, and convection matrices for one mesh, in band storage."""

    mesh: Mesh1D
    mass: np.ndarray
    stiffness: np.ndarray
    convection: np.ndarray


def assemble(mesh: Mesh1D) -> AssembledOperators:
    """Assemble M, S, and C element by element."""
    rule = ASSEMBLY_RULE
    basis = rule.values[mesh.degree]  # (n_q, n_loc)
    dbasis = rule.derivatives[mesh.degree]
    w = rule.weights

    s_loc = np.einsum("q,qi,qj->ij", w, dbasis, dbasis) / mesh.h
    # (dphi_j, phi_i): the element h and the 1/h of the derivative cancel.
    c_loc = np.einsum("q,qi,qj->ij", w, basis, dbasis)
    return AssembledOperators(
        mesh=mesh,
        mass=mass_matrix(mesh),
        stiffness=scatter_band(mesh, s_loc),
        convection=scatter_band(mesh, c_loc),
    )


def forcing_vector(f: Callable, t: float, mesh: Mesh1D) -> np.ndarray:
    """Load vector with entries (f(., t), phi_i) by quadrature."""
    return load_vector(
        mesh, sample_function(lambda x: f(x, t), mesh.quad_points(ASSEMBLY_RULE))
    )


def b_residual(rho: FeFunction) -> np.ndarray:
    """Vector of b(rho, rho, phi_i) = int rho rho' phi_i dx: per element T_ijk c_j c_k."""
    mesh = rho.mesh
    n_loc = mesh.degree + 1
    ce = rho.coefficients[mesh.cell_dofs]  # (n_el, n_loc)
    pairs = (ce[:, :, None] * ce[:, None, :]).reshape(len(ce), -1)  # c_j c_k
    local = pairs @ ASSEMBLY_RULE.transport[mesh.degree].reshape(n_loc, -1).T
    return np.bincount(mesh.cell_dofs.ravel(), local.ravel(), minlength=mesh.n_dofs)


def b_jacobian(rho: FeFunction) -> np.ndarray:
    """Derivative of b_residual, in band storage: per element (T_ijk + T_ikj) c_k.

    J d = b(d, rho, phi_i) + b(rho, d, phi_i) = int (rho d' + rho' d) phi_i dx.
    """
    mesh = rho.mesh
    n_loc = mesh.degree + 1
    t = ASSEMBLY_RULE.transport[mesh.degree]
    both = (t + t.transpose(0, 2, 1)).reshape(-1, n_loc)  # rows (i, j), columns k
    local = rho.coefficients[mesh.cell_dofs] @ both.T
    return scatter_band(mesh, local.reshape(-1, n_loc, n_loc))
