"""Coefficient-space operators of the variational formulation.

Assembles the mass matrix M_ij = (phi_j, phi_i), stiffness matrix
S_ij = (dphi_j/dx, dphi_i/dx), convection matrix C_ij = (dphi_j/dx, phi_i),
and forcing vectors (f, phi_i), plus the skew-symmetric trilinear form

    b(u, v, w) = (1/3) int ( d(uv)/dx + u dv/dx ) w dx
               = (1/3) int ( u' v + 2 u v' ) w dx

with its residual vector b(rho, rho, phi_i) and Newton Jacobian.  The
expanded integrand is polynomial on each element, so the 4-point
assembly rule integrates it exactly for P1 and P2; skew symmetry
b(u,v,w) = -b(u,w,v) then holds to rounding on periodic meshes.  The
matrices, the Jacobian included, are scattered element by element
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
    element_values,
    load_vector,
    mass_matrix,
    require_same_mesh,
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


def b_form(u: FeFunction, v: FeFunction, w: FeFunction) -> float:
    """Trilinear form b(u, v, w) = (1/3) int (u'v + 2uv') w dx."""
    mesh = require_same_mesh(u, v, w)
    rule = ASSEMBLY_RULE
    uq, duq = element_values(u, rule)
    vq, dvq = element_values(v, rule)
    wq, _ = element_values(w, rule)
    integrand = (duq * vq + 2.0 * uq * dvq) * wq / 3.0
    return float(mesh.h * np.einsum("q,eq->", rule.weights, integrand))


def b_residual(rho: FeFunction) -> np.ndarray:
    """Vector of b(rho, rho, phi_i); with u = v the integrand is rho rho' phi_i."""
    uq, duq = element_values(rho, ASSEMBLY_RULE)
    return load_vector(rho.mesh, uq * duq)


def b_jacobian(rho: FeFunction) -> np.ndarray:
    """Derivative of b_residual: J d = b(d, rho, phi_i) + b(rho, d, phi_i).

    The two slots combine to int (rho d' + rho' d) phi_i dx, so the local
    block is (rho_q D_j + h rho'_q B_j) B_i with the affine factors folded in:
    two products of the quadrature values with fixed (q, ij) tables.  J is
    returned in band storage.
    """
    mesh = rho.mesh
    rule = ASSEMBLY_RULE
    basis = rule.values[mesh.degree]
    dbasis = rule.derivatives[mesh.degree]
    uq, duq = element_values(rho, rule)
    w, n_loc = rule.weights, mesh.degree + 1
    by_value = np.einsum("q,qj,qi->qij", w, dbasis, basis).reshape(len(w), -1)
    by_slope = np.einsum("q,qj,qi->qij", mesh.h * w, basis, basis).reshape(len(w), -1)
    local = uq @ by_value + duq @ by_slope
    return scatter_band(mesh, local.reshape(-1, n_loc, n_loc))
