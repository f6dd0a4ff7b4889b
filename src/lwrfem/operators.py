"""Coefficient-space operators of the variational formulation: all assembly.

Assembles the mass matrix M_ij = (phi_j, phi_i), stiffness matrix
S_ij = (dphi_j/dx, dphi_i/dx), convection matrix C_ij = (dphi_j/dx, phi_i),
load and forcing vectors (f, phi_i) and the L2 projection, plus the
residual vector b(rho, rho, phi_i) and Newton Jacobian of the
skew-symmetric trilinear form

    b(u, v, w) = (1/3) int ( d(uv)/dx + u dv/dx ) w dx
               = (1/3) int ( u' v + 2 u v' ) w dx.

This module is the one place where element integrals are formed.  The
reference element's integrals of each degree, ``REFERENCE[degree]``, are
built once at import from the assembly rule and are read-only; on the
uniform mesh every element matrix is one of them scaled by a power of h.
With u = v the integrand of b is rho rho' phi_i, exactly quadratic in the
coefficients: on each element b(rho, rho, phi_i) = T_ijk c_j c_k with the
element tensor T_ijk = int phi_j phi_k' phi_i dx (``transport``), so the
residual and the Jacobian contract that one tensor with the element
coefficients c and form no quadrature values.  The matrices, the Jacobian
included, are scattered element by element straight into band storage
(``scatter_band``): entry (i, j) sits at ab[w + i - j, j] with w the
mesh's half-bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .linalg import lu_solve
from .mesh import ASSEMBLY_RULE, FeFunction, Mesh1D, sample_function


class ReferenceElement(NamedTuple):
    """Integrals of one degree's Lagrange basis on [0, 1] by the assembly rule.

    On an element of length h, (phi_j, phi_i) = h mass[i, j],
    (phi_j', phi_i') = stiffness[i, j] / h, (phi_j', phi_i) =
    convection[i, j] and int phi_j phi_k' phi_i dx = transport[i, j, k]
    (h cancels in the last two).  All are exact: the 4-point rule
    integrates polynomials of degree 7, and the transport integrand of
    P_p elements has degree 3 p - 1.
    """

    mass: np.ndarray
    stiffness: np.ndarray
    convection: np.ndarray
    transport: np.ndarray


def _reference_element(degree: int) -> ReferenceElement:
    w = ASSEMBLY_RULE.weights
    basis, dbasis = ASSEMBLY_RULE.values[degree], ASSEMBLY_RULE.derivatives[degree]
    tables = ReferenceElement(
        mass=np.einsum("q,qi,qj->ij", w, basis, basis),
        stiffness=np.einsum("q,qi,qj->ij", w, dbasis, dbasis),
        convection=np.einsum("q,qi,qj->ij", w, basis, dbasis),
        transport=np.einsum("q,qi,qj,qk->ijk", w, basis, basis, dbasis),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


REFERENCE = {degree: _reference_element(degree) for degree in (1, 2)}


@dataclass(frozen=True, eq=False)
class AssembledOperators:
    """Mass, stiffness, and convection matrices for one mesh, in band storage."""

    mesh: Mesh1D
    mass: np.ndarray
    stiffness: np.ndarray
    convection: np.ndarray


def scatter_band(mesh: Mesh1D, local: np.ndarray) -> np.ndarray:
    """Sum element blocks local[e, i, j] (or one block for all) into band storage.

    The result ab, of shape (2 w + 1, n_dofs) with w = mesh.half_band and in
    Fortran order, holds entry (i, j) of the assembled matrix at
    ab[w + i - j, j].
    """
    w, index = mesh.half_band, mesh.band_index
    if local.shape != index.shape:  # one block for all elements
        local = np.broadcast_to(local, index.shape)
    flat = np.bincount(index.ravel(), local.ravel(), minlength=(2 * w + 1) * mesh.n_dofs)
    return flat.reshape((2 * w + 1, mesh.n_dofs), order="F")


def mass_matrix(mesh: Mesh1D) -> np.ndarray:
    """The mass matrix (phi_j, phi_i), banded."""
    return scatter_band(mesh, mesh.h * REFERENCE[mesh.degree].mass)


def assemble(mesh: Mesh1D) -> AssembledOperators:
    """Assemble M, S, and C from the reference element's tables."""
    ref = REFERENCE[mesh.degree]
    return AssembledOperators(
        mesh=mesh,
        mass=mass_matrix(mesh),
        stiffness=scatter_band(mesh, ref.stiffness / mesh.h),
        convection=scatter_band(mesh, ref.convection),
    )


def load_vector(mesh: Mesh1D, values: np.ndarray) -> np.ndarray:
    """Vector of (g, phi_i) from g's values at the assembly quadrature points."""
    rule = ASSEMBLY_RULE
    basis = rule.values[mesh.degree]
    local = mesh.h * ((values * rule.weights) @ basis)
    return np.bincount(mesh.cell_dofs.ravel(), local.ravel(), minlength=mesh.n_dofs)


def l2_project(g: Callable, mesh: Mesh1D) -> FeFunction:
    """L2 projection of g onto the FE space: one banded mass-matrix solve."""
    rhs = load_vector(mesh, sample_function(g, mesh.quad_points(ASSEMBLY_RULE)))
    w = mesh.half_band
    return FeFunction(mesh, lu_solve(mass_matrix(mesh), rhs, w, w))


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
    local = pairs @ REFERENCE[mesh.degree].transport.reshape(n_loc, -1).T
    return np.bincount(mesh.cell_dofs.ravel(), local.ravel(), minlength=mesh.n_dofs)


def b_jacobian(rho: FeFunction) -> np.ndarray:
    """Derivative of b_residual, in band storage: per element (T_ijk + T_ikj) c_k.

    J d = b(d, rho, phi_i) + b(rho, d, phi_i) = int (rho d' + rho' d) phi_i dx.
    """
    mesh = rho.mesh
    n_loc = mesh.degree + 1
    t = REFERENCE[mesh.degree].transport
    both = (t + t.transpose(0, 2, 1)).reshape(-1, n_loc)  # rows (i, j), columns k
    local = rho.coefficients[mesh.cell_dofs] @ both.T
    return scatter_band(mesh, local.reshape(-1, n_loc, n_loc))
