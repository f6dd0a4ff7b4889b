"""Uniform 1D Lagrange meshes, quadrature, and finite-element functions.

The reference element is [0, 1] with an affine map onto each physical
element.  P1 carries vertex nodes; P2 adds a midpoint node, locally
ordered (vertex, midpoint, vertex).  Global degrees of freedom are
numbered left to right with spacing h/degree, which makes the DOF map
plain index arithmetic.  Periodic meshes identify the last vertex with
the first; Dirichlet meshes keep boundary DOFs in the numbering (they
are constrained later, at the time-stepping level).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import lu_solve

PERIODIC = "periodic"
DIRICHLET = "dirichlet"


class InvalidDegreeError(ValueError):
    """Element degree outside {1, 2}."""


class TooFewElementsError(ValueError):
    """Mesh needs at least two elements."""


class OutOfDomainError(ValueError):
    """Evaluation point lies outside the mesh interval."""


class MeshMismatchError(ValueError):
    """Operands live on different meshes."""


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre points/weights on the reference element [0, 1]."""

    points: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss_legendre(cls, n_points: int) -> "QuadratureRule":
        # leggauss lives on [-1, 1]; map to [0, 1] so weights sum to 1.
        pts, wts = np.polynomial.legendre.leggauss(n_points)
        return cls(points=(pts + 1.0) / 2.0, weights=wts / 2.0)


# Assembly uses 4 points (exact through degree 7, enough for the P2
# trilinear integrand of degree 5); error norms use 5 points.
ASSEMBLY_RULE = QuadratureRule.gauss_legendre(4)
ERROR_RULE = QuadratureRule.gauss_legendre(5)


def shape_values(degree: int, xi: np.ndarray) -> np.ndarray:
    """Lagrange basis values on [0, 1]; shape (len(xi), degree + 1)."""
    xi = np.asarray(xi, dtype=float)
    if degree == 1:
        return np.stack([1.0 - xi, xi], axis=-1)
    if degree == 2:
        return np.stack(
            [2.0 * xi * xi - 3.0 * xi + 1.0, 4.0 * xi * (1.0 - xi), 2.0 * xi * xi - xi],
            axis=-1,
        )
    raise InvalidDegreeError(f"degree must be 1 or 2, got {degree}")


def shape_derivatives(degree: int, xi: np.ndarray) -> np.ndarray:
    """Reference derivatives d/dxi of the Lagrange basis on [0, 1]."""
    xi = np.asarray(xi, dtype=float)
    if degree == 1:
        return np.stack([-np.ones_like(xi), np.ones_like(xi)], axis=-1)
    if degree == 2:
        return np.stack([4.0 * xi - 3.0, 4.0 - 8.0 * xi, 4.0 * xi - 1.0], axis=-1)
    raise InvalidDegreeError(f"degree must be 1 or 2, got {degree}")


@dataclass(frozen=True, eq=False)
class Mesh1D:
    """Uniform mesh on [x_left, x_right] with its DOF map precomputed."""

    x_left: float
    x_right: float
    n_elements: int
    degree: int
    boundary_kind: str
    h: float
    n_dofs: int
    cell_dofs: np.ndarray  # (n_elements, degree + 1) global indices
    dof_x: np.ndarray  # coordinate of each DOF

    def element_left(self, e: int | np.ndarray) -> np.ndarray:
        return self.x_left + np.asarray(e) * self.h

    def quad_points(self, rule: QuadratureRule) -> np.ndarray:
        """Physical quadrature coordinates, shape (n_elements, n_points)."""
        lefts = self.x_left + np.arange(self.n_elements) * self.h
        return lefts[:, None] + self.h * rule.points[None, :]


def build_mesh(
    x_left: float,
    x_right: float,
    n_elements: int,
    degree: int,
    boundary_kind: str,
) -> Mesh1D:
    """Construct a uniform mesh with its degree-of-freedom map."""
    if degree not in (1, 2):
        raise InvalidDegreeError(f"degree must be 1 or 2, got {degree}")
    if n_elements < 2:
        raise TooFewElementsError(f"need at least 2 elements, got {n_elements}")
    if not x_left < x_right:
        raise ValueError(f"empty interval [{x_left}, {x_right}]")
    if boundary_kind not in (PERIODIC, DIRICHLET):
        raise ValueError(f"unknown boundary kind {boundary_kind!r}")

    h = (x_right - x_left) / n_elements
    if boundary_kind == PERIODIC:
        n_dofs = degree * n_elements
    else:
        n_dofs = degree * n_elements + 1

    local = np.arange(degree + 1)
    cell_dofs = degree * np.arange(n_elements)[:, None] + local[None, :]
    if boundary_kind == PERIODIC:
        cell_dofs = cell_dofs % n_dofs  # last vertex wraps onto the first

    dof_x = x_left + np.arange(n_dofs) * (h / degree)
    return Mesh1D(
        x_left=float(x_left),
        x_right=float(x_right),
        n_elements=n_elements,
        degree=degree,
        boundary_kind=boundary_kind,
        h=h,
        n_dofs=n_dofs,
        cell_dofs=cell_dofs,
        dof_x=dof_x,
    )


@dataclass(eq=False)
class FeFunction:
    """Finite-element function: a coefficient per degree of freedom."""

    mesh: Mesh1D
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.mesh.n_dofs,):
            raise ValueError(
                f"expected {self.mesh.n_dofs} coefficients, "
                f"got shape {self.coefficients.shape}"
            )


def require_same_mesh(*functions: FeFunction) -> Mesh1D:
    mesh = functions[0].mesh
    for f in functions[1:]:
        if f.mesh is not mesh:
            raise MeshMismatchError("operands live on different meshes")
    return mesh


def evaluate(f: FeFunction, x) -> float | np.ndarray:
    """Evaluate an FE function at point(s) x inside the mesh interval."""
    mesh = f.mesh
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)

    tol = 1e-12 * (mesh.x_right - mesh.x_left)
    if np.any(x_arr < mesh.x_left - tol) or np.any(x_arr > mesh.x_right + tol):
        raise OutOfDomainError(
            f"point outside [{mesh.x_left}, {mesh.x_right}]"
        )

    e = np.clip(
        np.floor((x_arr - mesh.x_left) / mesh.h).astype(int), 0, mesh.n_elements - 1
    )
    xi = (x_arr - mesh.element_left(e)) / mesh.h
    basis = shape_values(mesh.degree, xi)  # (m, n_loc)
    values = np.einsum("mi,mi->m", f.coefficients[mesh.cell_dofs[e]], basis)
    return float(values[0]) if scalar else values


def element_values(
    f: FeFunction, rule: QuadratureRule
) -> tuple[np.ndarray, np.ndarray]:
    """Values and physical derivatives of f at all quadrature points.

    Returns (u, du) each of shape (n_elements, n_points).
    """
    mesh = f.mesh
    ce = f.coefficients[mesh.cell_dofs]  # (n_el, n_loc)
    basis = shape_values(mesh.degree, rule.points)  # (n_q, n_loc)
    dbasis = shape_derivatives(mesh.degree, rule.points)
    u = ce @ basis.T
    du = (ce @ dbasis.T) / mesh.h
    return u, du


def sample_function(g: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate g on an array of points, tolerating scalar-only callables."""
    try:
        values = np.asarray(g(x), dtype=float)
    except (TypeError, ValueError):
        values = None
    if values is not None and values.shape == x.shape:
        return values
    if values is not None and values.ndim == 0:
        return np.full(x.shape, float(values))
    flat = np.array([g(xi) for xi in x.ravel()], dtype=float)
    return flat.reshape(x.shape)


def scatter_matrix(mesh: Mesh1D, local: np.ndarray) -> np.ndarray:
    """Sum element blocks local[e, i, j] (or one block for all) into a dense matrix."""
    out = np.zeros((mesh.n_dofs, mesh.n_dofs))
    np.add.at(out, (mesh.cell_dofs[:, :, None], mesh.cell_dofs[:, None, :]), local)
    return out


def load_vector(mesh: Mesh1D, values: np.ndarray) -> np.ndarray:
    """Vector of (g, phi_i) from g's values at the assembly quadrature points."""
    rule = ASSEMBLY_RULE
    basis = shape_values(mesh.degree, rule.points)
    local = mesh.h * np.einsum("q,eq,qi->ei", rule.weights, values, basis)
    out = np.zeros(mesh.n_dofs)
    np.add.at(out, mesh.cell_dofs, local)
    return out


def mass_matrix(mesh: Mesh1D) -> np.ndarray:
    """Assemble the mass matrix (phi_j, phi_i) with the assembly rule."""
    rule = ASSEMBLY_RULE
    basis = shape_values(mesh.degree, rule.points)
    return scatter_matrix(
        mesh, mesh.h * np.einsum("q,qi,qj->ij", rule.weights, basis, basis)
    )


def l2_project(g: Callable, mesh: Mesh1D) -> FeFunction:
    """L2 projection of g onto the FE space: one mass-matrix solve."""
    rhs = load_vector(mesh, sample_function(g, mesh.quad_points(ASSEMBLY_RULE)))
    return FeFunction(mesh, lu_solve(mass_matrix(mesh), rhs))
