"""Uniform 1D Lagrange meshes, quadrature, and finite-element functions.

The reference element is [0, 1] with an affine map onto each physical
element.  P1 carries vertex nodes; P2 adds a midpoint node, locally
ordered (vertex, midpoint, vertex).  On Dirichlet meshes the global
degrees of freedom are numbered left to right with spacing h/degree and
keep the boundary DOFs (they are constrained later, at the time-stepping
level).  Periodic meshes identify the last vertex with the first and
number their DOFs zig-zag from both ends, x_0, x_last, x_1, x_last-1, ...,
so that the wrap-around coupling stays next to the diagonal.  Either way
the DOF map is plain index arithmetic, and every operator assembled on
the mesh is banded, with half-bandwidth ``half_band`` (degree on
Dirichlet meshes, 2 degree on periodic ones); ``band_index`` places each
element's DOF pairs in the band storage of ``linalg``.  This module
assembles nothing: ``operators`` integrates and scatters.  Callables of
x are sampled vectorised, on whole arrays of points.  Bad input (a
degree outside {1, 2}, fewer than two elements, a point off the mesh)
raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

PERIODIC = "periodic"
DIRICHLET = "dirichlet"


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
    raise ValueError(f"degree must be 1 or 2, got {degree}")


def shape_derivatives(degree: int, xi: np.ndarray) -> np.ndarray:
    """Reference derivatives d/dxi of the Lagrange basis on [0, 1]."""
    xi = np.asarray(xi, dtype=float)
    if degree == 1:
        return np.stack([-np.ones_like(xi), np.ones_like(xi)], axis=-1)
    if degree == 2:
        return np.stack([4.0 * xi - 3.0, 4.0 - 8.0 * xi, 4.0 * xi - 1.0], axis=-1)
    raise ValueError(f"degree must be 1 or 2, got {degree}")


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre points/weights on the reference element [0, 1].

    ``values[degree]`` and ``derivatives[degree]`` are the Lagrange basis
    tables at the points (shape_values, shape_derivatives), built once per
    rule and read-only.
    """

    points: np.ndarray
    weights: np.ndarray
    values: dict[int, np.ndarray]
    derivatives: dict[int, np.ndarray]

    @classmethod
    def gauss_legendre(cls, n_points: int) -> "QuadratureRule":
        # leggauss lives on [-1, 1]; map to [0, 1] so weights sum to 1.
        pts, wts = np.polynomial.legendre.leggauss(n_points)
        points = (pts + 1.0) / 2.0
        weights = wts / 2.0
        values = {degree: shape_values(degree, points) for degree in (1, 2)}
        derivatives = {degree: shape_derivatives(degree, points) for degree in (1, 2)}
        for table in (*values.values(), *derivatives.values()):
            table.setflags(write=False)
        return cls(points=points, weights=weights, values=values, derivatives=derivatives)


# Assembly uses 4 points (exact through degree 7, enough for the P2
# trilinear integrand of degree 5); error norms use 5 points.
ASSEMBLY_RULE = QuadratureRule.gauss_legendre(4)
ERROR_RULE = QuadratureRule.gauss_legendre(5)


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
    half_band: int  # largest |i - j| over the DOF pairs an element couples
    band_index: np.ndarray  # flat (Fortran order) band position of each cell_dofs pair

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
        raise ValueError(f"degree must be 1 or 2, got {degree}")
    if n_elements < 2:
        raise ValueError(f"need at least 2 elements, got {n_elements}")
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
    position = np.arange(n_dofs)  # left-to-right position of each DOF
    if boundary_kind == PERIODIC:
        cell_dofs = cell_dofs % n_dofs  # last vertex wraps onto the first
        # zig-zag: positions 0, 1, 2, ... become DOFs 0, 2, 4, ..., 5, 3, 1
        number = np.minimum(2 * position, 2 * (n_dofs - 1 - position) + 1)
        cell_dofs = number[cell_dofs]
        position = np.argsort(number)

    rows, cols = cell_dofs[:, :, None], cell_dofs[:, None, :]
    half_band = int(np.abs(rows - cols).max())
    dof_x = x_left + position * (h / degree)
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
        half_band=half_band,
        band_index=(half_band + rows - cols) + (2 * half_band + 1) * cols,
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


def evaluate(f: FeFunction, x) -> float | np.ndarray:
    """Values of an FE function at points x (any shape) inside the mesh interval."""
    mesh = f.mesh
    shape = np.shape(x)
    x_arr = np.asarray(x, dtype=float).ravel()

    tol = 1e-12 * (mesh.x_right - mesh.x_left)
    if np.any(x_arr < mesh.x_left - tol) or np.any(x_arr > mesh.x_right + tol):
        raise ValueError(
            f"point outside [{mesh.x_left}, {mesh.x_right}]"
        )

    e = np.clip(
        np.floor((x_arr - mesh.x_left) / mesh.h).astype(int), 0, mesh.n_elements - 1
    )
    xi = (x_arr - (mesh.x_left + e * mesh.h)) / mesh.h
    basis = shape_values(mesh.degree, xi)  # (m, n_loc)
    values = np.einsum("mi,mi->m", f.coefficients[mesh.cell_dofs[e]], basis)
    return float(values[0]) if shape == () else values.reshape(shape)


def sample_function(g: Callable, x: np.ndarray) -> np.ndarray:
    """Values of the vectorised callable g at the points x, broadcast to x.shape."""
    values = np.asarray(g(x), dtype=float)
    # the common case skips broadcast_to, which costs a few microseconds a call
    return values if values.shape == x.shape else np.broadcast_to(values, x.shape)
