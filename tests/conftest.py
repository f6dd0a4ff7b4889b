"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from lwrfem.analysis import _error_norm
from lwrfem.mesh import ERROR_RULE, Mesh1D, QuadratureRule, evaluate, sample_function
from lwrfem.filtering import FilterContext, Stabilization
from lwrfem.linalg import band_matvec
from lwrfem.operators import REFERENCE, AssembledOperators
from lwrfem.stepping import StepDiagnostics, energy_e, mass_norm, run_time_filtered


def random_fe(mesh: Mesh1D, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Coefficients of an FE state, independent normals."""
    return scale * rng.standard_normal(mesh.n_dofs)


def dof_x(mesh: Mesh1D) -> np.ndarray:
    """Coordinate of each DOF, from the DOF map: slot i of element e is node degree e + i."""
    position = np.empty(mesh.n_dofs)
    nodes = np.arange(mesh.degree + 1)[:, None] + mesh.degree * np.arange(mesh.n_elements)
    position[mesh.cell_dofs] = nodes % mesh.n_dofs  # a periodic mesh's last node is its first
    return mesh.x_left + position * (mesh.h / mesh.degree)


def l2_error(mesh: Mesh1D, c: np.ndarray, exact, t: float) -> float:
    """||rho_h - exact(., t)|| for the coefficients c of rho_h, by the solver's 5-point quadrature."""
    xq = mesh.quad_points(ERROR_RULE)
    return _error_norm(mesh, c, sample_function(lambda x: exact(x, t), xq))


def smooth_periodic(mesh: Mesh1D, rng: np.random.Generator, n_modes: int = 4) -> np.ndarray:
    """Coefficients of a random low-frequency Fourier combination sampled at the nodes."""
    amps = rng.uniform(-1.0, 1.0, size=(n_modes, 2))
    x = dof_x(mesh)
    values = np.zeros_like(x)
    for k in range(1, n_modes + 1):
        values += amps[k - 1, 0] * np.sin(2 * np.pi * k * x)
        values += amps[k - 1, 1] * np.cos(2 * np.pi * k * x)
    return values


def element_values(
    mesh: Mesh1D, c: np.ndarray, rule: QuadratureRule
) -> tuple[np.ndarray, np.ndarray]:
    """Values and physical derivatives of the state c at all quadrature points.

    Returns (u, du) each of shape (n_elements, n_points).
    """
    ce = c[mesh.cell_dofs].T  # (n_el, n_loc)
    basis = rule.values[mesh.degree]  # (n_q, n_loc)
    dbasis = rule.derivatives[mesh.degree]
    u = ce @ basis.T
    du = (ce @ dbasis.T) / mesh.h
    return u, du


def fe_values_on_rule(mesh: Mesh1D, c: np.ndarray, n_points: int = 7):
    """(values, derivatives) of the state c at an n-point Gauss rule per element."""
    rule = QuadratureRule.gauss_legendre(n_points)
    return element_values(mesh, c, rule)


def integrate_elementwise(mesh: Mesh1D, pointwise: np.ndarray, n_points: int = 7) -> float:
    """Sum h * w_q * pointwise[e, q] over all elements."""
    rule = QuadratureRule.gauss_legendre(n_points)
    return float(mesh.h * np.einsum("q,eq->", rule.weights, pointwise))


def simpson_l2_error(mesh: Mesh1D, c: np.ndarray, g, n_sub: int = 4001) -> float:
    """Reference ||u - g|| of the state u with coefficients c, by composite Simpson."""
    xs = np.linspace(mesh.x_left, mesh.x_right, n_sub)
    diff = np.asarray(evaluate(mesh, c, xs)) - np.asarray(g(xs))
    from scipy.integrate import simpson

    return float(np.sqrt(max(simpson(diff * diff, x=xs), 0.0)))


def b_form(mesh: Mesh1D, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    """Trilinear form b(u, v, w) = (1/3) int (u'v + 2uv') w dx of three states on mesh.

    A contraction of the element tensor T_ijk = int phi_j phi_k' phi_i dx
    that the solver's b_residual and b_jacobian use: per element,
    int u' v w = T_ijk w_i v_j u_k and int u v' w = T_ijk w_i u_j v_k.
    """
    t = REFERENCE[mesh.degree].transport
    cu, cv, cw = (f[mesh.cell_dofs] for f in (u, v, w))
    return float(np.einsum("ijk,ie,je,ke->", t, cw, cv, cu)
                 + 2.0 * np.einsum("ijk,ie,je,ke->", t, cw, cu, cv)) / 3.0


def norm(u: np.ndarray, operators: AssembledOperators) -> float:
    """mass_norm of u, with the product M u formed here."""
    return mass_norm(u, band_matvec(operators.mass, u))


def energy(u_n: np.ndarray, u_n1: np.ndarray, operators: AssembledOperators) -> float:
    """energy_e of (u^n, u^{n-1}), with the products M u^n and M u^{n-1} formed here."""
    mass_n, mass_n1 = (band_matvec(operators.mass, u) for u in (u_n, u_n1))
    return energy_e(u_n, u_n1, mass_n, mass_n1)


def total_variation(mesh: Mesh1D, c: np.ndarray) -> float:
    """Sum of |jumps| between consecutive nodal values (increasing x)."""
    by_x = c[np.argsort(dof_x(mesh))]  # periodic DOFs zig-zag
    return float(np.abs(np.diff(by_x)).sum())


def overshoot(c: np.ndarray, reference_max: float) -> float:
    """Nodal exceedance above a reference ceiling, max(0, max rho - ref)."""
    return float(max(0.0, c.max() - reference_max))


def march(*args, **kwargs) -> list[tuple[np.ndarray, StepDiagnostics]]:
    """(state, diagnostics) of every level of run_time_filtered, kept for indexing."""
    return [(rho, diag) for rho, diag, _ in run_time_filtered(*args, **kwargs)]


def three_level_ops(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(D[u^n], I[u^n]) of the one-step form of the gamma = 2/3 filtered scheme.

    a, b and c are the coefficients of u^n, u^{n-1} and u^{n-2};
    D[u^n] = (3/2)u^n - 2u^{n-1} + (1/2)u^{n-2}  (difference)
    I[u^n] = (3/2)u^n - u^{n-1} + (1/2)u^{n-2}   (interpolation)
    """
    return 1.5 * a - 2.0 * b + 0.5 * c, 1.5 * a - b + 0.5 * c


def dense(ab: np.ndarray, kl: int | None = None, ku: int | None = None) -> np.ndarray:
    """The matrix held in band storage ab[ku + i - j, j] = a[i, j] (kl = ku by default)."""
    if kl is None:
        kl = ku = ab.shape[0] // 2
    n = ab.shape[1]
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            a[i, j] = ab[ku + i - j, j]
    return a


def band(a: np.ndarray, kl: int, ku: int) -> np.ndarray:
    """Band storage of a square matrix whose entries outside the band are zero."""
    n = a.shape[0]
    ab = np.zeros((kl + ku + 1, n))
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            ab[ku + i - j, j] = a[i, j]
    assert np.array_equal(dense(ab, kl, ku), a), "entries outside the band"
    return ab


def operator_matrix(apply, n: int) -> np.ndarray:
    """Matrix of a linear operator on R^n, column j = apply(e_j)."""
    return np.column_stack([apply(e) for e in np.eye(n)])


def applied_base(ctx: FilterContext) -> np.ndarray:
    """Pi^T S Pi as the solver applies it, by filter solves, column by column."""
    base = Stabilization(ctx, weight=1.0)
    return operator_matrix(base, ctx.stiffness.shape[1])


def dense_stabilization_base(
    operators: AssembledOperators, delta: float, deconv_order: int
) -> np.ndarray:
    """Pi^T S Pi with Pi = (I - F)^{N+1}, F = (M + delta^2 S)^{-1} M, as dense matrices.

    The oracle of the solver's banded chain of filter solves: it forms F
    by one dense solve and Pi as a matrix power.
    """
    m, s = dense(operators.mass), dense(operators.stiffness)
    f = scipy.linalg.solve(m + delta**2 * s, m)
    pi = np.linalg.matrix_power(np.eye(m.shape[0]) - f, deconv_order + 1)
    return pi.T @ s @ pi


class ExtendedBase:
    """The form c . (Pi^T S Pi) c = y . (S y), y = Pi c, in extended precision.

    Each filter solve A z = delta^2 S y of the chain is refined
    iteratively in np.longdouble from float64 solves, so the reference
    keeps the digits that a float64 chain loses on a smooth c.
    """

    def __init__(self, operators: AssembledOperators, delta: float):
        m, self.s = (dense(band).astype(np.longdouble)
                     for band in (operators.mass, operators.stiffness))
        self.d2 = np.longdouble(delta) ** 2
        self.a = m + self.d2 * self.s
        self.lu = scipy.linalg.lu_factor(self.a.astype(float))

    def form(self, c: np.ndarray, deconv_order: int) -> float:
        y = c.astype(np.longdouble)
        for _ in range(deconv_order + 1):
            rhs, z = self.d2 * (self.s @ y), np.zeros_like(y)
            for _ in range(4):
                z += scipy.linalg.lu_solve(self.lu, (rhs - self.a @ z).astype(float))
            y = z
        return float(y @ (self.s @ y))


class FilterOracle:
    """Filter G, van Cittert deconvolution D_N and fluctuation u - D_N(G(u)).

    Acts on coefficient vectors.  Applies D_N by repeated filter solves,
    as approximate deconvolution does, with its own dense factorization
    of M + delta^2 S, so it shares no code path with the solver's banded
    filter solves.
    """

    def __init__(self, operators: AssembledOperators, delta: float, deconv_order: int):
        self.operators = operators
        self.delta = delta
        self.deconv_order = deconv_order
        self.mass = dense(operators.mass)
        self._lu = scipy.linalg.lu_factor(self.mass + delta**2 * dense(operators.stiffness))

    def filter(self, u: np.ndarray) -> np.ndarray:
        """Filtered field: solve (M + delta^2 S) ubar = M u."""
        return scipy.linalg.lu_solve(self._lu, self.mass @ u)

    def deconvolve(self, ubar: np.ndarray) -> np.ndarray:
        """D_N ubar = sum_{n=0..N} (I - G)^n ubar."""
        acc = ubar.copy()
        term = ubar.copy()
        for _ in range(self.deconv_order):
            term = term - self.filter(term)
            acc = acc + term
        return acc

    def fluctuation(self, u: np.ndarray) -> np.ndarray:
        """Unresolved remainder u - D_N(G(u))."""
        return u - self.deconvolve(self.filter(u))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
