"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from lwrfem.mesh import FeFunction, Mesh1D, QuadratureRule, evaluate
from lwrfem.filtering import FilterContext, Stabilization
from lwrfem.linalg import band_matvec
from lwrfem.operators import REFERENCE, AssembledOperators
from lwrfem.stepping import StepDiagnostics, energy_e, mass_norm, run_time_filtered


def random_fe(mesh: Mesh1D, rng: np.random.Generator, scale: float = 1.0) -> FeFunction:
    """FE function with independent normal coefficients."""
    return FeFunction(mesh, scale * rng.standard_normal(mesh.n_dofs))


def smooth_periodic(mesh: Mesh1D, rng: np.random.Generator, n_modes: int = 4) -> FeFunction:
    """Random low-frequency Fourier combination sampled at the nodes."""
    amps = rng.uniform(-1.0, 1.0, size=(n_modes, 2))
    x = mesh.dof_x
    values = np.zeros_like(x)
    for k in range(1, n_modes + 1):
        values += amps[k - 1, 0] * np.sin(2 * np.pi * k * x)
        values += amps[k - 1, 1] * np.cos(2 * np.pi * k * x)
    return FeFunction(mesh, values)


def element_values(f: FeFunction, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """Values and physical derivatives of f at all quadrature points.

    Returns (u, du) each of shape (n_elements, n_points).
    """
    mesh = f.mesh
    ce = f.coefficients[mesh.cell_dofs]  # (n_el, n_loc)
    basis = rule.values[mesh.degree]  # (n_q, n_loc)
    dbasis = rule.derivatives[mesh.degree]
    u = ce @ basis.T
    du = (ce @ dbasis.T) / mesh.h
    return u, du


def fe_values_on_rule(f: FeFunction, n_points: int = 7):
    """(values, derivatives) of f at an n-point Gauss rule per element."""
    rule = QuadratureRule.gauss_legendre(n_points)
    return element_values(f, rule)


def integrate_elementwise(mesh: Mesh1D, pointwise: np.ndarray, n_points: int = 7) -> float:
    """Sum h * w_q * pointwise[e, q] over all elements."""
    rule = QuadratureRule.gauss_legendre(n_points)
    return float(mesh.h * np.einsum("q,eq->", rule.weights, pointwise))


def simpson_l2_error(f: FeFunction, g, n_sub: int = 4001) -> float:
    """Reference ||f - g|| by composite Simpson on a fine uniform grid."""
    mesh = f.mesh
    xs = np.linspace(mesh.x_left, mesh.x_right, n_sub)
    diff = np.asarray(evaluate(f, xs)) - np.asarray(g(xs))
    from scipy.integrate import simpson

    return float(np.sqrt(max(simpson(diff * diff, x=xs), 0.0)))


def b_form(u: FeFunction, v: FeFunction, w: FeFunction) -> float:
    """Trilinear form b(u, v, w) = (1/3) int (u'v + 2uv') w dx.

    A contraction of the element tensor T_ijk = int phi_j phi_k' phi_i dx
    that the solver's b_residual and b_jacobian use: per element,
    int u' v w = T_ijk w_i v_j u_k and int u v' w = T_ijk w_i u_j v_k.
    """
    mesh = u.mesh
    t = REFERENCE[mesh.degree].transport
    cu, cv, cw = (f.coefficients[mesh.cell_dofs] for f in (u, v, w))
    return float(np.einsum("ijk,ei,ej,ek->", t, cw, cv, cu)
                 + 2.0 * np.einsum("ijk,ei,ej,ek->", t, cw, cu, cv)) / 3.0


def norm(u: FeFunction, operators: AssembledOperators) -> float:
    """mass_norm of u, with the product M u formed here."""
    return mass_norm(u.coefficients, band_matvec(operators.mass, u.coefficients))


def energy(u_n: FeFunction, u_n1: FeFunction, operators: AssembledOperators) -> float:
    """energy_e of (u^n, u^{n-1}), with the products M u^n and M u^{n-1} formed here."""
    mass_n, mass_n1 = (band_matvec(operators.mass, u.coefficients) for u in (u_n, u_n1))
    return energy_e(u_n.coefficients, u_n1.coefficients, mass_n, mass_n1)


def total_variation(rho_h: FeFunction) -> float:
    """Sum of |jumps| between consecutive nodal values (increasing x)."""
    by_x = rho_h.coefficients[np.argsort(rho_h.mesh.dof_x)]  # periodic DOFs zig-zag
    return float(np.abs(np.diff(by_x)).sum())


def overshoot(rho_h: FeFunction, reference_max: float) -> float:
    """Nodal exceedance above a reference ceiling, max(0, max rho - ref)."""
    return float(max(0.0, rho_h.coefficients.max() - reference_max))


def march(*args, **kwargs) -> list[tuple[FeFunction, StepDiagnostics]]:
    """(state, diagnostics) of every level of run_time_filtered, kept for indexing."""
    return [(rho, diag) for rho, diag, _ in run_time_filtered(*args, **kwargs)]


def three_level_ops(
    u_n: FeFunction, u_n1: FeFunction, u_n2: FeFunction
) -> tuple[FeFunction, FeFunction]:
    """(D[u^n], I[u^n]) of the one-step form of the gamma = 2/3 filtered scheme.

    D[u^n] = (3/2)u^n - 2u^{n-1} + (1/2)u^{n-2}  (difference)
    I[u^n] = (3/2)u^n - u^{n-1} + (1/2)u^{n-2}   (interpolation)
    """
    mesh = u_n.mesh
    a, b, c = u_n.coefficients, u_n1.coefficients, u_n2.coefficients
    return (
        FeFunction(mesh, 1.5 * a - 2.0 * b + 0.5 * c),
        FeFunction(mesh, 1.5 * a - b + 0.5 * c),
    )


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

    Applies D_N by repeated filter solves, as approximate deconvolution
    does, with its own dense factorization of M + delta^2 S, so it shares
    no code path with the solver's banded filter solves.
    """

    def __init__(self, operators: AssembledOperators, delta: float, deconv_order: int):
        self.operators = operators
        self.delta = delta
        self.deconv_order = deconv_order
        self.mass = dense(operators.mass)
        self._lu = scipy.linalg.lu_factor(self.mass + delta**2 * dense(operators.stiffness))

    def filter(self, u: FeFunction) -> FeFunction:
        """Filtered field: solve (M + delta^2 S) ubar = M u."""
        rhs = self.mass @ u.coefficients
        return FeFunction(u.mesh, scipy.linalg.lu_solve(self._lu, rhs))

    def deconvolve(self, ubar: FeFunction) -> FeFunction:
        """D_N ubar = sum_{n=0..N} (I - G)^n ubar."""
        acc = ubar.coefficients.copy()
        term = ubar.coefficients.copy()
        for _ in range(self.deconv_order):
            term = term - self.filter(FeFunction(ubar.mesh, term)).coefficients
            acc = acc + term
        return FeFunction(ubar.mesh, acc)

    def fluctuation(self, u: FeFunction) -> FeFunction:
        """Unresolved remainder u - D_N(G(u))."""
        smooth = self.deconvolve(self.filter(u))
        return FeFunction(u.mesh, u.coefficients - smooth.coefficients)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
