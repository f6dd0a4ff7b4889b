"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from lwrfem.mesh import (
    FeFunction,
    Mesh1D,
    QuadratureRule,
    element_values,
    evaluate,
    require_same_mesh,
)
from lwrfem.operators import AssembledOperators
from lwrfem.stepping import StepDiagnostics, run_time_filtered


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
    mesh = require_same_mesh(u_n, u_n1, u_n2)
    a, b, c = u_n.coefficients, u_n1.coefficients, u_n2.coefficients
    return (
        FeFunction(mesh, 1.5 * a - 2.0 * b + 0.5 * c),
        FeFunction(mesh, 1.5 * a - b + 0.5 * c),
    )


class FilterOracle:
    """Filter G, van Cittert deconvolution D_N and fluctuation u - D_N(G(u)).

    Applies D_N by repeated filter solves, as approximate deconvolution
    does, with its own factorization of M + delta^2 S, so it shares no
    code path with the solver's cached Pi^T S Pi.
    """

    def __init__(self, operators: AssembledOperators, delta: float, deconv_order: int):
        self.operators = operators
        self.delta = delta
        self.deconv_order = deconv_order
        self._lu = scipy.linalg.lu_factor(operators.mass + delta**2 * operators.stiffness)

    def filter(self, u: FeFunction) -> FeFunction:
        """Filtered field: solve (M + delta^2 S) ubar = M u."""
        rhs = self.operators.mass @ u.coefficients
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
