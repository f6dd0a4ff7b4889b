"""Property tests of the discrete invariants over random meshes and parameters.

Each property is drawn over the degree, the number of elements, chi,
delta and the deconvolution order N.  The examples are derandomized and
few, so the suite stays reproducible and quick.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from lwrfem.filtering import build_filter_context
from lwrfem.mesh import DIRICHLET, PERIODIC, FeFunction, build_mesh
from lwrfem.operators import assemble, b_form
from lwrfem.scenarios import manufactured
from lwrfem.stepping import ModelParams, Stepper, TimeGrid, mass_norm, run_backward_euler

PROPERTY_SETTINGS = settings(
    derandomize=True, deadline=None, max_examples=20, database=None
)

degrees = st.sampled_from([1, 2])
n_elements = st.integers(min_value=4, max_value=24)
boundary_kinds = st.sampled_from([PERIODIC, DIRICHLET])
deltas = st.floats(min_value=0.0, max_value=0.5)
deconv_orders = st.integers(min_value=0, max_value=3)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_fe(mesh, seed):
    return FeFunction(mesh, np.random.default_rng(seed).standard_normal(mesh.n_dofs))


@PROPERTY_SETTINGS
@given(degree=degrees, n=n_elements, seed=seeds)
def test_b_form_skew_symmetric_on_periodic_meshes(degree, n, seed):
    mesh = build_mesh(0.0, 1.0, n, degree, PERIODIC)
    u, v, w = (_random_fe(mesh, seed + k) for k in range(3))
    value = b_form(u, v, w)
    # each term of b(u, v, w) is bounded by max|u| max|v| max|w| times the
    # largest derivative factor, about (degree n)
    scale = degree * n * np.prod(
        [np.abs(f.coefficients).max() for f in (u, v, w)]
    )
    assert abs(value + b_form(u, w, v)) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(degree=degrees, n=n_elements, kind=boundary_kinds, delta=deltas,
       order=deconv_orders)
def test_stabilization_base_symmetric_positive_semidefinite(degree, n, kind, delta, order):
    ops = assemble(build_mesh(0.0, 1.0, n, degree, kind))
    base = build_filter_context(ops, delta, order).stabilization_base
    scale = max(np.abs(ops.stiffness).max(), 1.0)
    assert np.abs(base - base.T).max() <= 1e-12 * scale
    assert np.linalg.eigvalsh(0.5 * (base + base.T)).min() >= -1e-11 * scale


@PROPERTY_SETTINGS
@given(degree=degrees, n=n_elements, kind=boundary_kinds, delta=deltas)
def test_filter_operator_symmetric_positive_definite(degree, n, kind, delta):
    ops = assemble(build_mesh(0.0, 1.0, n, degree, kind))
    matrix = ops.mass + delta**2 * ops.stiffness
    assert np.abs(matrix - matrix.T).max() <= 1e-14 * np.abs(matrix).max()
    # the mass matrix alone bounds the spectrum from below
    floor = np.linalg.eigvalsh(ops.mass).min()
    assert floor > 0.0
    assert np.linalg.eigvalsh(matrix).min() >= floor * (1.0 - 1e-10)


def _fourier_series(seed, n_modes=3, amplitude=0.2):
    amps = amplitude * np.random.default_rng(seed).uniform(-1.0, 1.0, (n_modes, 2))

    def series(x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for k, (a, b) in enumerate(amps, start=1):
            total += (a * np.sin(2 * np.pi * k * x) + b * np.cos(2 * np.pi * k * x)) / k
        return total

    return series


@PROPERTY_SETTINGS
@given(degree=degrees, n=st.integers(min_value=8, max_value=32),
       chi=st.floats(min_value=0.0, max_value=1.0),
       delta_coeff=st.floats(min_value=0.1, max_value=1.0),
       order=st.integers(min_value=0, max_value=2),
       n_steps=st.integers(min_value=1, max_value=20), seed=seeds)
def test_unfiltered_energy_inequality(degree, n, chi, delta_coeff, order, n_steps, seed):
    # criterion 4, step by step:
    # ||u^n||^2 + 2 dt (stab u^n, u^n) <= ||u^{n-1}||^2 on periodic unforced runs
    mesh = build_mesh(0.0, 1.0, n, degree, PERIODIC)
    scenario = dataclasses.replace(
        manufactured(), forcing=None, initial_condition=_fourier_series(seed)
    )
    params = ModelParams(chi=chi, delta=delta_coeff * np.sqrt(mesh.h), deconv_order=order)
    grid = TimeGrid.of_steps(1e-3, n_steps)
    trajectory = run_backward_euler(scenario, params, grid, mesh, newton_tol=1e-12)
    norms = np.array([d.l2_norm for _, d in trajectory])
    dissipation = np.array([d.stab_dissipation for _, d in trajectory])
    assert norms[0] > 0.0
    assert np.all(dissipation >= -1e-12 * norms[0] ** 2)
    lhs = norms[1:] ** 2 + 2.0 * grid.dt * dissipation[1:]
    assert np.all(lhs <= norms[:-1] ** 2 + 1e-10 * norms[0] ** 2)

    # the diagnostics are the Stepper's own quadratic forms of the states
    stepper = Stepper.build(scenario, params, grid.dt, mesh)
    state = trajectory[-1][0]
    c = state.coefficients
    assert dissipation[-1] == float(c @ (stepper.stab @ c))
    assert norms[-1] == mass_norm(state, stepper.operators)
