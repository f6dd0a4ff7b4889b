"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

The expensive ingredients (time-step and mesh ladders on the smooth
forced problem) are computed once in module-scoped fixtures and shared
by the criteria that consume them.  Ladder errors are measured with
run_error_inf, i.e. the max L2 error over every scheme iterate
(pre-filter states included for filtered runs), which is the measurement
that reproduces the reference convergence data.
"""

import dataclasses
import time

import numpy as np
import pytest

from lwrfem.analysis import convergence_table, l2_error, run_error_inf
from lwrfem.filtering import build_filter_context, stabilization_matrix
from lwrfem.linalg import band_matvec
from lwrfem.mesh import DIRICHLET, PERIODIC, build_mesh
from lwrfem.operators import assemble, b_residual, forcing_vector
from lwrfem.scenarios import manufactured, rarefaction, shock
from lwrfem.stepping import ModelParams, TimeGrid, run_time_filtered
from conftest import (
    b_form, fe_values_on_rule, integrate_elementwise, march, overshoot, random_fe,
    three_level_ops, total_variation,
)

GAMMA_FILTER = 2.0 / 3.0
TIME_LADDER = (10, 20, 40, 80, 160)  # steps over T = 1
SPACE_LADDER = (6, 12, 24, 48, 96)  # reduced ladder for runtime


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def _rates(errors):
    return [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]


@pytest.fixture(scope="module")
def time_ladders():
    """Errors/rates over dt for chi in {0, 1} and gamma in {0, 2/3}."""
    scenario = manufactured()
    mesh = build_mesh(0.0, 1.0, 100, 2, DIRICHLET)
    delta = 0.1 * np.sqrt(mesh.h)
    results = {}
    elapsed = {}
    for chi in (0.0, 1.0):
        start = time.time()
        for gamma in (0.0, GAMMA_FILTER):
            params = ModelParams(
                chi=chi, delta=delta, deconv_order=1, gamma=gamma
            )
            errors = []
            max_iters = 0
            for n_steps in TIME_LADDER:
                grid = TimeGrid(1.0 / n_steps, n_steps)
                trajectory = list(run_time_filtered(scenario, params, grid, mesh))
                errors.append(run_error_inf(trajectory, scenario.exact_solution))
                max_iters = max(
                    max_iters, max(d.newton_iters for _, d, _ in trajectory)
                )
            results[(chi, gamma)] = {
                "errors": errors,
                "rates": _rates(errors),
                "max_newton_iters": max_iters,
            }
        elapsed[chi] = time.time() - start
    return results, elapsed


@pytest.fixture(scope="module")
def space_ladders():
    """Errors/rates over h at T = 0.02, dt = 5e-6, for chi in {0, 1}."""
    scenario = manufactured()
    grid = TimeGrid(5e-6, 4000)
    results = {}
    elapsed = {}
    for chi in (0.0, 1.0):
        start = time.time()
        errors = []
        max_iters = 0
        for n in SPACE_LADDER:
            mesh = build_mesh(0.0, 1.0, n, 2, DIRICHLET)
            params = ModelParams(
                chi=chi, delta=0.1 * np.sqrt(mesh.h), deconv_order=1, gamma=0.0
            )
            trajectory = list(run_time_filtered(scenario, params, grid, mesh))
            errors.append(run_error_inf(trajectory, scenario.exact_solution))
            max_iters = max(max_iters, max(d.newton_iters for _, d, _ in trajectory))
        results[chi] = {
            "errors": errors,
            "rates": _rates(errors),
            "max_newton_iters": max_iters,
        }
        elapsed[chi] = time.time() - start
    return results, elapsed


def test_criterion_01_time_rates_without_stabilization(time_ladders):
    results, elapsed = time_ladders
    plain = results[(0.0, 0.0)]
    filtered = results[(0.0, GAMMA_FILTER)]
    checks = {
        "plain rates in [0.9, 1.15]": all(0.9 <= r <= 1.15 for r in plain["rates"]),
        "plain error at dt=1/160 within 25% of 1.09e-3": (
            abs(plain["errors"][-1] - 1.09e-3) <= 0.25 * 1.09e-3
        ),
        "filtered rates in [1.8, 2.05]": all(
            1.8 <= r <= 2.05 for r in filtered["rates"]
        ),
        "filtered error at dt=1/80 within 25% of 8.48e-5": (
            abs(filtered["errors"][-2] - 8.48e-5) <= 0.25 * 8.48e-5
        ),
        "runtime <= 5 minutes": elapsed[0.0] <= 300.0,
    }
    detail = (
        f"plain rates {['%.3f' % r for r in plain['rates']]}, "
        f"filtered rates {['%.3f' % r for r in filtered['rates']]}, "
        f"errors last plain {plain['errors'][-1]:.3e}, "
        f"filtered@1/80 {filtered['errors'][-2]:.3e}, "
        f"elapsed {elapsed[0.0]:.0f}s"
    )
    ok = all(checks.values())
    _report(1, ok, detail)
    assert ok, [name for name, passed in checks.items() if not passed]


def test_criterion_02_time_rates_with_stabilization(time_ladders):
    results, _ = time_ladders
    plain = results[(1.0, 0.0)]
    filtered = results[(1.0, GAMMA_FILTER)]
    checks = {
        "plain rates in [0.9, 1.15]": all(0.9 <= r <= 1.15 for r in plain["rates"]),
        "filtered rates in [1.8, 2.05]": all(
            1.8 <= r <= 2.05 for r in filtered["rates"]
        ),
        "filtered error at dt=1/160 within 25% of 2.15e-5": (
            abs(filtered["errors"][-1] - 2.15e-5) <= 0.25 * 2.15e-5
        ),
    }
    detail = (
        f"plain rates {['%.3f' % r for r in plain['rates']]}, "
        f"filtered rates {['%.3f' % r for r in filtered['rates']]}, "
        f"filtered errors {['%.3e' % e for e in filtered['errors']]}"
    )
    ok = all(checks.values())
    _report(2, ok, detail)
    assert ok, [name for name, passed in checks.items() if not passed]


def test_criterion_03_space_rates(space_ladders):
    results, elapsed = space_ladders
    rate_plain = results[0.0]["rates"][-1]
    rate_stab = results[1.0]["rates"][-1]
    checks = {
        "chi=0 final-rung rate in [1.9, 2.2]": 1.9 <= rate_plain <= 2.2,
        "chi=1 final-rung rate in [2.1, 2.6]": 2.1 <= rate_stab <= 2.6,
        "runtime <= 30 minutes": sum(elapsed.values()) <= 1800.0,
    }
    detail = (
        f"chi=0 rates {['%.3f' % r for r in results[0.0]['rates']]}, "
        f"chi=1 rates {['%.3f' % r for r in results[1.0]['rates']]}, "
        f"elapsed {sum(elapsed.values()):.0f}s"
    )
    ok = all(checks.values())
    _report(3, ok, detail)
    assert ok, [name for name, passed in checks.items() if not passed]


def _random_fourier_series(rng, n_modes: int = 3, amplitude: float = 0.2):
    # density-scale data; the 1/k decay keeps gradients mild enough that
    # no shock forms inside the 100-step horizon
    amps = amplitude * rng.uniform(-1.0, 1.0, size=(n_modes, 2))

    def series(x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for k in range(1, n_modes + 1):
            total += amps[k - 1, 0] * np.sin(2 * np.pi * k * x) / k
            total += amps[k - 1, 1] * np.cos(2 * np.pi * k * x) / k
        return total

    return series


def test_criterion_04_unfiltered_energy_stability():
    rng = np.random.default_rng(2468)
    scenario = dataclasses.replace(manufactured(), forcing=None)
    chis = (0.0, 0.5, 1.0)
    worst_slack = -np.inf
    monotone_ok = True
    for run in range(50):
        degree = 1 if run % 2 == 0 else 2
        mesh = build_mesh(0.0, 1.0, 32, degree, PERIODIC)
        params = ModelParams(
            chi=chis[run % 3],
            delta=np.sqrt(mesh.h),
            deconv_order=run % 2,
            gamma=0.0,
        )
        case = dataclasses.replace(
            scenario, initial_condition=_random_fourier_series(rng)
        )
        grid = TimeGrid(1e-3, 100)
        trajectory = march(case, params, grid, mesh, newton_tol=1e-12)
        norms = np.array([d.l2_norm for _, d in trajectory])
        monotone_ok &= bool(np.all(norms[1:] <= norms[:-1] * (1.0 + 1e-10)))
        dissipated = 2.0 * grid.dt * sum(d.stab_dissipation for _, d in trajectory[1:])
        slack = (norms[-1] ** 2 + dissipated - norms[0] ** 2) / norms[0] ** 2
        worst_slack = max(worst_slack, slack)
    ok = monotone_ok and worst_slack <= 1e-9
    detail = f"worst relative slack {worst_slack:.2e}, per-step monotone: {monotone_ok}"
    _report(4, ok, detail)
    assert ok, detail


def test_criterion_05_filtered_energy_stability():
    rng = np.random.default_rng(1357)
    scenario = dataclasses.replace(manufactured(), forcing=None)
    chis = (0.0, 0.5, 1.0)
    bounded_ok = True
    energy_ok = True
    for run in range(50):
        degree = 2 if run % 2 == 0 else 1
        mesh = build_mesh(0.0, 1.0, 32, degree, PERIODIC)
        params = ModelParams(
            chi=chis[run % 3],
            delta=np.sqrt(mesh.h),
            deconv_order=run % 2,
            gamma=GAMMA_FILTER,
        )
        case = dataclasses.replace(
            scenario, initial_condition=_random_fourier_series(rng)
        )
        grid = TimeGrid(1e-3, 100)
        trajectory = march(case, params, grid, mesh, newton_tol=1e-12)
        norms = [d.l2_norm for _, d in trajectory]
        bounded_ok &= max(norms) <= 10.0 * (norms[0] + norms[1])
        energies = [d.energy_e for _, d in trajectory[1:]]
        energy_ok &= all(
            later <= earlier * (1.0 + 1e-10)
            for earlier, later in zip(energies, energies[1:])
        )
    ok = bounded_ok and energy_ok
    detail = f"bounded: {bounded_ok}, energy monotone: {energy_ok}"
    _report(5, ok, detail)
    assert ok, detail


def test_criterion_06_trilinear_form_properties():
    rng = np.random.default_rng(97531)
    mesh = build_mesh(0.0, 1.0, 10, 2, PERIODIC)
    worst = 0.0
    for _ in range(100):
        fu, fv, fw = (random_fe(mesh, rng) for _ in range(3))
        u, du = fe_values_on_rule(fu)
        v, dv = fe_values_on_rule(fv)
        w, dw = fe_values_on_rule(fw)
        value = b_form(fu, fv, fw)

        # skew symmetry
        skew = value + b_form(fu, fw, fv)
        # two integration-by-parts splittings of the same form
        split_a = (
            integrate_elementwise(mesh, u * dv * w)
            - integrate_elementwise(mesh, v * dw * u)
        ) / 3.0
        split_b = (
            -integrate_elementwise(mesh, v * du * w)
            - 2.0 * integrate_elementwise(mesh, v * dw * u)
        ) / 3.0
        # quadratic transport identity
        quad_lhs = 2.0 * integrate_elementwise(mesh, u * dv * v)
        quad_rhs = -integrate_elementwise(mesh, v * du * v)

        scale = max(1.0, abs(value), abs(quad_lhs))
        worst = max(
            worst,
            abs(skew) / scale,
            abs(value - split_a) / scale,
            abs(value - split_b) / scale,
            abs(quad_lhs - quad_rhs) / scale,
        )
    ok = worst <= 1e-11
    detail = f"worst relative identity residual {worst:.2e}"
    _report(6, ok, detail)
    assert ok, detail


def test_criterion_07_one_step_two_step_equivalence():
    scenario = manufactured()
    mesh = build_mesh(0.0, 1.0, 100, 2, DIRICHLET)
    ops = assemble(mesh)
    delta = 0.1 * np.sqrt(mesh.h)
    ctx = build_filter_context(ops, delta, deconv_order=1)
    params = ModelParams(
        chi=1.0, delta=delta, deconv_order=1, gamma=GAMMA_FILTER
    )
    newton_tol = 1e-10
    grid = TimeGrid(0.02, 50)
    trajectory = march(scenario, params, grid, mesh, newton_tol=newton_tol)
    stab = stabilization_matrix(ctx, params.chi)
    worst = 0.0
    for n in range(2, grid.n_steps + 1):
        d, i = three_level_ops(trajectory[n][0], trajectory[n - 1][0], trajectory[n - 2][0])
        residual = (
            band_matvec(ops.mass, d.coefficients) / grid.dt
            + params.v_f * band_matvec(ops.convection, i.coefficients)
            - (2.0 * params.v_f / params.rho_m) * b_residual(i)
            + stab(i.coefficients)
            - forcing_vector(scenario.forcing, n * grid.dt, mesh)
        )
        allowed = 10.0 * newton_tol * trajectory[n][1].residual_scale
        worst = max(worst, np.abs(residual[1:-1]).max() / allowed)
    ok = worst <= 1.0
    detail = f"worst residual vs 10x Newton tolerance: {worst:.3f}"
    _report(7, ok, detail)
    assert ok, detail


# Damping factors frozen from a one-time measurement with this solver:
# TV ratio came out 0.055 and overshoot ratio 0.69 at the stated settings.
SHOCK_TV_FACTOR = 0.25
SHOCK_OVERSHOOT_FACTOR = 0.85


def test_criterion_08_shock_damping():
    scenario = shock()
    mesh = build_mesh(0.0, 1.0, 128, 1, DIRICHLET)
    grid = TimeGrid(1e-4, 10000)
    metrics = {}
    for chi in (0.0, 1.0):
        params = ModelParams(
            chi=chi, delta=np.sqrt(mesh.h), deconv_order=0, gamma=0.0
        )
        trajectory = march(scenario, params, grid, mesh)
        final = trajectory[-1][0]
        metrics[chi] = (total_variation(final), overshoot(final, 1.0 / 3.0))
    tv0, ov0 = metrics[0.0]
    tv1, ov1 = metrics[1.0]
    checks = {
        "stabilized TV below unstabilized": tv1 < tv0,
        "TV damping within frozen factor": tv1 <= SHOCK_TV_FACTOR * tv0,
        "overshoot damping within frozen factor": ov1 <= SHOCK_OVERSHOOT_FACTOR * ov0,
    }
    detail = (
        f"TV: {tv1:.4f} vs {tv0:.4f} (ratio {tv1 / tv0:.3f}), "
        f"overshoot: {ov1:.5f} vs {ov0:.5f} (ratio {ov1 / ov0:.3f})"
    )
    ok = all(checks.values())
    _report(8, ok, detail)
    assert ok, [name for name, passed in checks.items() if not passed]


def test_criterion_09_rarefaction_accuracy_ordering():
    scenario = rarefaction()
    mesh = build_mesh(0.0, 1.0, 128, 1, DIRICHLET)
    grid = TimeGrid(1e-4, 10000)
    errors = {}
    for chi, order in [(1.0, 0), (1.0, 1), (0.0, 0)]:
        params = ModelParams(
            chi=chi, delta=np.sqrt(mesh.h), deconv_order=order, gamma=0.0
        )
        trajectory = march(scenario, params, grid, mesh)
        state, diag = trajectory[-1]
        errors[(chi, order)] = l2_error(state, scenario.exact_solution, diag.t)
    checks = {
        "N=1 at least as accurate as N=0 for chi=1": (
            errors[(1.0, 1)] <= errors[(1.0, 0)]
        ),
        "chi=0 at least as accurate as chi=1": (
            errors[(0.0, 0)] <= min(errors[(1.0, 0)], errors[(1.0, 1)])
        ),
    }
    detail = ", ".join(
        f"chi={chi} N={order}: {err:.3e}" for (chi, order), err in errors.items()
    )
    ok = all(checks.values())
    _report(9, ok, detail)
    assert ok, [name for name, passed in checks.items() if not passed]


def test_criterion_10_newton_robustness(time_ladders, space_ladders):
    time_results, _ = time_ladders
    space_results, _ = space_ladders
    worst = max(
        [r["max_newton_iters"] for r in time_results.values()]
        + [r["max_newton_iters"] for r in space_results.values()]
    )
    ok = worst <= 8
    detail = f"max Newton iterations over all ladder runs: {worst}"
    _report(10, ok, detail)
    assert ok, detail


# Published convergence data: (resolution, error) ladders and their
# printed rates, used as a pure-arithmetic check of the rate computation.
SPACE_RESOLUTIONS = [1.0 / n for n in (6, 12, 24, 48, 96, 192)]
TIME_RESOLUTIONS = [1.0 / n for n in (10, 20, 40, 80, 160)]
REFERENCE_TABLES = [
    # (resolutions, errors, printed rates)
    (SPACE_RESOLUTIONS, [9.58e-5, 1.46e-5, 2.67e-6, 6.23e-7, 1.55e-7, 3.84e-8],
     [2.71, 2.45, 2.10, 2.01, 2.01]),
    (SPACE_RESOLUTIONS, [9.28e-5, 1.34e-5, 2.68e-6, 6.26e-7, 1.53e-7, 3.82e-8],
     [2.79, 2.32, 2.10, 2.03, 2.00]),
    (SPACE_RESOLUTIONS, [8.78e-5, 1.35e-5, 2.54e-6, 5.51e-7, 1.12e-7, 2.10e-8],
     [2.70, 2.41, 2.20, 2.29, 2.42]),
    (SPACE_RESOLUTIONS, [8.42e-5, 1.49e-5, 2.65e-6, 5.46e-7, 1.12e-7, 2.10e-8],
     [2.50, 2.49, 2.28, 2.28, 2.42]),
    (TIME_RESOLUTIONS, [1.97e-2, 9.13e-3, 4.43e-3, 2.19e-3, 1.09e-3],
     [1.11, 1.04, 1.02, 1.01]),
    (TIME_RESOLUTIONS, [4.88e-3, 1.26e-3, 3.29e-4, 8.48e-5, 2.31e-5],
     [1.95, 1.94, 1.96, 1.88]),
    (TIME_RESOLUTIONS, [1.96e-2, 9.12e-3, 4.43e-3, 2.19e-3, 1.09e-3],
     [1.10, 1.04, 1.02, 1.01]),
    (TIME_RESOLUTIONS, [4.87e-3, 1.26e-3, 3.29e-4, 8.43e-5, 2.15e-5],
     [1.95, 1.94, 1.96, 1.97]),
]


def test_criterion_11_rate_arithmetic():
    worst = 0.0
    for resolutions, errors, printed in REFERENCE_TABLES:
        rows = convergence_table(list(zip(resolutions, errors)))
        computed = [row.rate for row in rows[1:]]
        worst = max(
            worst, max(abs(c - p) for c, p in zip(computed, printed))
        )
    ok = worst <= 0.01
    detail = f"max |computed - printed| rate deviation: {worst:.4f}"
    _report(11, ok, detail)
    assert ok, detail
