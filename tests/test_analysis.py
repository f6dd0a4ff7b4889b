import numpy as np
import pytest

from lwrfem import analysis
from lwrfem.analysis import convergence_table, l2_error, run_error_inf
from lwrfem.mesh import DIRICHLET, PERIODIC, FeFunction, build_mesh
from lwrfem.operators import assemble, l2_project
from lwrfem.scenarios import manufactured, shock
from lwrfem.stepping import StepDiagnostics
from conftest import norm, overshoot, random_fe, total_variation


def make_record(state, t):
    """An unfiltered run's record: the pre-filter state is the state itself."""
    diag = StepDiagnostics(
        n=0, t=t, l2_norm=0.0, energy_e=0.0, zeta_z=0.0,
        newton_iters=0, stab_dissipation=0.0,
    )
    return (state, diag, state)


class TestL2Error:
    def test_zero_against_own_polynomial(self):
        mesh = build_mesh(0.0, 1.0, 6, 2, DIRICHLET)
        f = FeFunction(mesh, 1.0 + 2.0 * mesh.dof_x**2)
        exact = lambda x, t: 1.0 + 2.0 * np.asarray(x) ** 2
        assert l2_error(f, exact, 0.0) < 1e-14

    def test_unit_constant(self):
        mesh = build_mesh(0.0, 1.0, 6, 1, DIRICHLET)
        zero = FeFunction(mesh, np.zeros(mesh.n_dofs))
        assert l2_error(zero, lambda x, t: np.ones_like(x), 0.0) == pytest.approx(1.0, abs=1e-13)

    def test_sine_closed_form(self):
        # integral of sin^2(2 pi x) over [0, 1] is 1/2
        mesh = build_mesh(0.0, 1.0, 24, 1, DIRICHLET)
        zero = FeFunction(mesh, np.zeros(mesh.n_dofs))
        err = l2_error(zero, lambda x, t: np.sin(2 * np.pi * x), 0.0)
        assert err == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)

    def test_agrees_with_mass_norm_for_zero_exact(self, rng):
        mesh = build_mesh(0.0, 1.0, 11, 2, PERIODIC)
        ops = assemble(mesh)
        for _ in range(10):
            f = random_fe(mesh, rng)
            quad = l2_error(f, lambda x, t: np.zeros_like(x), 0.0)
            assert quad == pytest.approx(norm(f, ops), abs=1e-12)


class TestTripleNorm:
    def test_single_entry(self, rng):
        mesh = build_mesh(0.0, 1.0, 8, 1, DIRICHLET)
        f = random_fe(mesh, rng)
        exact = lambda x, t: np.zeros_like(x)
        trajectory = [make_record(f, 0.0)]
        assert run_error_inf(trajectory, exact) == l2_error(f, exact, 0.0)

    def test_monotone_under_extension(self, rng):
        mesh = build_mesh(0.0, 1.0, 8, 1, DIRICHLET)
        exact = lambda x, t: np.zeros_like(x)
        trajectory = [make_record(random_fe(mesh, rng), 0.1 * n) for n in range(5)]
        values = [run_error_inf(trajectory[: k + 1], exact) for k in range(5)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_pre_filter_states_count_once_each(self, rng, monkeypatch):
        mesh = build_mesh(0.0, 1.0, 8, 1, DIRICHLET)
        exact = lambda x, t: np.zeros_like(x)
        small, large = random_fe(mesh, rng, 0.1), random_fe(mesh, rng, 10.0)
        state, diag, _ = make_record(small, 0.1)
        records = [make_record(small, 0.0), (state, diag, large)]
        calls, measure = [], analysis._error_norm
        expected = l2_error(large, exact, 0.1)

        def counted(*args):
            calls.append(args)
            return measure(*args)

        monkeypatch.setattr(analysis, "_error_norm", counted)
        assert run_error_inf(records, exact) == expected
        assert len(calls) == 3  # one per distinct iterate

    def test_projected_exact_trajectory_scales_at_third_order(self):
        # replacing the solver output by the projected exact solution leaves
        # pure approximation error, O(h^{k+1}) for P2
        sc = manufactured()
        values = []
        for n in (8, 16):
            mesh = build_mesh(0.0, 1.0, n, 2, DIRICHLET)
            trajectory = [
                make_record(l2_project(lambda x: sc.exact_solution(x, t), mesh), t)
                for t in (0.25, 0.5, 0.75, 1.0)
            ]
            values.append(run_error_inf(trajectory, sc.exact_solution))
        assert values[0] > 0.0
        assert values[0] / values[1] == pytest.approx(8.0, rel=0.2)


class TestConvergenceTable:
    def test_exact_quartering(self):
        rows = convergence_table([(0.1, 1e-2), (0.05, 2.5e-3)])
        assert rows[0].rate is None
        assert rows[1].rate == pytest.approx(2.0, abs=1e-12)

    def test_reference_rate_pairs(self):
        space = convergence_table([(1.0 / 6.0, 9.58e-5), (1.0 / 12.0, 1.46e-5)])
        assert space[1].rate == pytest.approx(2.71, abs=0.005)
        time = convergence_table([(0.1, 1.97e-2), (0.05, 9.13e-3)])
        assert time[1].rate == pytest.approx(1.11, abs=0.005)

    def test_non_halving_rejected(self):
        with pytest.raises(ValueError, match=r"resolutions 0\.1 -> 0\.03 do not halve"):
            convergence_table([(0.1, 1e-2), (0.03, 1e-3)])

    def test_positive_errors_required(self):
        with pytest.raises(ValueError):
            convergence_table([(0.1, 1e-2), (0.05, 0.0)])

    def test_labels(self):
        rows = convergence_table([(0.1, 1.0), (0.05, 0.25)])
        assert [row.label for row in rows] == ["1/10", "1/20"]
        rows = convergence_table([(0.3, 1.0), (0.15, 0.25)])
        assert [row.label for row in rows] == ["0.3", "0.15"]


class TestOscillationMetrics:
    def test_constant_function(self):
        mesh = build_mesh(0.0, 1.0, 9, 1, DIRICHLET)
        c = FeFunction(mesh, np.full(mesh.n_dofs, 0.4))
        assert total_variation(c) == 0.0
        assert overshoot(c, 0.4) == 0.0

    def test_monotone_profile(self):
        mesh = build_mesh(0.0, 1.0, 4, 1, DIRICHLET)
        f = FeFunction(mesh, np.array([0.1, 0.15, 0.2, 0.5, 0.9]))
        assert total_variation(f) == pytest.approx(0.8, abs=1e-15)

    def test_exact_shock_profile_variation(self):
        sc = shock()
        mesh = build_mesh(0.0, 1.0, 128, 1, DIRICHLET)
        profile = FeFunction(mesh, sc.exact_solution(mesh.dof_x, 1.0))
        assert total_variation(profile) == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_overshoot_measures_exceedance(self):
        mesh = build_mesh(0.0, 1.0, 4, 1, DIRICHLET)
        f = FeFunction(mesh, np.array([0.0, 0.3, 0.45, 0.3, 0.0]))
        assert overshoot(f, 1.0 / 3.0) == pytest.approx(0.45 - 1.0 / 3.0, abs=1e-15)
        assert overshoot(f, 0.5) == 0.0
