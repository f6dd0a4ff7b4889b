import numpy as np
import pytest

from lwrfem.scenarios import LEFT, RIGHT, SCENARIOS, manufactured, rarefaction, shock


class TestManufactured:
    def test_exact_at_midpoint(self):
        sc = manufactured()
        for t in np.linspace(0.0, 2.0, 9):
            assert sc.exact_solution(0.5, t) == pytest.approx(np.sin(t), abs=1e-14)

    def test_forcing_at_midpoint(self):
        # cos(pi/2) = 0 kills the transport term, leaving sin^4(pi/2) cos(t)
        sc = manufactured()
        for t in np.linspace(0.0, 2.0, 9):
            assert sc.forcing(0.5, t) == pytest.approx(np.cos(t), abs=1e-14)

    def test_forcing_closes_the_density_equation(self, rng):
        # hand-derived derivatives of the exact solution, checked pointwise
        sc = manufactured()
        v_f = rho_m = 1.0
        for _ in range(200):
            x = rng.uniform(0.0, 1.0)
            t = rng.uniform(0.0, 2.0)
            rho = np.sin(np.pi * x) ** 4 * np.sin(t)
            rho_t = np.sin(np.pi * x) ** 4 * np.cos(t)
            rho_x = 4.0 * np.pi * np.sin(np.pi * x) ** 3 * np.cos(np.pi * x) * np.sin(t)
            residual = rho_t + (v_f - 2.0 * v_f / rho_m * rho) * rho_x - sc.forcing(x, t)
            assert abs(residual) < 1e-12

    def test_boundary_and_initial_data(self):
        sc = manufactured()
        assert list(sc.dirichlet) == [LEFT, RIGHT]
        assert sc.dirichlet[LEFT] == sc.dirichlet[RIGHT] == 0.0
        for t in np.linspace(0.0, 2.0, 20):
            assert sc.exact_solution(0.0, t) == pytest.approx(0.0, abs=1e-14)
            assert sc.exact_solution(1.0, t) == pytest.approx(0.0, abs=1e-12)
        x = np.linspace(0.0, 1.0, 33)
        assert np.abs(sc.initial_condition(x)).max() == 0.0
        assert np.abs(sc.exact_solution(x, 0.0)).max() == 0.0


class TestRarefaction:
    def test_fan_values(self):
        sc = rarefaction()
        assert sc.exact_solution(0.5, 1.0) == pytest.approx(0.25, abs=1e-14)
        assert sc.exact_solution(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
        assert sc.exact_solution(1.3, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_fan_edges_continuous(self):
        sc = rarefaction()
        for t in np.linspace(0.05, 2.0, 20):
            left_edge = 0.06 * t
            fan_value = 0.5 - left_edge / (2.0 * t)
            assert fan_value == pytest.approx(0.47, abs=1e-14)
            assert sc.exact_solution(left_edge, t) == pytest.approx(0.47, abs=1e-12)
            assert sc.exact_solution(t, t) == pytest.approx(0.0, abs=1e-12)

    def test_continuity_in_space(self):
        sc = rarefaction()
        for t in (0.25, 0.5, 1.0):
            x = np.linspace(0.0, 1.0, 4001)
            values = sc.exact_solution(x, t)
            assert np.abs(np.diff(values)).max() < 2.0 * (x[1] - x[0]) / (2 * 0.06)

    def test_initial_and_boundary_data(self):
        sc = rarefaction()
        assert list(sc.dirichlet) == [LEFT]
        assert sc.dirichlet[LEFT] == 0.47
        assert RIGHT not in sc.dirichlet
        x = np.linspace(0.01, 1.0, 50)
        assert np.abs(sc.initial_condition(x)).max() == 0.0
        assert np.abs(sc.exact_solution(x, 0.0)).max() == 0.0
        for t in np.linspace(0.05, 1.0, 20):
            assert sc.exact_solution(0.0, t) == pytest.approx(0.47)


class TestShock:
    def test_branch_values(self):
        sc = shock()
        assert sc.exact_solution(0.4, 1.0) == pytest.approx(0.25)
        assert sc.exact_solution(0.5, 1.0) == pytest.approx(1.0 / 3.0)

    def test_jump_speed_from_flux_balance(self):
        # flux q(rho) = rho (1 - rho); the jump moves at the divided difference
        q = lambda r: r * (1.0 - r)
        speed = (q(1.0 / 3.0) - q(0.25)) / (1.0 / 3.0 - 0.25)
        assert speed == pytest.approx(5.0 / 12.0, abs=1e-15)

    def test_single_discontinuity_at_jump_location(self):
        sc = shock()
        for t in (0.3, 0.7, 1.0):
            x = np.linspace(0.0, 1.0, 8001)
            values = np.asarray(sc.exact_solution(x, t))
            jumps = np.nonzero(np.abs(np.diff(values)) > 1e-6)[0]
            assert len(jumps) == 1
            location = 0.5 * (x[jumps[0]] + x[jumps[0] + 1])
            assert abs(location - 5.0 * t / 12.0) <= x[1] - x[0]

    def test_initial_and_boundary_data(self):
        sc = shock()
        assert list(sc.dirichlet) == [LEFT]
        assert sc.dirichlet[LEFT] == 0.25
        assert RIGHT not in sc.dirichlet
        x = np.linspace(0.01, 1.0, 50)
        assert np.abs(sc.initial_condition(x) - 1.0 / 3.0).max() < 1e-15
        assert np.abs(np.asarray(sc.exact_solution(x, 0.0)) - 1.0 / 3.0).max() < 1e-15


class TestRegistry:
    def test_names(self):
        assert set(SCENARIOS) == {"manufactured", "rarefaction", "shock"}

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_dirichlet_values_are_numbers(self, name):
        # constant inflow data: the steps read the values, they call nothing
        assert all(type(g) is float for g in SCENARIOS[name]().dirichlet.values())

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_exact_matches_boundary_at_constrained_ends(self, name):
        sc = SCENARIOS[name]()
        ends = {LEFT: 0.0, RIGHT: 1.0}
        for end, g in sc.dirichlet.items():
            for t in np.linspace(0.05, 1.0, 20):
                assert sc.exact_solution(ends[end], t) == pytest.approx(g, abs=1e-12)
