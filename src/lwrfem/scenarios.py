"""Experiment configurations: manufactured solution, rarefaction, shock.

Each scenario bundles initial data, the constant Dirichlet value of each
end it constrains, the forcing term (if any), the exact solution (when
known), and the settings in which its experiment departs from the
RunConfig defaults.  All callables accept numpy arrays.

The model is the LWR density equation with Greenshield's closure,

    rho_t + (v_f - (2 v_f / rho_m) rho) rho_x = f,

whose flux is q(rho) = v_f rho (1 - rho / rho_m).  The exact solutions
and the manufactured forcing are those of v_f = rho_m = 1.  The
rarefaction and shock cases are Riemann-type problems on [0, 1] with
inflow data at x = 0; their characteristic speed v_f (1 - 2 rho / rho_m)
stays positive for every state used, so only the inflow end is
constrained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True)
class Scenario:
    """One experiment: data, Dirichlet values, and defaults."""

    initial_condition: Callable
    dirichlet: dict[str, float]  # the value g of each end carrying Dirichlet data
    forcing: Callable | None
    exact_solution: Callable | None
    # the settings, keyed by configuration key, in which this experiment
    # departs from the defaults of the CLI's RunConfig fields
    defaults: dict


def _manufactured_exact(x, t):
    return np.sin(np.pi * x) ** 4 * np.sin(t)


def _manufactured_forcing(x, t):
    s = np.sin(np.pi * x)
    transport = 1.0 - 2.0 * s**4 * np.sin(t)
    return s**4 * np.cos(t) + 4.0 * np.pi * np.cos(np.pi * x) * s**3 * np.sin(t) * transport


def manufactured() -> Scenario:
    """Smooth forced problem with exact solution sin^4(pi x) sin(t).

    Both ends carry homogeneous Dirichlet data; the forcing is chosen so
    the exact solution satisfies the density equation with v_f = rho_m = 1.
    Defaults follow the time-accuracy study setup (P2, N = 1, h = 1/100,
    delta = 0.1 sqrt(h), T = 1).
    """
    return Scenario(
        initial_condition=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        dirichlet=dict.fromkeys((LEFT, RIGHT), 0.0),
        forcing=_manufactured_forcing,
        exact_solution=_manufactured_exact,
        defaults=dict(n_elements=100, degree=2, deconv_order=1, delta_coeff=0.1, dt=0.01),
    )


def _rarefaction_exact(x, t):
    x = np.asarray(x, dtype=float)
    if t <= 0.0:
        return np.where(x <= 0.0, 0.47, 0.0)
    fan = 0.5 - x / (2.0 * t)
    return np.where(x <= 0.06 * t, 0.47, np.where(x < t, fan, 0.0))


def rarefaction() -> Scenario:
    """Empty strand filling from the inflow: a rarefaction fan.

    rho(x, 0) = 0 and rho(0, t) = 0.47.  The fan spans characteristic
    speeds 1 - 2(0.47) = 0.06 up to 1, so the exact profile is 0.47
    behind x = 0.06 t, the fan 1/2 - x/(2t) inside, and 0 ahead of x = t.
    It runs at the RunConfig defaults (P1, h = 1/128, chi = 0, dt = 1e-4,
    T = 1).
    """
    return Scenario(
        initial_condition=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        dirichlet={LEFT: 0.47},
        forcing=None,
        exact_solution=_rarefaction_exact,
        defaults={},
    )


def _shock_exact(x, t):
    x = np.asarray(x, dtype=float)
    return np.where(x <= (5.0 / 12.0) * t, 0.25, 1.0 / 3.0)


def shock() -> Scenario:
    """Occupied strand with reduced inflow: a travelling shock.

    rho(x, 0) = 1/3 on (0, 1] with rho(0, t) = 1/4.  The flux jump gives
    shock speed (q(1/3) - q(1/4)) / (1/3 - 1/4) = 5/12.  The projection
    of the initial state uses rho_0 = 1/3 everywhere (a single point has
    zero measure); the inflow row takes over from the first step.  It
    runs at the RunConfig defaults but for the stabilization, chi = 1.
    """
    one_third = 1.0 / 3.0
    return Scenario(
        initial_condition=lambda x: np.full_like(np.asarray(x, dtype=float), one_third),
        dirichlet={LEFT: 0.25},
        forcing=None,
        exact_solution=_shock_exact,
        defaults=dict(chi=1.0),
    )


SCENARIOS: dict[str, Callable[[], Scenario]] = {
    "manufactured": manufactured,
    "rarefaction": rarefaction,
    "shock": shock,
}
