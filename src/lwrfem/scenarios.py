"""Experiment configurations: manufactured solution, rarefaction, shock.

Each scenario bundles initial data, boundary data at the constrained
ends, the forcing term (if any), the exact solution (when known), and
default numerical parameters.  All callables accept numpy arrays.

The model is the LWR density equation with Greenshield's closure,

    rho_t + (v_f - (2 v_f / rho_m) rho) rho_x = f,

whose flux is q(rho) = v_f rho (1 - rho / rho_m).  The rarefaction and
shock cases are Riemann-type problems on [0, 1] with inflow data at
x = 0; their characteristic speed v_f (1 - 2 rho / rho_m) stays positive
for every state used, so only the inflow end is constrained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import DIRICHLET

LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True)
class Scenario:
    """One experiment: data, constrained ends, and defaults."""

    name: str
    initial_condition: Callable
    boundary_data: Callable  # g(end, t) for end in {"left", "right"}
    left_constrained: bool
    right_constrained: bool
    forcing: Callable | None
    exact_solution: Callable | None
    # default settings, keyed by configuration key (the CLI's RunConfig
    # fields); delta follows the rule delta = delta_coeff * h**delta_exp
    defaults: dict

    def constrained_ends(self) -> tuple[str, ...]:
        ends = []
        if self.left_constrained:
            ends.append(LEFT)
        if self.right_constrained:
            ends.append(RIGHT)
        return tuple(ends)


def _manufactured_exact(x, t):
    return np.sin(np.pi * x) ** 4 * np.sin(t)


def _manufactured_forcing(x, t, v_f=1.0, rho_m=1.0):
    s = np.sin(np.pi * x)
    transport = v_f - (2.0 * v_f / rho_m) * s**4 * np.sin(t)
    return s**4 * np.cos(t) + 4.0 * np.pi * np.cos(np.pi * x) * s**3 * np.sin(t) * transport


def _manufactured_boundary(end: str, t: float) -> float:
    if end not in (LEFT, RIGHT):
        raise ValueError(f"unknown end {end!r}")
    return 0.0


def manufactured() -> Scenario:
    """Smooth forced problem with exact solution sin^4(pi x) sin(t).

    Both ends carry homogeneous Dirichlet data; the forcing is chosen so
    the exact solution satisfies the density equation with v_f = rho_m = 1.
    Defaults follow the time-accuracy study setup (P2, N = 1, h = 1/100,
    delta = 0.1 sqrt(h), T = 1).
    """
    return Scenario(
        name="manufactured",
        initial_condition=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        boundary_data=_manufactured_boundary,
        left_constrained=True,
        right_constrained=True,
        forcing=_manufactured_forcing,
        exact_solution=_manufactured_exact,
        defaults=dict(
            n_elements=100,
            degree=2,
            boundary_kind=DIRICHLET,
            v_f=1.0,
            rho_m=1.0,
            chi=0.0,
            deconv_order=1,
            gamma=0.0,
            algorithm=2,
            delta_coeff=0.1,
            delta_exp=0.5,
            dt=0.01,
            t_final=1.0,
        ),
    )


def _rarefaction_exact(x, t):
    x = np.asarray(x, dtype=float)
    if t <= 0.0:
        return np.where(x <= 0.0, 0.47, 0.0)
    fan = 0.5 - x / (2.0 * t)
    return np.where(x <= 0.06 * t, 0.47, np.where(x < t, fan, 0.0))


def _rarefaction_boundary(end: str, t: float) -> float:
    if end == LEFT:
        return 0.47
    raise ValueError(f"no boundary data at unconstrained end {end!r}")


def rarefaction() -> Scenario:
    """Empty strand filling from the inflow: a rarefaction fan.

    rho(x, 0) = 0 and rho(0, t) = 0.47.  The fan spans characteristic
    speeds 1 - 2(0.47) = 0.06 up to 1, so the exact profile is 0.47
    behind x = 0.06 t, the fan 1/2 - x/(2t) inside, and 0 ahead of x = t.
    """
    return Scenario(
        name="rarefaction",
        initial_condition=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        boundary_data=_rarefaction_boundary,
        left_constrained=True,
        right_constrained=False,
        forcing=None,
        exact_solution=_rarefaction_exact,
        defaults=dict(
            n_elements=128,
            degree=1,
            boundary_kind=DIRICHLET,
            v_f=1.0,
            rho_m=1.0,
            chi=0.0,
            deconv_order=0,
            gamma=0.0,
            algorithm=2,
            delta_coeff=1.0,
            delta_exp=0.5,
            dt=1e-4,
            t_final=1.0,
        ),
    )


def _shock_exact(x, t):
    x = np.asarray(x, dtype=float)
    return np.where(x <= (5.0 / 12.0) * t, 0.25, 1.0 / 3.0)


def _shock_boundary(end: str, t: float) -> float:
    if end == LEFT:
        return 0.25
    raise ValueError(f"no boundary data at unconstrained end {end!r}")


def shock() -> Scenario:
    """Occupied strand with reduced inflow: a travelling shock.

    rho(x, 0) = 1/3 on (0, 1] with rho(0, t) = 1/4.  The flux jump gives
    shock speed (q(1/3) - q(1/4)) / (1/3 - 1/4) = 5/12.  The projection
    of the initial state uses rho_0 = 1/3 everywhere (a single point has
    zero measure); the inflow row takes over from the first step.
    """
    one_third = 1.0 / 3.0
    return Scenario(
        name="shock",
        initial_condition=lambda x: np.full_like(np.asarray(x, dtype=float), one_third),
        boundary_data=_shock_boundary,
        left_constrained=True,
        right_constrained=False,
        forcing=None,
        exact_solution=_shock_exact,
        defaults=dict(
            n_elements=128,
            degree=1,
            boundary_kind=DIRICHLET,
            v_f=1.0,
            rho_m=1.0,
            chi=1.0,
            deconv_order=0,
            gamma=0.0,
            algorithm=2,
            delta_coeff=1.0,
            delta_exp=0.5,
            dt=1e-4,
            t_final=1.0,
        ),
    )


SCENARIOS: dict[str, Callable[[], Scenario]] = {
    "manufactured": manufactured,
    "rarefaction": rarefaction,
    "shock": shock,
}
