"""Command-line driver for runs, convergence ladders, and parameter studies.

Commands:

    run         single run; writes a profile snapshot and per-step diagnostics
    conv-space  halving ladder over the mesh width at fixed dt
    conv-time   halving ladder over the time step at fixed mesh
    study       sweep chi (and optionally deconvolution order / degree),
                writing density profiles at requested times

Configuration is line-oriented ``key = value`` text with ``#`` comments,
each key at most once per file; every key can also be given as a
``--key value`` flag, before or after the command, and flags override
file values which override the scenario's defaults, which override
RunConfig's.  All output files are CSV with one leading comment line
echoing the full effective configuration; floats are printed with 17
significant digits so repeated runs are bit-identical.

The runs of a command (a ladder's rungs, a study's members) run one
after the other; each builds its own mesh, and a study member writes its
profiles when it ends, so no run holds another's mesh or states.  Every
CSV is streamed into ``<name>.partial`` and renamed once complete: a
write that fails leaves neither file nor the directories made for it.
Backward Euler is the time-filtered scheme at gamma = 0, so ``--gamma 0``
selects it.  Each header echo holds ``algorithm=2`` after newton_max_iter
and ``jobs=1`` at its end, as fixed text: the values every run had when
both were keys, kept so that each header stays byte-identical for tools
that compare it whole.

Exit codes: 0 success, 1 if the run or any ladder rung or sweep member
failed (a step whose Newton iteration fails or meets a singular matrix,
or a filter matrix M + delta^2 S or a Newton band that cannot be
factored) or an output file cannot be written (one ``write failed:``
line; the command stops there, and ``run`` then removes its diagnostics
too, so that none stand without their profile), 2 on a ConfigError:
among them a newton_tol outside (0, 1), a ladder without an exact
solution (v_f or rho_m other than 1, or a scenario with nonzero inflow
data on a periodic mesh), and a command that plans too much.  Before
any mesh, grid or file exists, each command bounds the bytes its largest
run allocates (``_run_bytes``) and counts the implicit steps of all its
runs; above MAX_RUN_BYTES or MAX_STEPS it is refused.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .analysis import TableRow, convergence_table, run_error_inf
from .mesh import DIRICHLET, PERIODIC, Mesh1D, build_mesh, evaluate
from .scenarios import SCENARIOS, Scenario
from .stepping import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    ModelParams,
    NoConvergenceError,
    StepRecord,
    TimeGrid,
    newton_bytes,
    run_time_filtered,
)

# A command is refused before it allocates when one of its runs plans
# more bytes than MAX_RUN_BYTES, or when all its runs together
# plan more implicit steps than MAX_STEPS (at 0.25 ms a step, the shock's
# default mesh would take about 7 hours).
MAX_RUN_BYTES = 2**31
MAX_STEPS = 10**8


class ConfigError(ValueError):
    """A configuration the CLI rejects, exit 2."""


def _parse_boundary_kind(text: str) -> str:
    kind = text.strip().lower()
    if kind not in ("periodic", "dirichlet"):
        raise ValueError(f"expected 'periodic' or 'dirichlet', got {text!r}")
    return kind


def _parse_float(text) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_list(item: Callable, text) -> tuple:
    """Comma-separated values, each read by item."""
    return tuple(item(v) for v in str(text).split(",") if v.strip())


@dataclasses.dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Fully resolved configuration for one command invocation.

    The field order fixes the header echo and the flag registration.  The
    defaults are those the rarefaction and shock experiments share; each
    scenario's ``defaults`` holds the settings in which it departs.
    """

    scenario: str
    n_elements: int = 128
    degree: int = 1
    boundary_kind: str = DIRICHLET
    v_f: float = 1.0
    rho_m: float = 1.0
    chi: float = 0.0
    deconv_order: int = 0
    gamma: float = 0.0
    delta_coeff: float = 1.0
    delta_exp: float = 0.5
    dt: float = 1e-4
    t_final: float = 1.0
    newton_tol: float = NEWTON_TOL
    newton_max_iter: int = NEWTON_MAX_ITER
    output_dir: str = "out"
    space_min_elements: int = 6
    space_levels: int = 6
    dt_max: float = 0.1
    time_levels: int = 5
    chi_list: tuple[float, ...] = (0.0, 1.0)
    deconv_list: tuple[int, ...] = ()
    degree_list: tuple[int, ...] = ()
    study_times: tuple[float, ...] = (0.5, 1.0)

    def __post_init__(self) -> None:
        if self.delta_coeff < 0:
            raise ConfigError("delta_coeff must be nonnegative")
        if not 0.0 <= self.delta_exp <= 1.0:
            raise ConfigError("delta_exp must lie in [0, 1]")
        if min(self.n_elements, self.space_min_elements) < 2:
            raise ConfigError("a mesh needs at least 2 elements")
        if not {self.degree, *self.degree_list} <= {1, 2}:
            raise ConfigError("degree must be 1 or 2")
        if not (self.dt > 0 and self.dt_max > 0):
            raise ConfigError("dt and dt_max must be positive")
        if not self.newton_tol > 0:
            raise ConfigError("newton_tol must be positive")
        if not self.newton_tol < 1:  # a fraction of the stopping scale (newton_solve)
            raise ConfigError(f"newton_tol must be below 1, got {self.newton_tol:g}")
        if self.newton_max_iter < 0:
            raise ConfigError("newton_max_iter must be nonnegative")
        if min(self.time_levels, self.space_levels) < 1:
            raise ConfigError("time_levels and space_levels must be at least 1")
        if not self.chi_list:
            raise ConfigError("chi_list must name at least one chi")
        try:
            self.make_params(1.0)  # the model parameters' own domain checks
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def delta_for(self, h: float) -> float:
        return self.delta_coeff * h**self.delta_exp

    def get_scenario(self) -> Scenario:
        """The named scenario, without its exact solution where that does not hold.

        The exact solutions are those of v_f = rho_m = 1.  A periodic mesh
        drops the Dirichlet values, and with them any solution driven by a
        nonzero inflow value (rarefaction, shock); the manufactured one,
        1-periodic and zero at both ends, still holds.
        """
        scenario = SCENARIOS[self.scenario]()
        inflow = any(value != 0.0 for value in scenario.dirichlet.values())
        if self.v_f == self.rho_m == 1.0 and not (inflow and self.boundary_kind == PERIODIC):
            return scenario
        return dataclasses.replace(scenario, exact_solution=None)

    def make_mesh(self, n_elements: int | None = None) -> Mesh1D:
        n = self.n_elements if n_elements is None else n_elements
        return build_mesh(0.0, 1.0, n, self.degree, self.boundary_kind)

    def make_params(self, h: float) -> ModelParams:
        return ModelParams(
            v_f=self.v_f,
            rho_m=self.rho_m,
            chi=self.chi,
            delta=self.delta_for(h),
            deconv_order=self.deconv_order,
            gamma=self.gamma,
        )

    def header_line(self) -> str:
        """Every key as key=value, with the fixed echoes of the retired algorithm and jobs."""
        parts = []
        for key in KEY_PARSERS:
            value = getattr(self, key)
            if isinstance(value, tuple):
                value = ",".join(_fmt(v) for v in value)
            parts.append(f"{key}={_fmt(value)}")
            if key == "newton_max_iter":
                parts.append("algorithm=2")
        return "# " + " ".join(parts) + " jobs=1"


_TYPE_PARSERS = {
    "str": str,
    "int": int,
    "float": _parse_float,
    "tuple[int, ...]": partial(_parse_list, int),
    "tuple[float, ...]": partial(_parse_list, _parse_float),
}
# key -> converter, in RunConfig field order
KEY_PARSERS: dict[str, Callable] = {
    field.name: _TYPE_PARSERS[field.type] for field in dataclasses.fields(RunConfig)
} | {"boundary_kind": _parse_boundary_kind}


def _run_bytes(config: RunConfig, n_elements: int) -> int:
    """Upper bound on the bytes one run of config allocates on n_elements.

    In 8-byte words: the mesh maps with build_mesh's temporaries, 6 per
    element DOF pair (a margin now that a space ladder drops each rung's
    mesh before it builds the next); the operator bands, the linear
    part, the filter factor and the stabilization's Newton blocks with the
    temporaries of assembly and of a step, 12 per band entry; the
    quadrature values, 20 per element.  Then the Newton workspace as
    ``newton_bytes`` states it, and 1 MiB for what does not grow with the
    mesh.
    """
    degree, dirichlet = config.degree, config.boundary_kind == DIRICHLET
    n_dofs = degree * n_elements + dirichlet
    w = degree if dirichlet else 2 * degree  # the mesh's half band, at most
    params = config.make_params(1.0 / n_elements)
    stabilized = params.chi * params.delta**2 != 0.0  # as Stepper.build decides
    words = 6 * (degree + 1) ** 2 * n_elements + 12 * (2 * w + 1) * n_dofs + 20 * n_elements
    return (8 * words + newton_bytes(n_dofs, w, params.deconv_order if stabilized else None)
            + 2**20)


def _check_bytes(config: RunConfig, n_elements: int) -> None:
    """Refuse a run of config on n_elements that plans more than MAX_RUN_BYTES."""
    size = _run_bytes(config, n_elements)
    if size > MAX_RUN_BYTES:
        raise ConfigError(
            f"a run on {n_elements} P{config.degree} elements at N = {config.deconv_order}"
            f" plans {size / 2**30:.3g} GiB, above the limit of {MAX_RUN_BYTES / 2**30:g} GiB"
        )


def _check_steps(steps: int) -> None:
    if steps > MAX_STEPS:
        raise ConfigError(f"the command plans more implicit steps than the limit of {MAX_STEPS:g}")


def _time_grid(dt: float, t_final: float) -> TimeGrid:
    try:
        return TimeGrid.to_final_time(dt, t_final)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def read_config_file(path: str | Path) -> dict[str, tuple[str, int]]:
    """Read ``key = value`` lines; returns {key: (raw value, line number)}."""
    entries: dict[str, tuple[str, int]] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        raise ConfigError(f"cannot read config file {str(path)!r}: {reason}") from err
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(
                f"line {lineno}: key {key!r} repeats line {entries[key][1]}"
            )
        entries[key] = (value, lineno)
    return entries


def parse_config(
    path: str | Path | None = None, overrides: dict | None = None
) -> RunConfig:
    """Resolve a configuration: flags override file override scenario defaults."""
    file_entries = read_config_file(path) if path is not None else {}
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    for key in overrides:
        if key not in KEY_PARSERS:
            raise ConfigError(f"unknown key {key!r}")

    name = overrides.get("scenario")
    if name is None and "scenario" in file_entries:
        name = file_entries["scenario"][0]
    if name is None:
        raise ConfigError("no scenario named (key 'scenario')")
    name = str(name).strip()
    if name not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        )

    values = dict(SCENARIOS[name]().defaults)
    entries = [(key, raw, f"line {n}: ") for key, (raw, n) in file_entries.items()]
    entries += [(key, raw, "") for key, raw in overrides.items()]
    for key, raw, where in entries:
        if key == "scenario":
            continue
        try:
            values[key] = KEY_PARSERS[key](raw)
        except (TypeError, ValueError) as err:
            raise ConfigError(
                f"{where}key {key!r}: cannot parse {raw!r} ({err})"
            ) from err
    return RunConfig(scenario=name, **values)


def _solve(config: RunConfig, mesh: Mesh1D, grid: TimeGrid) -> Iterator[StepRecord]:
    return run_time_filtered(
        config.get_scenario(), config.make_params(mesh.h), grid, mesh,
        newton_tol=config.newton_tol, newton_max_iter=config.newton_max_iter,
    )


def _missing_dirs(directory: Path) -> list[Path]:
    """directory and those of its parents that do not exist, innermost first."""
    return [d for d in (directory, *directory.parents) if not d.exists()]


def _write_csv(
    path: Path, config: RunConfig, columns: str, items: Iterable, row: Callable[..., str]
):
    """Write the header echo, columns, and a row(item) line per item as it arrives.

    The lines go to ``<name>.partial``, renamed to path once complete.  On
    any failure the partial file and every directory made for it are
    removed and the error propagates.  Returns the last item.
    """
    made = _missing_dirs(path.parent)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(path.name + ".partial")
    item = None
    try:
        with temporary.open("w", encoding="utf-8") as out:
            out.write(f"{config.header_line()}\n{columns}\n")
            for item in items:
                out.write(row(item))
        temporary.replace(path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        for directory in made:
            directory.rmdir()
        raise
    return item


def _write_profile(
    path: Path, config: RunConfig, mesh: Mesh1D, c: np.ndarray, t: float, scenario: Scenario
) -> None:
    xs = np.linspace(mesh.x_left, mesh.x_right, 512)
    rho = evaluate(mesh, c, xs)
    exact = (
        scenario.exact_solution(xs, t)
        if scenario.exact_solution is not None
        else np.full_like(xs, np.nan)
    )
    _write_csv(path, config, "x,rho_h,rho_exact", zip(xs.tolist(), rho.tolist(), exact.tolist()),
               lambda values: "%.17g,%.17g,%.17g\n" % values)


def _write_diagnostics(
    path: Path, config: RunConfig, steps: Iterable[StepRecord]
) -> StepRecord:
    """Write a row per record as it arrives; returns the last record."""

    def row(record: StepRecord) -> str:
        d = record[1]
        return "%d,%.17g,%.17g,%.17g,%.17g,%d,%.17g\n" % (
            d.n, d.t, d.l2_norm, d.energy_e, d.zeta_z, d.newton_iters, d.stab_dissipation)

    return _write_csv(path, config, "n,t,l2_norm,energy_E,zeta_Z,newton_iters,stab_dissipation",
                      steps, row)


def cmd_run(config: RunConfig) -> tuple[list[Path], int]:
    """Single run: final-time profile plus per-step diagnostics."""
    grid = _time_grid(config.dt, config.t_final)
    _check_steps(grid.n_steps)
    _check_bytes(config, config.n_elements)
    out = Path(config.output_dir)
    profile, diagnostics = out / "profile.csv", out / "diagnostics.csv"

    def run(config: RunConfig) -> list[Path]:
        mesh = config.make_mesh()
        made = _missing_dirs(out)
        c, diag, _ = _write_diagnostics(diagnostics, config, _solve(config, mesh, grid))
        try:
            _write_profile(profile, config, mesh, c, diag.t, config.get_scenario())
        except BaseException:  # no diagnostics without their profile
            diagnostics.unlink()
            for directory in made:
                directory.rmdir()
            raise
        return [profile, diagnostics]

    [files] = _guarded_map(run, [config], "run failed")
    return files or [], int(files is None)


def _guarded_map(fn: Callable, items: Sequence, what: str) -> list:
    """fn(item) for each item, one after the other, in the items' order.

    A call that raises NoConvergenceError is reported on stderr as
    ``what: error`` and gives None; the remaining calls still run.
    """

    def guarded(item):
        try:
            return fn(item)
        except NoConvergenceError as err:
            print(f"{what}: {err}", file=sys.stderr)
            return None

    return [guarded(item) for item in items]


def _write_convergence(
    path: Path, config: RunConfig, results: list[tuple[float, float | None]]
) -> int:
    def line(row: TableRow) -> str:
        error = "failed" if row.error is None else _fmt(row.error)
        rate = "" if row.rate is None else _fmt(row.rate)
        return f"{row.label},{_fmt(row.resolution)},{error},{rate}\n"

    rows = convergence_table(results)
    _write_csv(path, config, "resolution,h_or_dt,error_linf_l2,rate", rows, line)
    return sum(row.error is None for row in rows)


def _ladder(
    config: RunConfig, name: str, rungs: list[tuple[float, int, TimeGrid]]
) -> tuple[list[Path], int]:
    """Run (resolution, n_elements, grid) rungs and write their errors, with rates.

    The errors are measured against the scenario's exact solution; a
    ladder without one is a ConfigError, found before any mesh exists.
    Each rung builds its own mesh, so a space ladder's finer meshes exist
    only once the coarser rungs have run and dropped theirs.
    """
    exact = config.get_scenario().exact_solution
    if exact is None:
        raise ConfigError(
            f"{config.scenario!r} has an exact solution only at v_f = rho_m = 1"
            " and, if its Dirichlet data is nonzero, on a Dirichlet mesh"
        )

    def error(rung: tuple[float, int, TimeGrid]) -> float:
        _, n_elements, grid = rung
        mesh = config.make_mesh(n_elements)
        return run_error_inf(mesh, _solve(config, mesh, grid), exact)

    errors = _guarded_map(error, rungs, "rung failed")
    path = Path(config.output_dir) / name
    results = [(resolution, e) for (resolution, _, _), e in zip(rungs, errors)]
    return [path], _write_convergence(path, config, results)


def cmd_convergence_space(config: RunConfig) -> tuple[list[Path], int]:
    """Halving ladder over the mesh width; writes a convergence CSV."""
    grid = _time_grid(config.dt, config.t_final)
    _check_steps(config.space_levels * grid.n_steps)
    sizes = []
    for k in range(config.space_levels):  # ends at the first rung over the limit
        sizes.append(config.space_min_elements * 2**k)
        _check_bytes(config, sizes[-1])
    return _ladder(config, "convergence_space.csv", [(1.0 / n, n, grid) for n in sizes])


def cmd_convergence_time(config: RunConfig) -> tuple[list[Path], int]:
    """Halving ladder over the time step; writes a convergence CSV."""
    grids, steps = [], 0
    for k in range(config.time_levels):  # ends at the step limit or where 1 / dt overflows
        grids.append(_time_grid(math.ldexp(config.dt_max, -k), config.t_final))
        steps += grids[-1].n_steps
        _check_steps(steps)
    _check_bytes(config, config.n_elements)
    rungs = [(grid.dt, config.n_elements, grid) for grid in grids]
    return _ladder(config, "convergence_time.csv", rungs)


def _profile_name(member: RunConfig, t: float) -> str:
    return f"profile_chi{member.chi:g}_N{member.deconv_order}_P{member.degree}_t{t:g}.csv"


def cmd_scenario_study(config: RunConfig) -> tuple[list[Path], int]:
    """Sweep chi (and optionally deconvolution order, degree); write profiles."""
    scenario = config.get_scenario()
    times = sorted(set(config.study_times))
    if not times:
        raise ConfigError("study_times must name at least one time")
    if times[0] < 0:
        raise ConfigError("study_times must be nonnegative")
    indices = [_time_grid(config.dt, t).n_steps for t in times]
    grid = _time_grid(config.dt, times[-1])
    members = [
        dataclasses.replace(config, chi=chi, deconv_order=n_dec, degree=deg)
        for deg in config.degree_list or (config.degree,)
        for n_dec in config.deconv_list or (config.deconv_order,)
        for chi in config.chi_list
    ]
    # %g keeps 6 digits, so profiles whose values differ only further on, or
    # repeat, would share a file: every name is checked before any run, at
    # the level's time i dt as the run forms it
    labels: dict[str, str] = {}  # file name -> the profile's values
    for member in members:
        for t, i in zip(times, indices):
            name = _profile_name(member, i * config.dt)
            label = f"chi={member.chi!r} N={member.deconv_order} P={member.degree} t={t!r}"
            if name in labels:
                raise ConfigError(f"study profiles {labels[name]} and {label} both write {name}")
            labels[name] = label
    _check_steps(len(members) * grid.n_steps)
    for member in members:
        _check_bytes(member, member.n_elements)

    out = Path(config.output_dir)

    def profiles(member: RunConfig) -> list[Path]:
        """Run member to the last time, then write its profiles; a failed run writes none."""
        mesh = member.make_mesh()
        kept = {d.n: (c, d) for c, d, _ in _solve(member, mesh, grid) if d.n in indices}
        paths = []
        for c, diag in (kept[i] for i in indices):
            paths.append(out / _profile_name(member, diag.t))
            _write_profile(paths[-1], member, mesh, c, diag.t, scenario)
        return paths

    outputs = _guarded_map(profiles, members, "study member failed")
    return [path for paths in outputs if paths for path in paths], outputs.count(None)


COMMANDS = {
    "run": cmd_run,
    "conv-space": cmd_convergence_space,
    "conv-time": cmd_convergence_time,
    "study": cmd_scenario_study,
}


def _build_parser() -> argparse.ArgumentParser:
    """One parser: the command as a positional choice, each key once, flags in any order."""
    parser = argparse.ArgumentParser(
        prog="lwrfem",
        description="Stabilized FEM solver for the LWR density model",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="path to a key = value file")
    for key in KEY_PARSERS:
        parser.add_argument(f"--{key}", default=None, metavar="VALUE")
    return parser


def _check_output_dir(path: Path) -> None:
    """Reject an output directory that is, or lies under, an existing non-directory."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output_dir {str(path)!r}: {str(existing)!r} is not a directory")


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in KEY_PARSERS}
    try:
        config = parse_config(args.config, overrides)
        _check_output_dir(Path(config.output_dir))
        files, failures = COMMANDS[args.command](config)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # an output that cannot be written ends the command
        print(f"write failed: {err}", file=sys.stderr)
        return 1
    for path in files:
        print(path)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
