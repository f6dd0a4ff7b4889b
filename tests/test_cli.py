import contextlib
import errno
import io
import itertools
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lwrfem import cli
from lwrfem.cli import (
    ConfigError,
    _write_convergence,
    cmd_convergence_space,
    cmd_convergence_time,
    cmd_run,
    cmd_scenario_study,
    main,
    parse_config,
)
from lwrfem.analysis import run_error_inf
from lwrfem.linalg import band_matvec
from lwrfem.stepping import MAX_DECONV_ORDER, Stepper, be_step, newton_bytes, run_time_filtered


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")  # config echo
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


TIME_RATES = str(Path(__file__).resolve().parents[1] / "configs" / "time_rates.cfg")


class TestParseConfig:
    def test_shock_defaults(self):
        cfg = parse_config(None, {"scenario": "shock"})
        assert cfg.n_elements == 128
        assert cfg.dt == pytest.approx(1e-4)
        assert cfg.delta_coeff == 1.0 and cfg.delta_exp == 0.5
        assert cfg.degree == 1
        assert cfg.delta_for(1.0 / 128.0) == pytest.approx(np.sqrt(1.0 / 128.0))

    def test_rarefaction_defaults(self):
        cfg = parse_config(None, {"scenario": "rarefaction"})
        assert cfg.n_elements == 128
        assert cfg.dt == pytest.approx(1e-4)
        assert cfg.delta_coeff == 1.0 and cfg.delta_exp == 0.5
        assert cfg.gamma == 0.0

    def test_flag_overrides_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("scenario = shock\nchi = 0\n# comment\nn_elements = 64\n")
        cfg = parse_config(config, {"chi": "1"})
        assert cfg.chi == 1.0  # flag wins
        assert cfg.n_elements == 64  # file wins over default

    def test_unknown_key_named(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("scenario = shock\ndleta_coeff = 0.1\n")
        with pytest.raises(ConfigError, match="line 2: unknown key 'dleta_coeff'"):
            parse_config(config, {})

    def test_repeated_key_names_both_lines(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("scenario = shock\nchi = 0\n# comment\nchi = 1\n")
        with pytest.raises(ConfigError, match="line 4: key 'chi' repeats line 2"):
            parse_config(config, {})

    def test_type_error_names_key_and_line(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("scenario = shock\n\nchi = banana\n")
        with pytest.raises(ConfigError, match="line 3.*chi"):
            parse_config(config, {})

    def test_missing_scenario(self):
        with pytest.raises(ConfigError, match=r"no scenario named \(key 'scenario'\)"):
            parse_config(None, {})
        with pytest.raises(ConfigError, match="unknown scenario 'tsunami'; choose from"):
            parse_config(None, {"scenario": "tsunami"})

    def test_header_echo_order(self):
        # the echo is compared byte for byte by downstream tools, and pins
        # every scenario's effective defaults
        settings = {
            "shock": "n_elements=128 degree=1 boundary_kind=dirichlet v_f=1 rho_m=1"
                     " chi=1 deconv_order=0 gamma=0 delta_coeff=1 delta_exp=0.5 dt=0.0001",
            "rarefaction": "n_elements=128 degree=1 boundary_kind=dirichlet v_f=1"
                           " rho_m=1 chi=0 deconv_order=0 gamma=0 delta_coeff=1"
                           " delta_exp=0.5 dt=0.0001",
            "manufactured": "n_elements=100 degree=2 boundary_kind=dirichlet v_f=1"
                            " rho_m=1 chi=0 deconv_order=1 gamma=0"
                            " delta_coeff=0.10000000000000001 delta_exp=0.5 dt=0.01",
        }
        for scenario, values in settings.items():
            assert parse_config(None, {"scenario": scenario}).header_line() == (
                f"# scenario={scenario} {values}"
                " t_final=1 newton_tol=1e-10 newton_max_iter=25 algorithm=2"
                " output_dir=out space_min_elements=6 space_levels=6"
                " dt_max=0.10000000000000001 time_levels=5 chi_list=0,1 deconv_list="
                " degree_list= study_times=0.5,1 jobs=1"
            )

    def test_validation_of_derived_fields(self):
        with pytest.raises(ConfigError, match=r"delta_exp must lie in \[0, 1\]"):
            parse_config(None, {"scenario": "shock", "delta_exp": "1.5"})


class TestCommands:
    def test_run_zero_steps_outputs_projection(self, tmp_path):
        cfg = parse_config(
            None,
            {
                "scenario": "manufactured",
                "t_final": "0",
                "dt": "0.01",
                "output_dir": str(tmp_path),
            },
        )
        files, failures = cmd_run(cfg)
        assert failures == 0
        header, rows = read_rows(files[0])
        assert header == ["x", "rho_h", "rho_exact"]
        assert len(rows) == 512
        assert max(abs(float(r[1])) for r in rows) < 1e-12

    def test_run_is_reproducible(self, tmp_path):
        cfg = parse_config(
            None,
            {
                "scenario": "manufactured",
                "t_final": "0.05",
                "dt": "0.01",
                "n_elements": "20",
                "output_dir": str(tmp_path / "out"),
            },
        )
        blobs = []
        for _ in range(2):
            files, _ = cmd_run(cfg)
            blobs.append(tuple(path.read_bytes() for path in files))
        assert blobs[0] == blobs[1]

    def test_diagnostics_schema(self, tmp_path):
        cfg = parse_config(
            None,
            {
                "scenario": "manufactured",
                "t_final": "0.03",
                "dt": "0.01",
                "n_elements": "16",
                "output_dir": str(tmp_path),
            },
        )
        files, _ = cmd_run(cfg)
        header, rows = read_rows(files[1])
        assert header == [
            "n", "t", "l2_norm", "energy_E", "zeta_Z", "newton_iters", "stab_dissipation",
        ]
        assert len(rows) == 4  # steps 0..3

    def test_convergence_time_table(self, tmp_path):
        cfg = parse_config(
            None,
            {
                "scenario": "manufactured",
                "gamma": str(2.0 / 3.0),
                "time_levels": "3",
                "dt_max": "0.1",
                "output_dir": str(tmp_path),
            },
        )
        files, failures = cmd_convergence_time(cfg)
        assert failures == 0
        header, rows = read_rows(files[0])
        assert header == ["resolution", "h_or_dt", "error_linf_l2", "rate"]
        assert rows[0][0] == "1/10" and rows[0][3] == ""
        rates = [float(r[3]) for r in rows[1:]]
        assert all(1.8 <= rate <= 2.05 for rate in rates)

    def test_convergence_space_table(self, tmp_path):
        cfg = parse_config(
            None,
            {
                "scenario": "manufactured",
                "space_min_elements": "6",
                "space_levels": "2",
                "t_final": "0.01",
                "dt": "0.00025",
                "output_dir": str(tmp_path),
            },
        )
        files, failures = cmd_convergence_space(cfg)
        assert failures == 0
        header, rows = read_rows(files[0])
        assert header == ["resolution", "h_or_dt", "error_linf_l2", "rate"]
        assert [r[0] for r in rows] == ["1/6", "1/12"]
        assert float(rows[1][3]) > 1.8  # at least second order for P2

    def test_failed_rungs_marked_and_skipped(self, tmp_path):
        cfg = parse_config(None, {"scenario": "shock", "output_dir": str(tmp_path)})
        results = [(1.0 / 6.0, 1e-2), (1.0 / 12.0, None), (1.0 / 24.0, 1e-3)]
        failures = _write_convergence(tmp_path / "table.csv", cfg, results)
        assert failures == 1
        _, rows = read_rows(tmp_path / "table.csv")
        assert rows[1][2] == "failed" and rows[1][3] == ""
        assert rows[2][3] == ""  # no rate across the gap

    def test_rung_failure_exit_code(self, tmp_path, capsys):
        cases = [
            # a single Newton iteration cannot meet the tolerance at dt = 0.1
            ["--time_levels", "1", "--newton_max_iter", "1", "--n_elements", "20"],
            # the periodic P1 Newton matrix M/dt + C is singular at dt = 1e20
            ["--boundary_kind", "periodic", "--degree", "1", "--chi", "0",
             "--dt_max", "1e20", "--t_final", "1e20", "--time_levels", "2"],
        ]
        for k, flags in enumerate(cases):
            out = tmp_path / str(k)
            code = main(
                ["conv-time", "--scenario", "manufactured", *flags, "--output_dir", str(out)]
            )
            assert code == 1
            _, rows = read_rows(out / "convergence_time.csv")
            assert [row[2] for row in rows] == ["failed"] * len(rows)
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == len(rows)  # one line per failed rung, no traceback
            assert all(line.startswith("rung failed: step 1 to t = ") for line in lines)

    def test_study_writes_profiles_and_damps_variation(self, tmp_path):
        cfg = parse_config(
            None,
            {
                "scenario": "shock",
                "chi_list": "0,1",
                "study_times": "0.1",
                "t_final": "0.1",
                "dt": "0.001",
                "n_elements": "64",
                "output_dir": str(tmp_path),
            },
        )
        files, failures = cmd_scenario_study(cfg)
        assert failures == 0
        assert len(files) == 2
        variations = {}
        for path in files:
            _, rows = read_rows(path)
            values = np.array([float(r[1]) for r in rows])
            chi = 0.0 if "chi0_" in path.name else 1.0
            variations[chi] = np.abs(np.diff(values)).sum()
        assert variations[1.0] < variations[0.0]


class FullDisk(type(Path())):
    """A path whose file holds `room` characters; a write past them fails as on a full disk."""

    room = 0

    def open(self, *args, **kwargs):
        file = super().open(*args, **kwargs)
        write, left = file.write, [self.room]

        def limited(text):
            left[0] -= len(text)
            if left[0] < 0:
                raise OSError(errno.ENOSPC, "No space left on device")
            return write(text)

        file.write = limited
        return file


class TestOutputs:
    """Each CSV goes through a temporary file, and each run writes its outputs when it ends."""

    def test_writer_streams_rows_and_a_failure_leaves_nothing(self, tmp_path):
        cfg = parse_config(None, {"scenario": "shock"})
        path = tmp_path / "new" / "table.csv"

        def row(item):
            if item == 2:
                raise ValueError("no row for 2")
            return f"{item}\n"

        with pytest.raises(ValueError, match="no row for 2"):
            cli._write_csv(path, cfg, "k", [1, 2, 3], row)
        assert not list(tmp_path.iterdir())
        assert cli._write_csv(path, cfg, "k", iter([1, 3]), row) == 3  # the last item
        assert path.read_text() == f"{cfg.header_line()}\nk\n1\n3\n"
        assert list(path.parent.iterdir()) == [path]
        # the rename fails onto a directory, and the partial file goes too
        taken = path.with_name("taken.csv")
        taken.mkdir()
        with pytest.raises(IsADirectoryError):
            cli._write_csv(taken, cfg, "k", [1], row)
        assert sorted(path.parent.iterdir()) == [path, taken]

    @pytest.mark.parametrize("writer", ["profile", "convergence"])
    def test_a_write_that_fails_mid_file_leaves_nothing(self, writer, tmp_path, monkeypatch):
        cfg = parse_config(None, {"scenario": "manufactured"})
        mesh = cfg.make_mesh(8)
        write = {
            "profile": lambda path: cli._write_profile(
                path, cfg, mesh, np.zeros(mesh.n_dofs), 0.0, cfg.get_scenario()),
            "convergence": lambda path: _write_convergence(
                path, cfg, [(0.1, 1e-2), (0.05, None), (0.025, 1e-3)]),
        }[writer]
        write(tmp_path / "whole.csv")
        # room for the header echo, the column names and one row: the second row fails
        header, columns, first = (tmp_path / "whole.csv").read_text().splitlines(True)[:3]
        monkeypatch.setattr(FullDisk, "room", len(header + columns + first))
        with pytest.raises(OSError, match="No space left on device"):
            write(FullDisk(tmp_path / "new" / "dir" / "table.csv"))
        assert [path.name for path in tmp_path.iterdir()] == ["whole.csv"]

    def test_space_ladder_builds_each_mesh_after_the_coarser_rung_ran(self, tmp_path,
                                                                       monkeypatch):
        calls = []
        build_mesh, run_time_filtered = cli.build_mesh, cli.run_time_filtered

        def mesh(x_left, x_right, n_elements, *args):
            calls.append(("mesh", n_elements))
            return build_mesh(x_left, x_right, n_elements, *args)

        def run(*args, **kwargs):
            n_elements = args[3].n_elements
            calls.append(("run", n_elements))
            yield from run_time_filtered(*args, **kwargs)
            calls.append(("ran", n_elements))

        monkeypatch.setattr(cli, "build_mesh", mesh)
        monkeypatch.setattr(cli, "run_time_filtered", run)
        assert main(["conv-space", "--scenario", "manufactured", "--space_min_elements", "4",
                     "--space_levels", "3", "--dt", "0.01", "--t_final", "0.02",
                     "--output_dir", str(tmp_path)]) == 0
        assert calls == [(event, n) for n in (4, 8, 16) for event in ("mesh", "run", "ran")]

    def test_study_writes_each_members_profiles_when_it_ends(self, tmp_path, monkeypatch):
        # the member at chi = 1e300 fails its set-up (its Newton band overflows)
        # and writes nothing; the others have written theirs before the next run
        seen = []
        run_time_filtered = cli.run_time_filtered

        def run(*args, **kwargs):
            seen.append(sorted(path.name for path in tmp_path.glob("*.csv")))
            return run_time_filtered(*args, **kwargs)

        monkeypatch.setattr(cli, "run_time_filtered", run)
        assert main(["study", "--scenario", "shock", "--chi_list", "1,1e300,0",
                     "--delta_coeff", "1e4", "--study_times", "0.001,0.002",
                     "--output_dir", str(tmp_path)]) == 1
        chi1 = ["profile_chi1_N0_P1_t0.001.csv", "profile_chi1_N0_P1_t0.002.csv"]
        chi0 = ["profile_chi0_N0_P1_t0.001.csv", "profile_chi0_N0_P1_t0.002.csv"]
        assert seen == [[], chi1, chi1]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(chi0 + chi1)


class TestMain:
    def test_config_error_exit_code(self, capsys):
        assert main(["run", "--scenario", "nonexistent"]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--chi", "nan"],
            ["run", "--v_f", "inf"],
            ["study", "--chi_list", "0,nan"],
            ["run", "--n_elements", "1"],
            ["conv-space", "--space_min_elements", "1"],
            ["run", "--degree", "3"],
            ["study", "--degree_list", "1,3"],
            ["run", "--dt", "0"],
            ["run", "--gamma", "1"],
            ["run", "--chi", "-1"],
            ["run", "--newton_tol", "0"],
            ["conv-time", "--dt_max", "-0.1"],
            ["run", "--t_final", "0.00015", "--dt", "1e-4"],
            ["study", "--study_times", "0.00015", "--dt", "1e-4"],
            ["conv-time", "--time_levels", "0", "--scenario", "manufactured"],
            ["conv-space", "--space_levels", "-1", "--scenario", "manufactured"],
            ["study", "--chi_list", ""],
            ["run", "--newton_max_iter", "-1", "--t_final", "0.001"],
            ["run", "--delta_coeff", "1e200", "--t_final", "0.001"],
            ["conv-space", "--scenario", "manufactured", "--dt", "0.01", "--t_final",
             "0.02", "--space_levels", "2", "--delta_coeff", "1e200"],
            ["run", "--newton_tol", "1"],  # the stopping test would accept any guess
            # no exact solution: the periodic mesh drops the inflow that drives it
            ["conv-space", "--scenario", "rarefaction", "--boundary_kind", "periodic"],
        ],
    )
    def test_domain_errors_exit_2(self, tmp_path, capsys, argv):
        # the scenario defaults to shock; a later --scenario in argv wins
        command, *flags = argv
        code = main(
            [command, "--scenario", "shock", *flags, "--output_dir", str(tmp_path)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())  # nothing ran

    @pytest.mark.parametrize("argv", [
        ["run", "--deconv_order", str(MAX_DECONV_ORDER + 1)],
        ["study", "--deconv_list", f"0,{MAX_DECONV_ORDER + 1}"],
    ])
    def test_deconvolution_order_above_its_maximum_exits_2(self, tmp_path, capsys,
                                                            monkeypatch, argv):
        # the Newton matrix grows like (2N + 3)^2: refused before any run starts
        def refuse(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run_time_filtered", refuse)
        command, *flags = argv
        code = main([command, "--scenario", "shock", "--t_final", "0.001", *flags,
                     "--output_dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "configuration error: deconvolution order must be at most "
            f"{MAX_DECONV_ORDER}, got {MAX_DECONV_ORDER + 1}\n"
        )
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,message", [
        (["run", "--t_final", "0.0001", "--dt", "1e-320"], "t_final / dt overflows"),
        (["conv-time", "--scenario", "manufactured", "--dt_max", "1e-320"],
         "t_final / dt overflows"),
        (["study", "--study_times", "1e305"], "t_final / dt overflows"),
        (["run", "--v_f", "1e308"], "2 v_f / rho_m overflows"),
        (["run", "--rho_m", "1e-310"], "2 v_f / rho_m overflows"),
        (["run", "--dt", "1e-315", "--t_final", "3.999999994e-315"], "1 / dt overflows"),
        (["study", "--dt", "1e-315", "--study_times", "3.999999994e-315"], "1 / dt overflows"),
        # the weight chi delta^2 at h = 1, where delta is largest
        (["run", "--chi", "1e300", "--delta_coeff", "1e5", "--t_final", "0.001"],
         "chi delta^2 overflows for chi = 1e+300, delta = 100000"),
    ])
    @pytest.mark.filterwarnings("error")  # a NumPy warning would be a second line
    def test_overflowing_ratios_exit_2(self, tmp_path, capsys, monkeypatch, argv, message):
        # a step count, a 1 / dt, a nonlinear coefficient or a stabilization weight
        # beyond the floats is a configuration error, refused before any run starts
        def refuse(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run_time_filtered", refuse)
        command, *flags = argv
        code = main([command, "--scenario", "shock", *flags, "--output_dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"configuration error: {message}") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags,message", [
        (["--chi_list", "0.1,0.1000001", "--study_times", "0.001"],
         "chi=0.1 N=0 P=1 t=0.001 and chi=0.1000001 N=0 P=1 t=0.001 both write "
         "profile_chi0.1_N0_P1_t0.001.csv"),
        (["--chi_list", "0", "--dt", "1e-7", "--study_times", "0.1,0.1000001"],
         "chi=0.0 N=0 P=1 t=0.1 and chi=0.0 N=0 P=1 t=0.1000001 both write "
         "profile_chi0_N0_P1_t0.1.csv"),
        (["--chi_list", "1", "--deconv_list", "1,1", "--study_times", "0.001"],
         "chi=1.0 N=1 P=1 t=0.001 and chi=1.0 N=1 P=1 t=0.001 both write "
         "profile_chi1_N1_P1_t0.001.csv"),
    ], ids=["chi", "study_times", "repeated_deconv"])
    def test_study_profile_name_collision_exits_2(self, tmp_path, capsys, monkeypatch,
                                                  flags, message):
        # %g keeps 6 significant digits: two profiles with one file name would
        # leave one file, so the study refuses them before any run starts
        def refuse(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run_time_filtered", refuse)
        code = main(["study", "--scenario", "shock", *flags, "--output_dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"configuration error: study profiles {message}\n"
        assert not list(tmp_path.iterdir())

    def test_unreadable_config_file_exits_2(self, tmp_path, capsys):
        undecodable = tmp_path / "latin1.cfg"
        undecodable.write_bytes(b"scenario = shock\n# caf\xe9\n")
        for path, reason in ((tmp_path / "missing.cfg", "No such file or directory"),
                             (undecodable, "can't decode byte 0xe9")):
            out = tmp_path / "out"
            code = main(["run", "--config", str(path), "--output_dir", str(out)])
            err = capsys.readouterr().err
            assert code == 2 and err.count("\n") == 1
            assert err.startswith(f"configuration error: cannot read config file '{path}': ")
            assert reason in err
            assert not out.exists()

    def test_output_dir_at_or_under_a_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "F"
        blocker.write_text("not a directory\n")
        cases = [
            ["run", "--scenario", "shock", "--t_final", "0.001", "--output_dir", "F"],
            ["run", "--scenario", "shock", "--t_final", "0.001", "--output_dir", "F/sub"],
            ["conv-time", "--config", TIME_RATES, "--time_levels", "2", "--output_dir", "F"],
        ]
        for argv in cases:
            argv[-1] = str(tmp_path / argv[-1])
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err == (
                f"configuration error: output_dir '{argv[-1]}': '{blocker}' is not a directory\n"
            )
            assert list(tmp_path.iterdir()) == [blocker]
            assert blocker.read_text() == "not a directory\n"

    @pytest.mark.filterwarnings("error")  # a NumPy warning would be a second line
    def test_failed_run_exits_1_with_one_line(self, tmp_path, capsys):
        # no convergence, a residual whose norm overflows, and a singular
        # Newton matrix (periodic P1 M/dt + C at dt = 1e20); the second
        # run's output directory does not exist yet
        singular = ["--scenario", "manufactured", "--boundary_kind", "periodic",
                    "--degree", "1", "--chi", "0", "--dt", "1e20", "--t_final", "1e20"]
        for flags, out, t in ((["--newton_max_iter", "0"], tmp_path, "0.0001"),
                              (["--v_f", "1e300"], tmp_path / "new", "0.0001"),
                              (singular, tmp_path, "1e+20")):
            code = main(
                [
                    "run",
                    "--scenario", "shock",
                    "--t_final", "0.001",
                    *flags,
                    "--output_dir", str(out),
                ]
            )
            captured = capsys.readouterr()
            assert code == 1
            assert captured.err.startswith(f"run failed: step 1 to t = {t} failed: ")
            assert captured.err.count("\n") == 1
            assert captured.out == "" and not list(tmp_path.iterdir())

    def test_an_output_that_cannot_be_written_exits_1_with_one_line(self, tmp_path, capsys,
                                                                    monkeypatch):
        # the profile's path is a directory: run leaves no diagnostics behind
        out = tmp_path / "od"
        (out / "profile.csv").mkdir(parents=True)
        run = ["run", "--scenario", "shock", "--t_final", "0.001", "--output_dir"]
        assert main([*run, str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("write failed: [Errno 21] Is a directory: ")
        assert list(out.iterdir()) == [out / "profile.csv"]
        # a profile that fails on a full disk takes the directories the run made too
        def full(path, *args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "_write_profile", full)
        assert main([*run, str(tmp_path / "new" / "dir")]) == 1
        assert capsys.readouterr().err == "write failed: [Errno 28] No space left on device\n"
        assert list(tmp_path.iterdir()) == [out]
        # a ladder whose table cannot be written
        (out / "convergence_time.csv").mkdir()
        assert main(["conv-time", "--scenario", "manufactured", "--t_final", "0.2",
                     "--time_levels", "2", "--output_dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("write failed: [Errno 21] Is a directory: ")

    @pytest.mark.filterwarnings("error")
    def test_unfactorable_filter_matrix_fails_the_run(self, tmp_path, capsys):
        # at delta = 1e6, delta^2 S swamps M and the Cholesky factorization
        # of M + delta^2 S fails in the set-up: a failed run, not a traceback
        failed = "set-up failed: filter matrix M + delta^2 S is not positive definite at delta"
        argv = ["run", "--scenario", "shock", "--delta_exp", "0", "--delta_coeff", "1e6",
                "--t_final", "0.001", "--output_dir", str(tmp_path / "run")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"run failed: {failed} = 1e+06 (")
        assert captured.err.count("\n") == 1
        assert captured.out == "" and not list(tmp_path.iterdir())
        # the ladder marks the rung failed and still writes its table
        out = tmp_path / "ladder"
        argv = ["conv-time", "--scenario", "manufactured", "--chi", "1", "--delta_coeff", "1e6",
                "--delta_exp", "0", "--time_levels", "1", "--output_dir", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"rung failed: {failed} = 1e+06 (")
        assert captured.err.count("\n") == 1
        assert captured.out == f"{out / 'convergence_time.csv'}\n"
        _, rows = read_rows(out / "convergence_time.csv")
        assert rows == [["1/10", "0.10000000000000001", "failed", ""]]

    @pytest.mark.filterwarnings("error")
    def test_filter_factor_without_precision_fails_the_set_up(self, tmp_path, capsys):
        # at delta = 1e9 pbtrf accepts the factor of M + delta^2 S, whose
        # smallest pivot carries no precision: the set-up fails naming delta,
        # where the Newton matrix of step 1 was blamed before
        argv = ["run", "--scenario", "shock", "--delta_exp", "0", "--t_final", "0.001"]
        assert main([*argv, "--delta_coeff", "1e9", "--output_dir", str(tmp_path / "a")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("run failed: set-up failed: filter matrix M + delta^2 S "
                                       "is singular at delta = 1e+09 (pivot ")
        assert captured.err.count("\n") == 1
        assert captured.out == "" and not list(tmp_path.iterdir())
        assert main([*argv, "--delta_coeff", "1e4", "--output_dir", str(tmp_path / "b")]) == 0

    @pytest.mark.filterwarnings("error")
    def test_a_tiny_step_is_not_called_singular(self, tmp_path, capsys):
        # at dt = 1e-16 the rho columns of the Newton band hold M/dt, about
        # 5e13, and the filter unknowns' columns entries of order 1: their
        # pivots fall below 1e-14 of the largest entry, but not below 1e-14
        # of their own columns' largest, and the run goes through
        argv = ["run", "--scenario", "shock", "--dt", "1e-16", "--t_final", "1e-15",
                "--output_dir", str(tmp_path)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        _, rows = read_rows(tmp_path / "diagnostics.csv")
        assert len(rows) == 11 and all(np.isfinite(float(value)) for value in rows[-1])

    @pytest.mark.filterwarnings("error")  # a NumPy warning would be a second line
    def test_overflowing_newton_band_fails_the_set_up(self, tmp_path, capsys):
        # chi delta^2 = 7.8e305 is finite, but the Newton band chi delta^2 S is not
        argv = ["run", "--scenario", "shock", "--chi", "1e300", "--delta_coeff", "1e4",
                "--t_final", "0.001", "--output_dir", str(tmp_path / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ("run failed: set-up failed: the Newton matrix's band chi delta^2 S"
                                " overflows at chi delta^2 = 7.813e+305\n")
        assert "Traceback" not in captured.err and "Warning" not in captured.err
        assert captured.out == "" and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("scenario", ["manufactured", "rarefaction", "shock"])
    def test_zero_newton_iterations_fail_step_1(self, scenario, tmp_path, capsys):
        # step 1 starts Newton at the initial state, which solves no step
        argv = ["run", "--scenario", scenario, "--newton_max_iter", "0", "--dt", "0.01",
                "--t_final", "0.05", "--output_dir", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("run failed: step 1 to t = 0.01 failed: no convergence after 0 ")
        assert err.count("\n") == 1 and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("dt", ["1e-07", "1e-09"])
    def test_tiny_time_steps_converge(self, dt, tmp_path):
        # the residual carries M/dt, whose rounding grows like 1/dt: about
        # 2e-11 at dt = 1e-7, near newton_tol times the data's size (3e-11),
        # and 2e-9 at dt = 1e-9, far above it; each step still converges
        argv = ["run", "--scenario", "shock", "--dt", dt, "--t_final", f"{20 * float(dt):g}",
                "--output_dir", str(tmp_path)]
        assert main(argv) == 0
        _, rows = read_rows(tmp_path / "diagnostics.csv")
        assert len(rows) == 21 and all(1 <= int(row[5]) <= 3 for row in rows[1:])

    def test_exact_solution_only_at_unit_v_f_and_rho_m(self, tmp_path, capsys):
        # every exact solution, and the manufactured forcing, assume v_f = rho_m = 1
        argv = ["conv-time", "--config", TIME_RATES, "--time_levels", "3", "--rho_m", "2",
                "--output_dir", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "configuration error: 'manufactured' has an exact solution only at"
            " v_f = rho_m = 1 and, if its Dirichlet data is nonzero, on a Dirichlet mesh\n"
        )
        assert not list(tmp_path.iterdir())  # nothing ran
        # the shock is driven by its inflow data, which a periodic mesh drops
        for flags in (["--v_f", "2"], ["--boundary_kind", "periodic"]):
            out = tmp_path / flags[0]
            argv = ["run", "--scenario", "shock", *flags, "--t_final", "0.001",
                    "--output_dir", str(out)]
            assert main(argv) == 0
            header, rows = read_rows(out / "profile.csv")
            assert header[2] == "rho_exact" and {row[2] for row in rows} == {"nan"}
        # the manufactured solution is 1-periodic and zero at both ends
        out = tmp_path / "periodic_ladder"
        argv = ["conv-time", "--config", TIME_RATES, "--time_levels", "2",
                "--boundary_kind", "periodic", "--n_elements", "12", "--output_dir", str(out)]
        assert main(argv) == 0
        _, rows = read_rows(out / "convergence_time.csv")
        assert len(rows) == 2 and all(np.isfinite(float(row[2])) for row in rows)

    @pytest.mark.parametrize("argv,name,rungs", [
        (["conv-time", "--scenario", "manufactured"], "convergence_time.csv", 5),
        (["conv-space", "--scenario", "manufactured", "--space_levels", "2"],
         "convergence_space.csv", 2),
        (["conv-space", "--scenario", "rarefaction", "--space_levels", "2"],
         "convergence_space.csv", 2),
    ], ids=["time", "space", "rarefaction"])
    def test_ladder_with_zero_errors_writes_its_table(self, tmp_path, capsys, argv, name, rungs):
        # at t = 0 each rung measures its projection, which meets these exact
        # solutions at every quadrature point: errors of 0, rows without rates
        assert main([*argv, "--t_final", "0", "--output_dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"{tmp_path / name}\n"
        assert captured.err == ""  # no traceback or warning
        _, rows = read_rows(tmp_path / name)
        assert [row[2:] for row in rows] == [["0", ""]] * rungs

    def test_successful_run_exit_code(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--scenario", "manufactured",
                "--t_final", "0.02",
                "--dt", "0.01",
                "--n_elements", "12",
                "--output_dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profile.csv" in out and "diagnostics.csv" in out

    def test_periodic_mesh_run(self, tmp_path):
        # periodic boundaries bypass the constrained rows entirely
        code = main(
            [
                "run",
                "--scenario", "manufactured",
                "--boundary_kind", "periodic",
                "--t_final", "0.02",
                "--dt", "0.01",
                "--n_elements", "12",
                "--output_dir", str(tmp_path),
            ]
        )
        assert code == 0

    def test_config_file_via_flag(self, tmp_path, capsys):
        config = tmp_path / "case.cfg"
        config.write_text(
            "scenario = manufactured\n"
            "t_final = 0.02\n"
            "dt = 0.01\n"
            "n_elements = 12\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        assert main(["run", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "profile.csv").exists()


class TestParser:
    """The one parser: the command is a positional choice, each key a flag once."""

    # a value for every key, none of them a default
    VALUES = {
        "scenario": "rarefaction", "n_elements": "7", "degree": "2",
        "boundary_kind": "periodic", "v_f": "2", "rho_m": "3", "chi": "0.5",
        "deconv_order": "2", "gamma": "0.5", "delta_coeff": "0.3", "delta_exp": "0.25",
        "dt": "0.001", "t_final": "0.5", "newton_tol": "1e-9", "newton_max_iter": "7",
        "output_dir": "elsewhere", "space_min_elements": "3", "space_levels": "2",
        "dt_max": "0.05", "time_levels": "2", "chi_list": "0.5,2", "deconv_list": "1,2",
        "degree_list": "1,2", "study_times": "0.25",
    }

    @pytest.fixture
    def received(self, monkeypatch):
        """The configurations main hands to each command, which runs nothing."""
        configs = []

        def record(config):
            configs.append(config)
            return [], 0

        for name in cli.COMMANDS:
            monkeypatch.setitem(cli.COMMANDS, name, record)
        return configs

    def test_values_cover_every_key(self):
        assert list(self.VALUES) == list(cli.KEY_PARSERS)

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_every_command_accepts_every_key_as_flag_and_from_file(self, command, tmp_path,
                                                                    received):
        expected = {key: cli.KEY_PARSERS[key](raw) for key, raw in self.VALUES.items()}
        flags = [arg for key, raw in self.VALUES.items() for arg in (f"--{key}", raw)]
        config = tmp_path / "all.cfg"
        config.write_text("".join(f"{key} = {raw}\n" for key, raw in self.VALUES.items()))
        assert main([command, *flags]) == 0
        assert main([command, "--config", str(config)]) == 0
        assert len(received) == 2
        for got in received:
            assert {key: getattr(got, key) for key in expected} == expected

    def test_config_accepted_before_the_command(self, tmp_path, received):
        config = tmp_path / "case.cfg"
        config.write_text("scenario = manufactured\nn_elements = 12\n")
        assert main(["--config", str(config), "conv-time", "--chi", "1"]) == 0
        [got] = received
        assert (got.scenario, got.n_elements, got.chi) == ("manufactured", 12, 1.0)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--scenario", "shock"],
        ["run", "--scenario", "shock", "--no_such_key", "1"],
        ["--scenario", "shock"],
    ], ids=["unknown command", "unknown flag", "no command"])
    def test_unknown_command_or_flag_exits_2(self, argv, capsys, received):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.startswith("usage: lwrfem ")
        assert received == []

    @pytest.mark.parametrize("argv,config", [
        (["--jobs", "2"], None),
        (["--algorithm", "1"], None),
        ([], "jobs = 2\n"),
        ([], "algorithm = 1\n"),
    ], ids=["flag_jobs", "flag_algorithm", "file_jobs", "file_algorithm"])
    def test_retired_keys_exit_2(self, argv, config, tmp_path, capsys, received):
        # jobs and algorithm are not keys: runs go one after the other, and
        # backward Euler is --gamma 0
        if config is not None:
            (tmp_path / "case.cfg").write_text(config)
            argv = ["--config", str(tmp_path / "case.cfg")]
        out = tmp_path / "out"
        try:
            code = main(["run", "--scenario", "shock", *argv, "--output_dir", str(out)])
        except SystemExit as exit_info:  # argparse refuses an unknown flag
            code = exit_info.code
        assert code == 2 and received == [] and not out.exists()
        err = capsys.readouterr().err
        assert ("unrecognized arguments" in err if config is None
                else err == f"configuration error: line 1: unknown key {config.split()[0]!r}\n")

    def test_help_lists_the_four_commands(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "{run,conv-space,conv-time,study}" in capsys.readouterr().out


class TestPlan:
    """A command bounds its largest run's bytes and counts its steps before it allocates."""

    @pytest.mark.parametrize("argv,message", [
        (["run", "--scenario", "shock", "--n_elements", "100000000", "--t_final", "0.0001"],
         "a run on 100000000 P1 elements at N = 0 plans 119 GiB, above the limit of 2 GiB"),
        (["conv-time", "--scenario", "manufactured", "--time_levels", "60", "--t_final", "0.1"],
         "the command plans more implicit steps than the limit of 1e+08"),
        (["conv-time", "--scenario", "manufactured", "--time_levels", "1000000000"],
         "the command plans more implicit steps than the limit of 1e+08"),
        (["conv-space", "--scenario", "manufactured", "--space_levels", "1000000000"],
         "the command plans more implicit steps than the limit of 1e+08"),
        (["conv-space", "--scenario", "manufactured", "--space_levels", "1000000000",
          "--t_final", "0"],
         "a run on 1572864 P2 elements at N = 1 plans 2.61 GiB, above the limit of 2 GiB"),
        (["study", "--scenario", "shock", "--n_elements", "200000", "--degree_list", "2",
          "--deconv_list", "2", "--chi_list", "1", "--study_times", "0.001"],
         "a run on 200000 P2 elements at N = 2 plans 2.16 GiB, above the limit of 2 GiB"),
        (["study", "--scenario", "shock", "--chi_list", "0,1", "--dt", "1e-8", "--study_times", "1"],
         "the command plans more implicit steps than the limit of 1e+08"),
        # refused for want of an exact solution before the rungs' 2.1 million elements exist
        (["conv-space", "--scenario", "rarefaction", "--boundary_kind", "periodic",
          "--space_min_elements", "300000", "--space_levels", "3", "--t_final", "0"],
         "'rarefaction' has an exact solution only at v_f = rho_m = 1 and, if its Dirichlet"
         " data is nonzero, on a Dirichlet mesh"),
    ], ids=["mesh", "ladder", "time_levels", "space_levels", "finest_rung", "study_member",
            "study", "no_exact_solution"])
    def test_over_the_plan_exits_2_before_anything_exists(self, tmp_path, capsys, monkeypatch,
                                                          argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a mesh was built or a run started")

        monkeypatch.setattr(cli, "build_mesh", refuse)
        monkeypatch.setattr(cli, "run_time_filtered", refuse)
        code = main([*argv, "--output_dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"configuration error: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("boundary_kind", ["dirichlet", "periodic"])
    @pytest.mark.parametrize("deconv_order", [None, 0, 1, 2], ids=["chi0", "N0", "N1", "N2"])
    def test_plan_bounds_what_a_run_allocates(self, degree, boundary_kind, deconv_order):
        config = parse_config(None, {
            "scenario": "manufactured", "n_elements": "500", "degree": str(degree),
            "boundary_kind": boundary_kind, "chi": "0" if deconv_order is None else "1",
            "deconv_order": str(deconv_order or 0), "gamma": "0.5", "t_final": "0.03",
        })
        scenario, grid = config.get_scenario(), cli._time_grid(config.dt, config.t_final)
        # the Newton workspace is the band, gbtrf's storage and pivots, and two vectors
        mesh = config.make_mesh()
        stepper = Stepper.build(scenario, config.make_params(mesh.h), grid.dt, mesh)
        c = np.zeros(mesh.n_dofs)
        be_step(stepper, c, band_matvec(stepper.operators.mass, c), grid.dt, c,
                None if stepper.stab is None else stepper.stab(c))
        columns = stepper.newton.shape[1]
        assert newton_bytes(mesh.n_dofs, mesh.half_band, deconv_order) == (
            stepper.newton.nbytes + stepper.factors.lu.nbytes
            + stepper.factors.pivots.nbytes + 2 * 8 * columns)
        # a whole run, from its mesh through Stepper.build, its steps and its error
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            mesh = config.make_mesh()
            steps = run_time_filtered(scenario, config.make_params(mesh.h), grid, mesh)
            run_error_inf(mesh, itertools.islice(steps, 4), scenario.exact_solution)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= cli._run_bytes(config, config.n_elements)


# For every key: values in its domain or on its boundary, then values
# outside it.  The sizes keep each run to at most 16 elements and 4 steps;
# a larger value is one the plan refuses before anything exists.
KEY_VALUES = {
    "scenario": (["manufactured", "rarefaction", "shock"], ["tsunami"]),
    "n_elements": (["2", "8", "16"], ["1", "0", "x", "10000000"]),
    "degree": (["1", "2"], ["0", "3"]),
    "boundary_kind": (["dirichlet", "periodic"], ["neumann"]),
    "v_f": (["1", "0.5", "2"], ["0", "-1", "1e308", "nan"]),
    "rho_m": (["1", "0.5", "2"], ["0", "1e-310"]),
    "chi": (["0", "1e-3", "1", "1e4"], ["-1", "1e300", "inf"]),
    "deconv_order": (["0", "1", "2", "10"], ["11", "-1"]),
    "gamma": (["0", "0.5", "0.6666666666666666"], ["1", "-0.1"]),
    "delta_coeff": (["0", "0.1", "1", "1e4", "1e6"], ["-1", "1e200"]),
    "delta_exp": (["0", "0.5", "1"], ["1.5", "-0.5"]),
    "dt": (["0.01", "0.02"], ["0", "-0.01", "1e-320", "nan"]),
    "t_final": (["0", "0.01", "0.02", "0.04"], ["0.015", "-0.01", "1e305"]),
    "newton_tol": (["1e-10", "1e-3", "0.5"], ["0", "1"]),
    "newton_max_iter": (["0", "1", "25"], ["-1", "1.5"]),
    "space_min_elements": (["2", "4"], ["1", "10000000"]),
    "space_levels": (["1", "2", "3"], ["0", "1000000000"]),
    "dt_max": (["0.02", "0.04"], ["0", "-1"]),
    "time_levels": (["1", "2", "3"], ["0", "1000000000"]),
    "chi_list": (["0", "0,1", "1,1e300"], ["", "0.1,0.1000001"]),
    "deconv_list": (["", "0,1"], ["1,1", "11"]),
    "degree_list": (["", "1,2"], ["3"]),
    "study_times": (["0.01", "0,0.02", "0.04"], ["", "-0.01", "0.015"]),
}
# keys given in every draw: those that size a run, whose defaults would run long
SIZES = ("scenario", "n_elements", "dt", "t_final", "space_min_elements", "space_levels",
         "dt_max", "time_levels", "study_times")


@st.composite
def command_lines(draw):
    """A command with the size keys and others in their domains, and at most one key outside."""
    keys = [*SIZES, *draw(st.lists(st.sampled_from(
        [key for key in KEY_VALUES if key not in SIZES]), unique=True))]
    values = {key: draw(st.sampled_from(KEY_VALUES[key][0])) for key in keys}
    wrong = draw(st.none() | st.sampled_from(keys))
    if wrong is not None:
        values[wrong] = draw(st.sampled_from(KEY_VALUES[wrong][1]))
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    return [command, *(f"--{key}={value}" for key, value in values.items())]


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(argv=command_lines())
def test_every_configuration_ends_in_an_exit_code(argv):
    with tempfile.TemporaryDirectory() as where, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "MAX_RUN_BYTES", 64 * 2**20)
        out, err = io.StringIO(), io.StringIO()
        # a NumPy warning would be an unreported failure; the filter covers
        # main only, so that Hypothesis reports a falsifying example as usual
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, f"--output_dir={where}/out"])
        lines, printed = err.getvalue().splitlines(), out.getvalue().splitlines()
        assert code in (0, 1, 2)
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("configuration error: ")
            assert printed == [] and not Path(where, "out").exists()
        elif code == 1:
            assert lines and all(line.startswith(("run failed: ", "rung failed: ",
                                                  "study member failed: ")) for line in lines)
        else:
            assert lines == []
        assert all(Path(path).is_file() for path in printed)
        assert not list(Path(where).rglob("*.partial"))
