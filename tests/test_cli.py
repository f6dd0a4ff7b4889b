import numpy as np
import pytest

from lwrfem.cli import (
    ConfigTypeError,
    MissingScenarioError,
    UnknownKeyError,
    _write_convergence,
    cmd_convergence_space,
    cmd_convergence_time,
    cmd_run,
    cmd_scenario_study,
    main,
    parse_config,
)


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")  # config echo
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


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
        with pytest.raises(UnknownKeyError, match="dleta_coeff"):
            parse_config(config, {})

    def test_repeated_key_names_both_lines(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("scenario = shock\nchi = 0\n# comment\nchi = 1\n")
        with pytest.raises(ConfigTypeError, match="line 4: key 'chi' repeats line 2"):
            parse_config(config, {})

    def test_type_error_names_key_and_line(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("scenario = shock\n\nchi = banana\n")
        with pytest.raises(ConfigTypeError, match="line 3.*chi"):
            parse_config(config, {})

    def test_missing_scenario(self):
        with pytest.raises(MissingScenarioError):
            parse_config(None, {})
        with pytest.raises(MissingScenarioError):
            parse_config(None, {"scenario": "tsunami"})

    def test_header_echo_order(self):
        # the echo is compared byte for byte by downstream tools
        assert parse_config(None, {"scenario": "shock"}).header_line() == (
            "# scenario=shock n_elements=128 degree=1 boundary_kind=dirichlet v_f=1"
            " rho_m=1 chi=1 deconv_order=0 gamma=0 delta_coeff=1 delta_exp=0.5"
            " dt=0.0001 t_final=1 newton_tol=1e-10 newton_max_iter=25 algorithm=2"
            " output_dir=out space_min_elements=6 space_levels=6"
            " dt_max=0.10000000000000001 time_levels=5 chi_list=0,1 deconv_list="
            " degree_list= study_times=0.5,1 jobs=1"
        )

    def test_validation_of_derived_fields(self):
        with pytest.raises(ConfigTypeError):
            parse_config(None, {"scenario": "shock", "delta_exp": "1.5"})
        with pytest.raises(ConfigTypeError):
            parse_config(None, {"scenario": "shock", "algorithm": "3"})


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
        results = [("1/6", 1.0 / 6.0, 1e-2), ("1/12", 1.0 / 12.0, None),
                   ("1/24", 1.0 / 24.0, 1e-3)]
        failures = _write_convergence(tmp_path / "table.csv", cfg, results)
        assert failures == 1
        _, rows = read_rows(tmp_path / "table.csv")
        assert rows[1][2] == "failed" and rows[1][3] == ""
        assert rows[2][3] == ""  # no rate across the gap

    def test_rung_failure_exit_code(self, tmp_path, capsys):
        # a single Newton iteration cannot meet the tolerance at dt = 0.1
        code = main(
            [
                "conv-time",
                "--scenario", "manufactured",
                "--time_levels", "1",
                "--newton_max_iter", "1",
                "--n_elements", "20",
                "--output_dir", str(tmp_path),
            ]
        )
        assert code == 1
        assert "rung failed" in capsys.readouterr().err

    def test_parallel_jobs_produce_identical_data(self, tmp_path):
        cases = [
            (cmd_convergence_time, {"scenario": "manufactured", "time_levels": "2",
                                    "dt_max": "0.05", "t_final": "0.1"}),
            (cmd_scenario_study, {"scenario": "shock", "chi_list": "0,0.5,1",
                                  "study_times": "0.01,0.02", "dt": "0.001"}),
        ]
        for command, settings in cases:
            rows = {}
            for jobs in ("1", "2"):
                cfg = parse_config(
                    None,
                    {
                        **settings,
                        "n_elements": "16",
                        "jobs": jobs,
                        "output_dir": str(tmp_path / command.__name__ / jobs),
                    },
                )
                files, failures = command(cfg)
                assert failures == 0
                # drop the headers: they echo the config, which includes `jobs`
                rows[jobs] = [
                    (path.name, path.read_text().splitlines()[1:]) for path in files
                ]
            assert rows["1"] == rows["2"]

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

    @pytest.mark.filterwarnings("error")  # a NumPy warning would be a second line
    def test_failed_run_exits_1_with_one_line(self, tmp_path, capsys):
        # no convergence, and a residual whose norm overflows; the second
        # run's output directory does not exist yet
        for flags, out in ((["--newton_max_iter", "0"], tmp_path),
                           (["--v_f", "1e300"], tmp_path / "new")):
            code = main(
                [
                    "run",
                    "--scenario", "shock",
                    *flags,
                    "--t_final", "0.001",
                    "--output_dir", str(out),
                ]
            )
            captured = capsys.readouterr()
            assert code == 1
            assert captured.err.startswith("run failed: step 1 to t = 0.0001 failed: ")
            assert captured.err.count("\n") == 1
            assert captured.out == "" and not list(tmp_path.iterdir())

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

    def test_algorithm_1_is_backward_euler_whatever_gamma(self, tmp_path):
        def rows(*flags):
            out = tmp_path / "".join(flags)
            argv = ["run", "--scenario", "manufactured", "--t_final", "0.1",
                    *flags, "--output_dir", str(out)]
            assert main(argv) == 0
            # below the header, which echoes algorithm and gamma
            return [(out / name).read_text().splitlines()[1:]
                    for name in ("profile.csv", "diagnostics.csv")]

        backward_euler = rows("--algorithm", "2", "--gamma", "0")
        assert rows("--algorithm", "1", "--gamma", "0.5") == backward_euler
        assert rows("--algorithm", "2", "--gamma", "0.5") != backward_euler

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
