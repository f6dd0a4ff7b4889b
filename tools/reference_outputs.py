"""Run a fixed set of lwrfem commands and keep everything each one prints and writes.

    python tools/reference_outputs.py OUT_DIR

Each command of COMMANDS runs in a fresh process, with the ``lwrfem`` of
this checkout (``src`` next to ``tools``) on one BLAS thread, in the
directory ``OUT_DIR/<name>/`` and with ``--output_dir out``, so that
neither the paths it prints nor its CSV headers depend on OUT_DIR.  Next
to ``out/`` that directory holds the command's ``stdout``, ``stderr`` and
``exit_code``.  Two such trees, one made from each of two checkouts, are
then compared by

    python tools/compare_outputs.py BASE_DIR CHANGE_DIR

which finds every CSV, stdout, stderr and exit code identical exactly when
the two checkouts behave alike on these commands.  OUT_DIR must not exist
yet.  Exit status: 0 when every command ran (whatever its own exit code),
2 on a usage error.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

# name -> the command line after ``lwrfem``: the benchmark's three
# workloads, the rate ladders, a chi = 0 run, a periodic filtered run, a
# short study (the one command that maps over several runs), three
# commands that fail before or at set-up, three ladders whose errors are
# exactly zero, a ladder, a study and a run that each fail part way, and
# two-rung time ladders at dt_max = 0.2 and 0.25, where Newton is pushed
# hardest (some of their rungs fail)
COMMANDS = {
    "shock-n128": ["run", "--scenario", "shock", "--t_final", "0.1"],
    "shock-n1024": ["run", "--scenario", "shock", "--n_elements", "1024",
                    "--t_final", "0.003"],
    "mms-time-ladder": ["conv-time", "--config", str(CONFIGS / "time_rates.cfg"),
                        "--chi", "1"],
    "time-rates": ["conv-time", "--config", str(CONFIGS / "time_rates.cfg")],
    "space-rates": ["conv-space", "--config", str(CONFIGS / "space_rates.cfg")],
    "rarefaction": ["run", "--scenario", "rarefaction", "--t_final", "0.1"],
    "periodic-filtered": ["run", "--scenario", "manufactured", "--boundary_kind", "periodic",
                          "--chi", "1", "--deconv_order", "2",
                          "--gamma", "0.6666666666666666", "--t_final", "0.2"],
    "study": ["study", "--config", str(CONFIGS / "shock_study.cfg"), "--study_times", "0.05,0.1"],
    "ladder-without-exact-solution": ["conv-space", "--scenario", "rarefaction",
                                      "--boundary_kind", "periodic",
                                      "--space_min_elements", "300000", "--space_levels", "3",
                                      "--t_final", "0"],
    "weight-overflow": ["run", "--scenario", "shock", "--chi", "1e300", "--delta_coeff", "1e5",
                        "--t_final", "0.001"],
    "newton-band-overflow": ["run", "--scenario", "shock", "--chi", "1e300",
                             "--delta_coeff", "1e4", "--t_final", "0.001"],
    "zero-error-time-ladder": ["conv-time", "--scenario", "manufactured", "--t_final", "0"],
    "zero-error-space-ladder": ["conv-space", "--scenario", "manufactured", "--t_final", "0",
                                "--space_levels", "2"],
    "zero-error-rarefaction-ladder": ["conv-space", "--scenario", "rarefaction",
                                      "--t_final", "0", "--space_levels", "2"],
    "ladder-with-failed-rungs": ["conv-time", "--scenario", "manufactured",
                                 "--newton_max_iter", "4", "--time_levels", "3"],
    "study-with-failed-member": ["study", "--scenario", "shock", "--chi_list", "1,1e300",
                                 "--delta_coeff", "1e4", "--study_times", "0.001,0.002"],
    "failed-run": ["run", "--scenario", "shock", "--newton_max_iter", "0", "--t_final", "0.001"],
    **{f"time-rates-chi{chi}-dt{dt}": ["conv-time", "--config", str(CONFIGS / "time_rates.cfg"),
                                       "--time_levels", "2", "--chi", chi, "--dt_max", dt]
       for chi in ("0", "1") for dt in ("0.2", "0.25")},
}

ENV = {"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1",
       "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def record(out_dir: Path, commands: dict[str, list[str]]) -> None:
    """Run each command in out_dir/<name>/ and write its stdout, stderr and exit_code there."""
    for name, argv in commands.items():
        where = out_dir / name
        where.mkdir(parents=True)
        done = subprocess.run(
            [sys.executable, "-m", "lwrfem.cli", *argv, "--output_dir", "out"],
            cwd=where, env={**os.environ, **ENV}, capture_output=True,
        )
        (where / "stdout").write_bytes(done.stdout)
        (where / "stderr").write_bytes(done.stderr)
        (where / "exit_code").write_text(f"{done.returncode}\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 1 or Path(argv[0]).exists():
        print("usage: reference_outputs.py OUT_DIR (a directory that does not exist yet)",
              file=sys.stderr)
        return 2
    record(Path(argv[0]), COMMANDS)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
