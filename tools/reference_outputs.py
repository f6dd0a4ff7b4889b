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
# workloads, the rate ladders, a chi = 0 run and a periodic filtered run
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
