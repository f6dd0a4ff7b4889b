"""Record ``reference.json``: the outputs the correctness gate compares.

    python3 perfbench/record_reference.py

Runs each workload once through the benchmark's own worker and stores
the values ``run.py`` checks.  Record it only from code whose outputs are
trusted; the committed file comes from the seed code of the repository.
"""

import json
import shutil
import sys

import run

REFERENCE_KEYS = ("header", "rho_h", "final_diagnostics", "errors", "steps")


def main() -> int:
    reference = {}
    work = run.WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name, workload in run.WORKLOADS.items():
            run_dir = work / name
            run_dir.mkdir(parents=True)
            out_dir = str((run_dir / "out").relative_to(run.ROOT))
            inputs = run.make_inputs(name, 0, out_dir, run_dir / "config.cfg")
            result, error = run.execute(inputs, run_dir, trace=False)
            if result is None or result["exit_code"] != 0:
                print(f"{name}: {error or result}", file=sys.stderr)
                return 1
            reader = run.outputs_of_run if workload["command"] == "run" else run.outputs_of_ladder
            out = reader(run_dir / "out")
            reference[name] = {k: out[k] for k in REFERENCE_KEYS if k in out}
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
