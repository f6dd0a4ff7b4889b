"""Traced scale sweep: per-layer time against mesh size for the shock.

    python3 perfbench/sweep.py

Runs ``lwrfem run --scenario shock --n_elements n --t_final 1e-4`` (P1,
chi = 1, N = 0, one implicit step) for n = 128 .. 2048 through the traced
worker, and prints, per n, the median over three executions of the
operator assembly, the filter-context build, the one step and its LU
solves, with the log-log slope of each against n.  The sweep is
reported, not gated.
Dense n = 4096 is left out: its set-up and memory take minutes on two
cores.  The last line is the table as JSON.
"""

import json
import math
import shutil
import statistics
import sys

import run
from tracer import layer_metrics

SIZES = (128, 256, 512, 1024, 2048)
REPEATS = 3
# column -> (per-layer metric, factor to ms)
COLUMNS = {
    "assemble_ms": ("operators.assemble.total_s", 1e3),
    "filter_context_ms": ("filtering.build_filter_context.total_s", 1e3),
    "first_step_ms": ("stepping.be_step.p50_ms", 1.0),
    "lu_solve_ms": ("linalg.lu_solve.ms_per_call", 1.0),
}


def slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def measure(n: int, index: int, work) -> dict[str, float]:
    run_dir = work / f"n{n}-{index}"
    run_dir.mkdir(parents=True)
    config = run_dir / "config.cfg"
    config.write_text("scenario = shock\n", encoding="utf-8")
    inputs = {"command": "run", "config_file": str(config), "setup_repeats": 1,
              "flags": {"n_elements": n, "t_final": "0.0001",
                        "output_dir": str(run_dir / "out")}}
    result, error = run.execute(inputs, run_dir, trace=True)
    if result is None or result["exit_code"] != 0:
        raise RuntimeError(f"n = {n}: {error or result}")
    with open(run_dir / "spans.jsonl", encoding="utf-8") as f:
        spans = [json.loads(line) for line in f]
    metrics = layer_metrics(spans, result["counters"], set(result["wrapped"]))
    shutil.rmtree(run_dir)
    return {column: factor * metrics[name] for column, (name, factor) in COLUMNS.items()}


def main() -> int:
    work = run.WORK / "sweep"
    shutil.rmtree(work, ignore_errors=True)
    table = {}
    try:
        for n in SIZES:
            samples = [measure(n, i, work) for i in range(REPEATS)]
            table[n] = {c: statistics.median(s[c] for s in samples) for c in COLUMNS}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if run.WORK.is_dir() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()
    slopes = {c: slope(SIZES, [table[n][c] for n in SIZES]) for c in COLUMNS}
    last = {c: math.log2(table[SIZES[-1]][c] / table[SIZES[-2]][c]) for c in COLUMNS}
    print(f"{'n':>6} " + " ".join(f"{c:>18}" for c in COLUMNS))
    for n in SIZES:
        print(f"{n:>6} " + " ".join(f"{table[n][c]:>18.4g}" for c in COLUMNS))
    print(f"{'fit':>6} " + " ".join(f"{slopes[c]:>18.3f}" for c in COLUMNS)
          + "   log-log slope, least squares over all n")
    print(f"{'last':>6} " + " ".join(f"{last[c]:>18.3f}" for c in COLUMNS)
          + f"   log-log slope from n = {SIZES[-2]} to {SIZES[-1]}")
    print(json.dumps({"sizes": SIZES, "repeats": REPEATS, "unit": "ms",
                      "table": table, "log_log_slope_fit": slopes,
                      "log_log_slope_last": last}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
