"""lwrfem benchmark: end-to-end timings, a per-layer trace, a correctness gate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each execution is one fresh worker
process (``perfbench/worker.py``) that calls ``lwrfem.cli.main(argv)``
with BLAS pinned to one thread.  Executions repeat, one after the other
(a closed loop with one client), as long as another one fits in
``--seconds``; every figure is the median over the executions of the run.

Workloads (the seed varies only how the configuration is presented, see
``make_inputs``, so cost and results do not depend on it):

* ``shock-n128``: ``lwrfem run --scenario shock`` at its defaults (P1,
  n = 128, chi = 1, N = 0, dt = 1e-4), cut to 1000 steps.  Tiny dense
  systems: bound by per-call overhead in the Newton loop.
* ``shock-n1024``: the same with ``--n_elements 1024``, cut to 30 steps.
  O(n^3) dense LU and the filter-context build dominate; memory is the
  dense O(n^2) operators.
* ``mms-time-ladder``: ``lwrfem conv-time --config configs/time_rates.cfg
  --chi 1`` (P2, h = 1/100, N = 1, gamma = 2/3, dt = 1/10 .. 1/160).  The
  only workload with forcing, the time filter, error evaluation and a
  set-up rebuilt per rung.

With ``--trace 0`` the last line carries the end-to-end metrics:
``wall_s`` (the ``main(argv)`` call, scaled to a reference machine speed as
explained at ``WORKLOADS``), ``steps_per_s`` (implicit steps per
wall second), ``setup_s`` (mesh, operators, filter context and initial
projection as direct library calls, scaled the same way), ``peak_rss_mb`` and
``result_error`` (the accuracy the command reports).  ``failed_frac`` is
printed above it and is ``failed / attempted`` of the last line.  With
``--trace 1`` untraced and traced executions alternate; the last line
carries the per-layer metrics of the traced ones and ``trace.overhead_s``.

Every execution is checked: exit code, finite outputs, the effective
configuration echoed in the CSV header, the CSV values against
``reference.json`` (recorded from the seed code) and against the exact
solution.  A failed check counts the execution as failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The machine this benchmark was built on (2 shared vCPUs) ran the same
# execution at speeds up to 1.6x apart for minutes at a time, with wall and
# CPU time moving together.  The worker therefore times a calibration kernel
# shaped like the workload's Newton step (``worker.calibration_s``) next to
# each execution, and the reported times are scaled to the machine speed at
# which that kernel takes ``ref_s``.  Raw times are printed as well.
WORKLOADS = {
    "shock-n128": {
        "command": "run",
        "entries": {"scenario": "shock", "t_final": "0.1"},
        "setup_repeats": 25,
        "calibration": {"n": 200, "repeats": 60, "ref_s": 0.03},
    },
    "shock-n1024": {
        "command": "run",
        "entries": {"scenario": "shock", "n_elements": "1024", "t_final": "0.003"},
        "setup_repeats": 3,
        "calibration": {"n": 1024, "repeats": 2, "ref_s": 0.08},
    },
    "mms-time-ladder": {
        "command": "conv-time",
        "base_config": "configs/time_rates.cfg",
        "entries": {"chi": "1"},
        "setup_repeats": 9,
        "calibration": {"n": 200, "repeats": 60, "ref_s": 0.03},
    },
}

END_TO_END = {
    "wall_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "result_error": "L2",
}

# Above the seed's own run-to-run drift (about 1e-11 relative on the
# ladder's rates) and far below any change a wrong answer would make.
REL_TOL = 1e-8
ABS_TOL = 1e-9
# The shock front (where rho_h crosses the mean of the two states) must
# lie within this many elements of the exact position 5t/12.
FRONT_TOL_H = 4.0
# A round of two hung workers still ends a 40 s run well inside 180 s.
WORKER_TIMEOUT_S = 50
HEADER_MASK = re.compile(r" output_dir=\S*")


def read_key_values(path: Path) -> dict[str, str]:
    """``key = value`` lines with ``#`` comments, as the CLI reads them."""
    entries = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            entries[key] = value
    return entries


def make_inputs(name: str, seed: int, out_dir: str, config_file: Path) -> dict:
    """The command line and config file of one execution, drawn from the seed.

    The seed splits the workload's settings between a generated config
    file and ``--key value`` flags and shuffles their order.  The CLI
    resolves every split to the same configuration, which the correctness
    check confirms from the header each CSV echoes.
    """
    workload = WORKLOADS[name]
    entries = {}
    if "base_config" in workload:
        entries.update(read_key_values(ROOT / workload["base_config"]))
    entries.update(workload["entries"])
    entries["output_dir"] = out_dir
    rng = random.Random(f"{name}/{seed}")
    keys = list(entries)
    rng.shuffle(keys)
    in_file = [k for k in keys if rng.random() < 0.5]
    flags = {k: entries[k] for k in keys if k not in in_file}
    lines = [f"# {name}, seed {seed}"]
    lines += [f"{k}{' ' * rng.randint(0, 3)}= {entries[k]}" for k in in_file]
    config_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"command": workload["command"], "config_file": str(config_file),
            "flags": flags, "setup_repeats": workload["setup_repeats"],
            "calibration": workload["calibration"]}


def execute(inputs: dict, run_dir: Path, trace: bool) -> tuple[dict | None, str]:
    """Run one worker process; returns (result, error message)."""
    spec = dict(inputs, root=str(ROOT), trace=trace,
                result=str(run_dir / "result.json"), spans=str(run_dir / "spans.jsonl"))
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=ROOT, env=dict(os.environ, **BLAS_ENV), capture_output=True,
            text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {WORKER_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads((run_dir / "result.json").read_text(encoding="utf-8")), ""


def read_csv(path: Path) -> tuple[str, list[dict[str, str]]]:
    with open(path, encoding="utf-8", newline="") as f:
        header = f.readline().rstrip("\n")
        return HEADER_MASK.sub("", header), list(csv.DictReader(f))


def floats(rows, column) -> list[float]:
    return [float(row[column]) for row in rows]


def header_value(header: str, key: str) -> float:
    return float(re.search(rf" {key}=(\S+)", header).group(1))


def close(value: float, reference: float) -> bool:
    return abs(value - reference) <= ABS_TOL + REL_TOL * abs(reference)


def outputs_of_run(out_dir: Path) -> dict:
    """What the correctness gate compares for ``lwrfem run``."""
    header, profile = read_csv(out_dir / "profile.csv")
    _, diagnostics = read_csv(out_dir / "diagnostics.csv")
    rho_h, exact = floats(profile, "rho_h"), floats(profile, "rho_exact")
    final = diagnostics[-1]
    return {
        "header": header,
        "x": floats(profile, "x"),
        "rho_h": rho_h,
        "final_diagnostics": {k: float(final[k]) for k in ("t", "l2_norm", "energy_E")},
        "steps": sum(1 for row in diagnostics if int(row["n"]) >= 1),
        "result_error": math.sqrt(
            statistics.fmean((r - e) ** 2 for r, e in zip(rho_h, exact))
        ),
        "finite": all(math.isfinite(float(v)) for row in diagnostics + profile
                      for v in row.values()),
    }


def outputs_of_ladder(out_dir: Path) -> dict:
    """What the correctness gate compares for ``lwrfem conv-time``."""
    header, rows = read_csv(out_dir / "convergence_time.csv")
    failed = any(row["error_linf_l2"] == "failed" for row in rows)
    errors = [] if failed else floats(rows, "error_linf_l2")
    t_final = header_value(header, "t_final")
    return {
        "header": header,
        "errors": errors,
        "rates": [float(row["rate"]) for row in rows if row["rate"]],
        "steps": sum(round(t_final / float(row["h_or_dt"])) for row in rows),
        "result_error": errors[-1] if errors else math.nan,
        "finite": not failed and all(math.isfinite(e) for e in errors),
    }


def shock_front(x: list[float], rho: list[float]) -> float:
    """First point where rho_h rises through the mean of the two states."""
    level = 0.5 * (0.25 + 1.0 / 3.0)
    for i in range(1, len(x)):
        if rho[i - 1] <= level < rho[i]:
            return x[i - 1] + (level - rho[i - 1]) * (x[i] - x[i - 1]) / (rho[i] - rho[i - 1])
    return math.nan


def check(command: str, out: dict, ref: dict) -> list[str]:
    """Reasons the outputs are wrong; empty when they pass."""
    problems = []
    if out["header"] != ref["header"]:
        problems.append("effective configuration differs from the reference")
    if not out["finite"]:
        return problems + ["non-finite or failed output"]
    if command == "run":
        if len(out["rho_h"]) != len(ref["rho_h"]) or not all(
            close(a, b) for a, b in zip(out["rho_h"], ref["rho_h"])
        ):
            problems.append("profile rho_h differs from the reference")
        for key, value in ref["final_diagnostics"].items():
            if not close(out["final_diagnostics"][key], value):
                problems.append(f"final {key} differs from the reference")
        t = out["final_diagnostics"]["t"]
        h = 1.0 / header_value(out["header"], "n_elements")
        front = shock_front(out["x"], out["rho_h"])
        if not abs(front - 5.0 * t / 12.0) <= FRONT_TOL_H * h:
            problems.append(f"shock front at {front:.6g}, exact {5 * t / 12:.6g}")
    else:
        if len(out["errors"]) != len(ref["errors"]) or not all(
            close(a, b) for a, b in zip(out["errors"], ref["errors"])
        ):
            problems.append("ladder errors differ from the reference")
        if any(fine >= coarse for coarse, fine in zip(out["errors"], out["errors"][1:])):
            problems.append("error against the exact solution does not decrease")
    if out["steps"] != ref["steps"]:
        problems.append(f"{out['steps']} steps, reference {ref['steps']}")
    return problems


def run_one(name: str, seed: int, index: int, work: Path, trace: bool) -> dict:
    """One checked execution; ``ok`` is False when it failed."""
    run_dir = work / f"exec-{index}{'-traced' if trace else ''}"
    out_dir = run_dir / "out"
    run_dir.mkdir(parents=True)
    # Relative to the worker's working directory, the checkout root, so the
    # path echoed in each CSV header holds no spaces and no checkout location.
    echoed_out = str(out_dir.relative_to(ROOT))
    inputs = make_inputs(name, seed, echoed_out, run_dir / "config.cfg")
    result, error = execute(inputs, run_dir, trace)
    record = {"ok": False, "trace": trace, "inputs": inputs, "result": result, "problems": []}
    if result is None:
        record["problems"].append(error)
        return record
    if result["exit_code"] != 0:
        record["problems"].append(f"lwrfem exited {result['exit_code']}")
        return record
    command = inputs["command"]
    try:
        out = (outputs_of_run if command == "run" else outputs_of_ladder)(out_dir)
    except (OSError, KeyError, ValueError) as err:
        record["problems"].append(f"unreadable output: {err!r}")
        return record
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[name]
    record["problems"] = check(command, out, reference)
    record["ok"] = not record["problems"]
    record["outputs"] = out
    # Bytes written, less the output path each header echoes.
    record["csv_bytes"] = sum(
        p.stat().st_size - len(echoed_out) for p in out_dir.glob("*.csv")
    )
    record["run_dir"] = run_dir
    return record


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (f"n={len(values)} min={min(values):.6g} q1={q1:.6g} median={med:.6g} "
            f"q3={q3:.6g} max={max(values):.6g} iqr/median={(q3 - q1) / med:.3g}")


def speed_scaled(record: dict, key: str) -> float:
    """A time of one execution, scaled to the reference machine speed."""
    reference = record["inputs"]["calibration"]["ref_s"]
    return record["result"][key] * reference / record["result"]["calibration_s"]


def end_to_end(records: list[dict]) -> dict[str, float]:
    good = [r for r in records if r["ok"]]
    if not good:
        return {}
    wall = statistics.median(speed_scaled(r, "wall_s") for r in good)
    return {
        "wall_s": wall,
        "steps_per_s": good[0]["outputs"]["steps"] / wall,
        "setup_s": statistics.median(speed_scaled(r, "setup_s") for r in good),
        "peak_rss_mb": statistics.median(r["result"]["peak_rss_mb"] for r in good),
        "result_error": statistics.median(r["outputs"]["result_error"] for r in good),
    }


def per_layer(records: list[dict]) -> dict[str, float]:
    from tracer import layer_metrics

    plain = [r for r in records if r["ok"] and not r["trace"]]
    traced = [r for r in records if r["ok"] and r["trace"]]
    if not plain or not traced:
        return {}
    samples: dict[str, list[float]] = {}
    for r in traced:
        with open(r["run_dir"] / "spans.jsonl", encoding="utf-8") as f:
            spans = [json.loads(line) for line in f]
        metrics = layer_metrics(spans, r["result"]["counters"], set(r["result"]["wrapped"]))
        metrics["cli.csv_bytes"] = r["csv_bytes"]
        for key, value in metrics.items():
            samples.setdefault(key, []).append(value)
    out = {key: statistics.median(values) for key, values in sorted(samples.items())}
    out["trace.overhead_s"] = (
        statistics.median(r["result"]["wall_s"] for r in traced)
        - statistics.median(r["result"]["wall_s"] for r in plain)
    )
    return out


# Per-layer units by name suffix, first match wins.
UNITS = [("_bytes", "B"), (".ms_per_call", "ms"), (".calls_per_iter", "calls/iter"),
         (".iters_per_step", "iters/step"), (".calls", "count"), (".gflops", "GFLOP/s"),
         (".gflop", "GFLOP"), ("_ms", "ms"), ("_s", "s")]
COMPUTED = ("gflop", "gflops", "dense_bytes", "ctx_bytes", "calls_per_iter", "iters_per_step")


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    return next(unit for suffix, unit in UNITS if metric.endswith(suffix))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("src/lwrfem/cli.py", "configs/time_rates.cfg")
               if not (ROOT / p).is_file()]
    if missing or not REFERENCE.is_file():
        print(f"not an lwrfem checkout: missing {missing or [str(REFERENCE)]}",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    records: list[dict] = []
    start = perf_counter()
    rounds: list[float] = []
    try:
        # Start another round only if a typical one still fits in the run.
        while not rounds or perf_counter() - start + statistics.median(rounds) <= args.seconds:
            round_start = perf_counter()
            for trace in ((False, True) if args.trace else (False,)):
                records.append(run_one(args.workload, args.seed, len(records), work, trace))
            rounds.append(perf_counter() - round_start)
        metrics = per_layer(records) if args.trace else end_to_end(records)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    failed = [r for r in records if not r["ok"]]
    env = next((r["result"]["env"] for r in records if r["result"]), None)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"environment {json.dumps(env)}")
    for r in failed:
        print(f"FAILED execution: {'; '.join(r['problems'])}", file=sys.stderr)
    good = [r for r in records if r["ok"]]
    if not args.trace:
        for key, fn in (("raw wall_s", lambda r: r["result"]["wall_s"]),
                        ("raw cpu_s", lambda r: r["result"]["cpu_s"]),
                        ("raw setup_s", lambda r: r["result"]["setup_s"]),
                        ("calibration", lambda r: r["result"]["calibration_s"]),
                        ("wall_s", lambda r: speed_scaled(r, "wall_s")),
                        ("setup_s", lambda r: speed_scaled(r, "setup_s")),
                        ("peak_rss_mb", lambda r: r["result"]["peak_rss_mb"])):
            print(f"  {key:<12} over executions: {spread([fn(r) for r in good])}")
        if good and "rates" in good[0]["outputs"]:
            print(f"  finest-rung rate (reported, not gated): "
                  f"{good[0]['outputs']['rates'][-1]!r}")
    for key, value in metrics.items():
        label = " (computed)" if key.rsplit(".", 1)[-1] in COMPUTED else ""
        print(f"{key:<44} {value:>14.6g} {unit_of(key)}{label}")
    print(f"{'failed_frac':<44} {len(failed) / len(records):>14.6g} 1")
    missing = next((r["result"]["missing"] for r in good if r["trace"]), [])
    if missing:
        print(f"absent, not found in lwrfem: {missing}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
