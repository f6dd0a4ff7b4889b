"""One benchmark execution, in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

SPEC names the checkout root, the ``lwrfem`` command and its arguments,
how many times to repeat the set-up timing, whether to trace, and where
to write the result.  The worker pins BLAS to one thread before numpy is
imported, imports the library from ``src/``, and then:

* times ``lwrfem.cli.main(argv)`` (imports excluded), traced or not;
* reads the peak resident set size right after that call;
* untraced, times a calibration kernel three times before and three
  times after that call, and the set-up of the command's meshes as direct
  library calls: ``build_mesh``, ``assemble``, ``build_filter_context``
  and ``l2_project``, once per mesh the command builds (once per rung of
  a ladder), repeated and reduced to the median;
* traced, writes its spans next to the result.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def calibration_s(n: int, repeats: int) -> float:
    """Seconds of a fixed kernel shaped like a Newton step of size n.

    Dense LU factor and solve of an n x n system plus small scatter and
    reduction calls, the operations a Newton step is made of.  Timed next
    to ``main``, it measures how fast the machine runs that kind of code
    at that moment.
    """
    import numpy as np
    import scipy.linalg

    matrix = np.eye(n) * n + np.add.outer(np.arange(n), np.arange(n)) % 7
    vector = np.linspace(0.0, 1.0, n)
    index = np.arange(n)
    start = perf_counter()
    for _ in range(repeats):
        x = scipy.linalg.lu_solve(scipy.linalg.lu_factor(matrix), vector)
        acc = np.zeros(n + 1)
        np.add.at(acc, index, x * x)
        np.einsum("i,i->", acc, acc)
    return perf_counter() - start


def time_setup(spec: dict) -> float:
    """Seconds to build every mesh and its set-up that the command builds."""
    from lwrfem import assemble, build_filter_context, build_mesh, l2_project
    from lwrfem.cli import parse_config

    config = parse_config(spec["config_file"], spec["flags"])
    scenario = config.get_scenario()
    meshes = config.time_levels if spec["command"] == "conv-time" else 1
    start = perf_counter()
    for _ in range(meshes):
        mesh = build_mesh(0.0, 1.0, config.n_elements, config.degree,
                          config.boundary_kind)
        operators = assemble(mesh)
        build_filter_context(operators, config.delta_for(mesh.h), config.deconv_order)
        l2_project(scenario.initial_condition, mesh)
    return perf_counter() - start


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from lwrfem import cli

    if Path(cli.__file__).resolve().parents[2] != Path(spec["root"]).resolve():
        raise RuntimeError(f"imported lwrfem from {cli.__file__}, not from the checkout")

    argv = [spec["command"], "--config", spec["config_file"]]
    for key, value in spec["flags"].items():
        argv += [f"--{key}", str(value)]

    run = cli.main
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        run = tracer.traced(cli.main, "cli.main")
        tracer.wrapped.add("cli.main")

    if not spec["trace"]:
        kernel = (spec["calibration"]["n"], spec["calibration"]["repeats"])
        calibration = [calibration_s(*kernel) for _ in range(3)]
    with contextlib.redirect_stdout(io.StringIO()):
        start, start_cpu = perf_counter(), process_time()
        code = run(argv)
        wall, cpu = perf_counter() - start, process_time() - start_cpu
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"exit_code": code, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb,
              "env": environment()}
    if tracer is None:
        calibration += [calibration_s(*kernel) for _ in range(3)]
        result["calibration_s"] = statistics.median(calibration)
        result["setup_s"] = statistics.median(
            time_setup(spec) for _ in range(spec["setup_repeats"])
        )
    else:
        tracer.dump(spec["spans"])
        result.update(counters=tracer.counters, wrapped=sorted(tracer.wrapped),
                      missing=tracer.missing
                      + [f"result hook of {name}" for name in tracer.broken_hooks])
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
