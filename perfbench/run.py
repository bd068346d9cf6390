"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ``src/``
beside this directory, and nowhere else. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``). The line before it is a report naming the machine, with
sample counts and the workload's own named metrics. A traced run also writes
its spans to ``perfbench/out/``. The exit code is 0 only when every
correctness gate passed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_library():
    """Put the checkout's ``src`` first on the path and import from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine(workload: str) -> dict:
    import numpy
    import scipy

    partitioned = workload.startswith("p4")
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "backend": "distributed" if partitioned else "numpy",
        "ranks": 2 if partitioned else 1,
    }


def main(argv=None, scale: str = "full") -> int:
    """The command line; ``scale="tiny"`` is for the benchmark's own tests."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    sys.path.insert(0, str(HERE))
    import metrics
    from repro.parallel import shutdown_rank_clusters
    from spans import Tracer
    from workloads import Failed, Run, run_workload

    if args.workload not in metrics.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(metrics.WORKLOADS)}")
    trace = bool(args.trace)
    run = Run(Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}", enabled=trace))
    complete = False
    try:
        run_workload(run, args.workload, args.seed, args.seconds, trace, scale)
        complete = True
    except Failed:
        traceback.print_exc()
    finally:
        shutdown_rank_clusters()

    if trace:
        path = HERE / "out" / f"trace-{run.tracer.run_id}.json"
        run.tracer.dump(path)
        table = [(name, unit) for name, unit, _ in metrics.PER_LAYER]
        values = run.layer
    else:
        path = None
        table = [(name, unit) for name, unit, _, _ in metrics.END_TO_END]
        values = dict(run.e2e)
        values["success_rate"] = 1.0 - len(run.failures) / max(1, run.attempted)
    correct = complete and not run.failures
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "machine": machine(args.workload),
        "details": run.details,
        "error_rate": len(run.failures) / max(1, run.attempted),
        "failures": run.failures[:20],
        "trace_file": None if path is None else str(path.relative_to(HERE.parent)),
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in table
            if name in values
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
