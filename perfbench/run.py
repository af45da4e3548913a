"""Benchmark entry point: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory, never from an installed copy. BLAS threads are capped at the
number of usable cores before numpy loads. The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. A fuller record
(environment, per-round figures, and with tracing every span) is written to
``perfbench/out/<workload>-seed<seed>[-trace].json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

CORES = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    if not os.environ.get(_var, "").isdigit() or int(os.environ[_var]) > CORES:
        os.environ[_var] = str(CORES)


def _import_package():
    """Import ecgdenoise from this checkout's src; exit 2 when it is not there."""
    if not (SRC / "ecgdenoise" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'ecgdenoise'}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import ecgdenoise

    if Path(ecgdenoise.__file__).resolve().parent != SRC / "ecgdenoise":
        sys.exit(f"perfbench: imported ecgdenoise from {ecgdenoise.__file__}, not {SRC}")


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cores": CORES,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    suffix = "-trace" if args.trace else ""
    work = OUT / f"work-{w.name}-seed{args.seed}{suffix}-{os.getpid()}"
    try:
        result, details = workloads.run(w, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    OUT.mkdir(exist_ok=True)
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **details, "result": result}
    with open(OUT / f"{w.name}-seed{args.seed}{suffix}.json", "w") as fh:
        json.dump(record, fh)
    for line in details["errors"] + details["check_failures"]:
        print(f"perfbench: {line}", file=sys.stderr)
    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"perfbench: no figure for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
