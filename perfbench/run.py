#!/usr/bin/env python3
"""Run one nfar benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stream-bounded --seed 1 --seconds 20 --trace 0

Run from the repository root. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it records the environment and the sample
statistics. BLAS threads are capped at the number of usable cores before
numpy is imported; the package is imported from ``src/`` of this checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("stream-bounded", "stream-unbounded", "train-stage1", "train-stage2")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def environment(threads: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy without the dict form of show_config
        blas = {}
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads": {var: threads for var in BLAS_THREAD_VARS}}


def main(argv=None, size=None) -> int:
    """Run one workload at `size` (the full benchmark size by default)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "nfar" / "__init__.py").is_file():
        print(f"error: no nfar sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    sys.path[:0] = [str(SRC), str(HERE)]
    import nfar
    import workloads

    if Path(nfar.__file__).resolve().parent != SRC / "nfar":
        print(f"error: imported nfar from {nfar.__file__}, not {SRC}", file=sys.stderr)
        return 2
    size = size or workloads.FULL

    out_dir = HERE / "out"
    workdir = out_dir / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
            run = workloads.traced(args.workload, args.seed, args.seconds, size, workdir, spans)
        else:
            run = workloads.measure(args.workload, args.seed, args.seconds, size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = run["tally"]
    for metric in run["metrics"].values():
        if not math.isfinite(metric["value"]):
            tally.problems.append("a metric is not finite")
            metric["value"] = 0.0
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "environment": environment(threads),
                      "problems": tally.problems, "detail": run["detail"]}))
    print(json.dumps({"correct": tally.failed == 0 and not tally.problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": run["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
