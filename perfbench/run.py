"""Fixed-seed benchmark for streamacq: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload scenario --seed 0 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced runs; ``--trace 1``
prints the per-layer metrics of a traced run. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it repeat every metric with its unit and sample
count. A fuller record, with the environment, the output digests and any
failed check, goes to ``perfbench/out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = 1  # the closed loop is single-threaded; nproc is the ceiling
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("toy", "scenario", "refit", "theory"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "machine": platform.machine(),
    }


def _report(result, env: dict, args) -> dict:
    for name, (value, unit, n) in result.metrics.items():
        print(f"{name:32s} {value:14.6g} {unit:9s} n={n}")
    for problem in result.problems:
        print(f"FAILED CHECK {problem}")
    drift = result.notes.get("digest_drift_seeds")
    if drift:
        print(f"output digests differ from perfbench/baseline.json on seeds {drift}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed, "problems": result.problems,
        "metrics": {name: {"value": v, "unit": u, "n": n}
                    for name, (v, u, n) in result.metrics.items()},
        **result.notes,
    }
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def _write_spans(tracer, args) -> None:
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps(["name", "start", "end", "parent", "step"]) + "\n")
        for row in tracer.rows():
            fh.write(json.dumps(row) + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "streamacq" / "__init__.py").is_file():
        print(f"error: no streamacq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import streamacq
    if Path(streamacq.__file__).resolve().parent != ROOT / "src" / "streamacq":
        print(f"error: streamacq imported from {streamacq.__file__}", file=sys.stderr)
        return 2
    import perf_workloads as pw

    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / "tmp"
    scratch.mkdir(exist_ok=True)
    baseline_path = BENCH_DIR / "baseline.json"
    baseline = (json.loads(baseline_path.read_text(encoding="utf-8"))
                if baseline_path.is_file() else {})
    recorded = baseline.get("digests", {}).get(args.workload, {})

    tracer = None
    try:
        if args.workload == "theory":
            if args.trace:
                result, tracer = pw.trace_theory(args.seed)
            else:
                result = pw.measure_theory(args.seed, args.seconds)
        else:
            workload = pw.STREAM_WORKLOADS[args.workload]
            if args.trace:
                result, tracer = pw.trace_stream(workload, args.seed, str(scratch),
                                                 recorded)
            else:
                result = pw.measure_stream(workload, args.seed, args.seconds,
                                           str(scratch), recorded)
    except (pw.BenchmarkError, ValueError) as exc:  # no valid measurement
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = _report(result, _environment(), args)
    if tracer is not None:
        _write_spans(tracer, args)
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in record["metrics"].items()
               if name != "failed_share"}
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
