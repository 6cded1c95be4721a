"""Fold the result files in perfbench/out/ into perfbench/baseline.json.

Run the benchmark on the seeds to record (untraced and traced), then:

    python3 perfbench/record_baseline.py <commit>

For each workload the baseline keeps the median and quartiles of every metric
over the untraced runs, the metrics of each traced run, the environment, and
the output digests of every stream seed seen. Notes already in the baseline
are kept.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    path = BENCH_DIR / "baseline.json"
    old = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    results = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted((BENCH_DIR / "out").glob("result-*.json"))]
    if not results:
        print("no result files in perfbench/out/", file=sys.stderr)
        return 1

    workloads, digests = {}, {}
    for r in results:
        entry = workloads.setdefault(r["workload"], {"untraced": {}, "traced": {}})
        side = entry["traced" if r["trace"] else "untraced"]
        side.setdefault("seeds", []).append(r["seed"])
        side.setdefault("correct", []).append(r["correct"])
        for name, m in r["metrics"].items():
            side.setdefault("values", {}).setdefault(name, []).append(m["value"])
            side.setdefault("units", {})[name] = m["unit"]
        for seed, pair in r.get("digests", {}).items():
            digests.setdefault(r["workload"], {})[seed] = pair

    for entry in workloads.values():
        for side in entry.values():
            summary = {}
            for name, values in side.pop("values", {}).items():
                q = (statistics.quantiles(values, n=4) if len(values) > 1
                     else [values[0]] * 3)
                summary[name] = {"median": statistics.median(values), "q1": q[0],
                                 "q3": q[2], "unit": side["units"][name],
                                 "runs": len(values)}
            side.pop("units", None)
            side["metrics"] = summary

    baseline = {
        "commit": argv[0],
        "notes": old.get("notes", []),
        "environment": results[-1]["environment"],
        "workloads": workloads,
        "digests": {w: dict(sorted(d.items(), key=lambda kv: int(kv[0])))
                    for w, d in digests.items()},
    }
    path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path} from {len(results)} result files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
