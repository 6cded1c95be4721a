"""One SHA-256 over the exported run files of 280 seeded runs.

Run from the repository root:

    PYTHONPATH=src python tests/digest_sweep.py

It writes ``metrics.csv`` and ``trajectory.csv`` with ``export_results`` for
stream seeds 0-99 of ``ensemble2`` on the toy problem and of ``ensemble6`` on
the scenario problem, and for seeds 0-9 of ``rs``, ``ral1``, ``us`` and
``ld1`` on both, and prints one digest over every file's bytes in that order.
A change that means to leave every output as it was prints the same digest
as its parent. The golden digests in ``test_golden_outputs.py`` pin 30 of
these runs; this sweep covers more seeds and rosters than a test run can
afford. pytest does not collect this file.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from streamacq.harness import ExperimentConfig, export_results, run_experiment
from shared_runs import SCENARIO, TOY

WORKLOADS = {"toy": (TOY, "ensemble2"), "scenario": (SCENARIO, "ensemble6")}
SINGLE_AGENTS = ("rs", "ral1", "us", "ld1")


def runs():
    """(workload, strategy, seed) of every run, in digest order."""
    for workload, (_, ensemble) in WORKLOADS.items():
        yield from ((workload, ensemble, seed) for seed in range(100))
    for workload in WORKLOADS:
        for strategy in SINGLE_AGENTS:
            yield from ((workload, strategy, seed) for seed in range(10))


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as out:
        for workload, strategy, seed in runs():
            config = ExperimentConfig(strategy=strategy, generator=WORKLOADS[workload][0],
                                      budget_fraction=0.10)
            paths = export_results(run_experiment(config, seed), out)
            for name in ("metrics", "trajectory"):
                digest.update(Path(paths[name]).read_bytes())
            count += 1
            print(f"\r{count} runs", end="", file=sys.stderr, flush=True)
    print(file=sys.stderr)
    print(f"{digest.hexdigest()}  {count} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
