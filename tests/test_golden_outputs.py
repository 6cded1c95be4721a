"""Golden outputs: exported run files must stay byte-identical across refactors.

The digests are the SHA-256 of ``metrics.csv`` and ``trajectory.csv`` written
by :func:`export_results` for seed 0 of the two benchmark workloads, recorded
from the allocating learner and list-backed pool that preceded the in-place
refit loop. They equal the seed-0 digests in ``perfbench/baseline.json``. A
change that moves any exported number, even in its last bit, fails here.
"""

import hashlib
from pathlib import Path

import pytest

from streamacq.datagen import GeneratorConfig
from streamacq.harness import ExperimentConfig, export_results, run_experiment

TOY = GeneratorConfig(n=500, p=2, positive_share=0.10, flip_share=0.0, noise_share=0.0)
SCENARIO = GeneratorConfig(n=1000, p=15, positive_share=0.10, flip_share=0.0,
                           noise_share=0.30)

GOLDEN = {
    ("ensemble2", TOY): (
        "de62ef552654225ceb3e114aeaff42d3548ce834a7fd089456a6441813a66d2e",
        "9effbbed4c0e10b2b0af3c084e58cd4ce01a15f3e0160196244036889393f173",
    ),
    ("ensemble6", SCENARIO): (
        "0b4a7ad317b5c48a61a1bba4beff4bbfecdfaff59581123097b1b060c2e27db0",
        "0d7403237c7cdb478378d9491077268475c59cd6942f7b25792392c8c6b0d8f9",
    ),
}


@pytest.mark.parametrize("strategy, generator", list(GOLDEN), ids=["toy", "scenario"])
def test_seed_zero_exports_match_the_recorded_digests(tmp_path, strategy, generator):
    config = ExperimentConfig(strategy=strategy, generator=generator, budget_fraction=0.10)
    paths = export_results(run_experiment(config, 0), str(tmp_path))
    digests = tuple(hashlib.sha256(Path(paths[name]).read_bytes()).hexdigest()
                    for name in ("metrics", "trajectory"))
    assert digests == GOLDEN[(strategy, generator)]
