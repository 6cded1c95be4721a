"""Golden outputs: exported run files must stay byte-identical across refactors.

The digests are the SHA-256 of ``metrics.csv`` and ``trajectory.csv`` written
by :func:`export_results` for seeds 0-2 of the two benchmark workloads. Seed 0
was recorded from the allocating learner and list-backed pool that preceded
the in-place refit loop, seeds 1 and 2 from the mean-gradient descent that
preceded the augmented-design loop. All six equal the digests of the same
seeds in ``perfbench/baseline.json``. A seventh digest pins the grid CSV of
``streamacq verify-theory`` on a small grid. A change that moves any exported
number, even in its last bit, fails here.
"""

import hashlib
from pathlib import Path

import pytest

from streamacq.cli import main
from streamacq.datagen import GeneratorConfig
from streamacq.harness import ExperimentConfig, export_results, run_experiment

TOY = GeneratorConfig(n=500, p=2, positive_share=0.10, flip_share=0.0, noise_share=0.0)
SCENARIO = GeneratorConfig(n=1000, p=15, positive_share=0.10, flip_share=0.0,
                           noise_share=0.30)

GOLDEN = {
    ("ensemble2", TOY, 0): (
        "de62ef552654225ceb3e114aeaff42d3548ce834a7fd089456a6441813a66d2e",
        "9effbbed4c0e10b2b0af3c084e58cd4ce01a15f3e0160196244036889393f173",
    ),
    ("ensemble2", TOY, 1): (
        "ca06bfd43969fc1de3309c3151f5f6e5a01ccb3de4c8f1c92db9a5fb265bea2d",
        "fc18fefaf1d8f8bbe63359be6cb97a3c880665ff522da1bd2e84dd7f6af35156",
    ),
    ("ensemble2", TOY, 2): (
        "3ca8956be88215213cfa597e16eef6128c6aed3696e6d1af7b78a1308b9dbf4f",
        "4921534d793412a80771fd8c82b63289a244e7cdf41804c6f07a8585d82a233c",
    ),
    ("ensemble6", SCENARIO, 0): (
        "0b4a7ad317b5c48a61a1bba4beff4bbfecdfaff59581123097b1b060c2e27db0",
        "0d7403237c7cdb478378d9491077268475c59cd6942f7b25792392c8c6b0d8f9",
    ),
    ("ensemble6", SCENARIO, 1): (
        "6e6137a8e5bcaf09163b0c7bb98719dd173270b9a1bddf6bf88d75b9076b28f4",
        "653ab9b6fa2690cfa7934f7689cc6fb8ffa5fa3f185002545a443ffa795a1d89",
    ),
    ("ensemble6", SCENARIO, 2): (
        "7760acd6cbc4881d60729c60aca2f00243cce274f3ce752470351b60ddd930b3",
        "6709fc1f47dbffa9c9933f42a47fb3ae9bd40e191643705fb1fd8ed8d5f4986e",
    ),
}
THEORY_GRID = "08750729dbc7db81551265f295a51d380746ef267ddfb2c2a2d9474a6af212ec"
SEED_ZERO = [key for key in GOLDEN if key[2] == 0]
LATER_SEEDS = [key for key in GOLDEN if key[2] != 0]


def export_digests(tmp_path, strategy, generator, seed):
    config = ExperimentConfig(strategy=strategy, generator=generator, budget_fraction=0.10)
    paths = export_results(run_experiment(config, seed), str(tmp_path))
    return tuple(hashlib.sha256(Path(paths[name]).read_bytes()).hexdigest()
                 for name in ("metrics", "trajectory"))


@pytest.mark.parametrize("strategy, generator, seed", SEED_ZERO, ids=["toy", "scenario"])
def test_seed_zero_exports_match_the_recorded_digests(tmp_path, strategy, generator, seed):
    assert export_digests(tmp_path, strategy, generator, seed) == GOLDEN[(strategy, generator, seed)]


@pytest.mark.parametrize("strategy, generator, seed", LATER_SEEDS,
                         ids=["toy-1", "toy-2", "scenario-1", "scenario-2"])
def test_later_seed_exports_match_the_recorded_digests(tmp_path, strategy, generator, seed):
    assert export_digests(tmp_path, strategy, generator, seed) == GOLDEN[(strategy, generator, seed)]


def test_theory_grid_csv_matches_the_recorded_digest(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["verify-theory", "--out", str(out), "--draws", "1000",
                 "--grid-points", "3"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == THEORY_GRID
