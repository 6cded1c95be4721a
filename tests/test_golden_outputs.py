"""Golden outputs: exported run files must stay byte-identical across refactors.

The digests are the SHA-256 of ``metrics.csv`` and ``trajectory.csv`` written
by :func:`export_results` for seeds 0-9 of the two benchmark workloads, the
benchmark's stream seeds. Seed 0 was recorded from the allocating learner and
list-backed pool that preceded the in-place refit loop, seeds 1 and 2 from the
mean-gradient descent that preceded the augmented-design loop, and seeds 3-9
from the augmented-design loop that preceded the sign-folded one. All twenty
equal the digests of the same seeds in ``perfbench/baseline.json``. Seed 0
of four more rosters, recorded from the array-expression solver and the
one-row batch prediction that preceded the scalar pass step, pins the
paths those workloads miss: the one-expert solver without a window (``rs``,
``us`` on the scenario problem, ``ral1`` on the toy problem) and a
four-expert roster (``ensemble4``). Seeds 0 and 1 of ``ensemble6`` with
short windows (``ld1_window = 3``, ``ld2_window = 40``, ``spf1_window = 2``)
on the scenario problem, recorded from the window that shifted its matrix on
every eviction, pin a 41-member window through many compactions and the
one- and two-member blocks of the short agents. Two more digests pin the
grid CSV of ``streamacq verify-theory`` on a small grid and on its default
grid (10,000 draws at each of 8 points), both recorded from the kernel that
built one window per draw; the default run's printed separation constants,
recorded from the bisection that preceded the closed-form root, are pinned
next to them. A
change that moves any exported number, even in its last bit, fails here.
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
    ("ensemble2", TOY, 3): (
        "b0b4194e5ec1d1fe3633634b8bfadbd9f97056d4a9c8e02b8b901179c164d620",
        "e110a71ba530fff0fddbfd4b69efa83d18f79b4d3352e9830dc1a3d09ddc6524",
    ),
    ("ensemble2", TOY, 4): (
        "11c26ed4c7322bdc7a4a74116afdb7f0e038e1f95608c89d925e85a9c98d7920",
        "b44f63686f697f9c42840a17d85e98815a92754a9f4c11b568a97e49dd353710",
    ),
    ("ensemble2", TOY, 5): (
        "9754ffa4a31a93175c0afb4d37904bba5486ac3fcaeb47ba9f83fa8e0dc3436e",
        "478e9fab5b23dc4c9f0954e0a13c074642d089990c11774cd64c30f17e72acc1",
    ),
    ("ensemble2", TOY, 6): (
        "fb8fb8e58aa898205520582542be5b85d2e77a0f7c5c1fb8209a3d89e36fec77",
        "e5ffa3255e1542d68d8ceb4457b675af5e32a7172c7a2821e6171537df3354c0",
    ),
    ("ensemble2", TOY, 7): (
        "bbefb2de610a9c07aa74041f3e71c0cfae9c3a53a2bef83fd0baf5c3311f20a1",
        "ac85849482a3d62ad6317c8ecf9a68618bf5aeedce0415d2ba0ce3d3012745df",
    ),
    ("ensemble2", TOY, 8): (
        "322afa3bc6e63a955617506daaf550367e2f7f56679f4ee823a17edda8253e6c",
        "6305a470c18db9a7760bab18cb8c8108a3880eb0427f385b5c519ae8423edd7e",
    ),
    ("ensemble2", TOY, 9): (
        "77222dae8aea3d14e07b5975314a87be8bd531a32fcc560f82441056687cc8d0",
        "2fccd04e47b31391c5a3e78486593f79401260cdd09908addb7961d1e7e21ee1",
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
    ("ensemble6", SCENARIO, 3): (
        "0d9820e69589ec6e718169bdf097ab028da9cf7d6bd50d1eb31cb1633b3a110a",
        "24d07a35a845c70281f0d8a607fb03171a1c236cbfcb97c50f1d2841d0d358ed",
    ),
    ("ensemble6", SCENARIO, 4): (
        "f06c069d6c86d7934088947d2dde5927e49a4eece5abf3bc2da8fbc6664daa44",
        "b8d86e15fff29c31cab9d60a0503d22fe6c964ffca5b054f28d32c0ad1101e8d",
    ),
    ("ensemble6", SCENARIO, 5): (
        "26f76843cfb52474a0fcd69c1b39191447d32af75e1d6627b1afea17ca50fcee",
        "12ad438a8b6c361fc1b350e00f5121b9135609c221be374094f81f1a2e294876",
    ),
    ("ensemble6", SCENARIO, 6): (
        "2da87b7e6891ab99cb9b4e04e1a5d2083df12705329b41c6a4da2767e83b73e9",
        "56e896f3efa2312d1f25c5e3fafb94f709f773f254e0d1982270b53573b17099",
    ),
    ("ensemble6", SCENARIO, 7): (
        "0b26364780beba1a00cd9b9f31d97a397a65b8def5f6c6a52d62cce33ac86586",
        "37aac145e44f2e7399d4df7777d6817f358a29d2892e5768c71be5025e699536",
    ),
    ("ensemble6", SCENARIO, 8): (
        "241b2cc926c55b164920b07b51ecb73ccf5ccc07f5107305047c8daa0c695bc8",
        "f491d37558a3b556d03be8659f3aefff52ebd7bff9dcf8efb2185191fd8a0511",
    ),
    ("ensemble6", SCENARIO, 9): (
        "6010f4cf565562ce0f3eb639b104f66113012a6086eb8a3a0062f671577c9a83",
        "f66bbbe58af2e4cf054e7a356a6f7a6cf87d180fec6ace5ccc2304cf78a33a45",
    ),
}
ROSTERS = {
    ("rs", SCENARIO, 0): (
        "db9d64b44f6a08ad194fb43d5990e4acb8493ee45e309ff6a296e8953a692567",
        "41ed61ef6206f591ad3836c46e6d41946731cece6822b32e2310df22d69e8728",
    ),
    ("us", SCENARIO, 0): (
        "ec498ebfad20233da86c5763a6abd0436dfebd5b747ffda80bf70fedefe18da8",
        "41ed61ef6206f591ad3836c46e6d41946731cece6822b32e2310df22d69e8728",
    ),
    ("ensemble4", SCENARIO, 0): (
        "579a14ba108a09784d5e8b8d6683ce211587c0c6c464d0dcf62b0a11dc35c4a9",
        "e2ea9870d988c5577209ed6ecd725fb19f81d02124cd70b37fdbf2fd278d2730",
    ),
    ("ral1", TOY, 0): (
        "32d549d13e3d978e56f34013b2366d7ce82fc62dfdefd2d21cae65ebb8fc423c",
        "ccdbb40f7ec83cb158485e6b6de94007b1ec021d7f21deec9ca9d7789d0d6853",
    ),
}
SMALL_WINDOWS = dict(ld1_window=3, ld2_window=40, spf1_window=2)
SMALL_WINDOW_SEEDS = {
    0: (
        "18722fbd457184b2f1afb44478f22c1f799d592572848d14344c5b672b2d9bbc",
        "f3e5ef0809d03b010e4fc74879e903594153d24551ac7c270860afe1b5d3cedc",
    ),
    1: (
        "4600e4a70c9b4e78d0dc120f6cf2f6e7351b6f6176653cdd76905c10b56053c4",
        "1589a14d3daec38a30664fee19fa3579e20d4e75a64ece7a8f544a0d118e16af",
    ),
}
THEORY_GRID = "08750729dbc7db81551265f295a51d380746ef267ddfb2c2a2d9474a6af212ec"
DEFAULT_THEORY_GRID = "05cb0cda4c9f8d6fae58010b8c5142c477fb7c3bbd41458ad26390aadaaf1afa"
DEFAULT_THEORY_M2_LINE = "m1=53.1013 m2=3.2347 expected_acquisition_at_m2=2.0344"
SEED_ZERO = [key for key in GOLDEN if key[2] == 0]
LATER_SEEDS = [key for key in GOLDEN if key[2] != 0]


def export_digests(tmp_path, strategy, generator, seed, **settings):
    config = ExperimentConfig(strategy=strategy, generator=generator, budget_fraction=0.10,
                              **settings)
    paths = export_results(run_experiment(config, seed), str(tmp_path))
    return tuple(hashlib.sha256(Path(paths[name]).read_bytes()).hexdigest()
                 for name in ("metrics", "trajectory"))


@pytest.mark.parametrize("strategy, generator, seed", SEED_ZERO, ids=["toy", "scenario"])
def test_seed_zero_exports_match_the_recorded_digests(tmp_path, strategy, generator, seed):
    assert export_digests(tmp_path, strategy, generator, seed) == GOLDEN[(strategy, generator, seed)]


@pytest.mark.parametrize("strategy, generator, seed", LATER_SEEDS,
                         ids=[f"{'toy' if strategy == 'ensemble2' else 'scenario'}-{seed}"
                              for strategy, _, seed in LATER_SEEDS])
def test_later_seed_exports_match_the_recorded_digests(tmp_path, strategy, generator, seed):
    assert export_digests(tmp_path, strategy, generator, seed) == GOLDEN[(strategy, generator, seed)]


@pytest.mark.parametrize("strategy, generator, seed", ROSTERS,
                         ids=["rs-scenario", "us-scenario", "ensemble4-scenario", "ral1-toy"])
def test_other_roster_exports_match_the_recorded_digests(tmp_path, strategy, generator, seed):
    assert export_digests(tmp_path, strategy, generator, seed) == ROSTERS[(strategy, generator, seed)]


@pytest.mark.parametrize("seed", SMALL_WINDOW_SEEDS)
def test_short_window_exports_match_the_recorded_digests(tmp_path, seed):
    assert (export_digests(tmp_path, "ensemble6", SCENARIO, seed, **SMALL_WINDOWS)
            == SMALL_WINDOW_SEEDS[seed])


def test_theory_grid_csv_matches_the_recorded_digest(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["verify-theory", "--out", str(out), "--draws", "1000",
                 "--grid-points", "3"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == THEORY_GRID


def test_default_theory_grid_csv_matches_the_recorded_digest(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(["verify-theory", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_THEORY_GRID
    # the CSV holds the grid only; the separation constants are printed
    assert DEFAULT_THEORY_M2_LINE in capsys.readouterr().out.splitlines()
