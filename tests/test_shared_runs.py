"""The session's shared runs: one run per key, and the same bits as a fresh run."""

import hashlib
from pathlib import Path

import pytest
import shared_runs
from shared_runs import TOY, paired, run

from streamacq.datagen import GeneratorConfig
from streamacq.harness import ExperimentConfig, export_results, run_experiment

SMALL = GeneratorConfig(n=300, p=4)


@pytest.fixture
def counted(monkeypatch):
    """An empty run cache whose runs are recorded, not made."""
    calls = []
    monkeypatch.setattr(shared_runs, "_RUNS", {})
    monkeypatch.setattr(shared_runs, "run_experiment",
                        lambda config, seed: calls.append((config, seed)) or object())
    return calls


def test_a_repeated_key_runs_once(counted):
    first = run("rs", SMALL, 3)
    assert run("rs", SMALL, 3) is first
    # a setting spelled out at its default is the same config
    assert run("rs", SMALL, 3, budget_fraction=0.10) is first
    assert counted == [(ExperimentConfig(strategy="rs", generator=SMALL), 3)]


def test_a_settings_override_gets_its_own_entry(counted):
    plain = run("rs", SMALL, 3)
    short = run("rs", SMALL, 3, eval_every=5)
    other_seed = run("rs", SMALL, 4)
    assert len({id(plain), id(short), id(other_seed)}) == 3
    assert [(config.eval_every, seed) for config, seed in counted] == [(25, 3), (5, 3), (25, 4)]
    assert len(shared_runs._RUNS) == 3


def export_digests(metrics, out):
    paths = export_results(metrics, str(out))
    return [hashlib.sha256(Path(paths[name]).read_bytes()).hexdigest()
            for name in ("metrics", "trajectory")]


def test_a_cached_run_exports_the_bits_of_a_fresh_run(tmp_path):
    cached = run("ensemble2", TOY, 0)
    fresh = run_experiment(ExperimentConfig(strategy="ensemble2", generator=TOY), 0)
    assert cached.seconds > 0.0
    assert (export_digests(cached.metrics, tmp_path / "cached")
            == export_digests(fresh, tmp_path / "fresh"))


def test_paired_reads_the_differences_seed_by_seed():
    first = [0.75] * 10
    second = [0.5, 0.75, 1.0, 0.5, 0.75, 0.25, 0.75, 0.5, 0.5, 0.5]
    # differences 0.25 x5, 0 x3, -0.25, 0.5: mean 0.15, squared deviations
    # summing to 0.4, SE sqrt(0.4 / 9 / 10) = 0.0667, half width 2.262 * SE
    assert paired(first, second) == ("paired diff +0.1500, SE 0.0667, 95% t CI "
                                      "[-0.0008, +0.3008], W/T/L 6/3/1")


def test_paired_needs_ten_seeds():
    with pytest.raises(ValueError, match="10 paired seeds"):
        paired([0.5] * 9, [0.4] * 9)
