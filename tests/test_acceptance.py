"""Acceptance gate: the headline behaviors this package promises.

Each test prints one ``[PASS]``/``[FAIL]`` line (run with ``pytest -s`` to see
them as they happen) and then asserts, so a red line always names its
criterion and the measured numbers.
"""

import json
import time

import numpy as np
import pytest

from streamacq.agents import CertaintyThresholdAgent, local_sparsity
from streamacq.core import SlidingWindow
from streamacq.datagen import GeneratorConfig
from streamacq.ensemble import SolverConfig, WeightedEnsemble
from streamacq.harness import ExperimentConfig, export_results, run_experiment
from streamacq.learner import LearnerConfig, loss_gradient, loss_value
from streamacq.theory import (
    TheoryParams,
    expected_ld_acquisition,
    mc_ld_acquisition,
    solve_m2,
)

N_SEEDS = 10


def report(criterion: int, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    return line


class StubGenerator:
    """Deterministic stand-in for an rng: always draws the same uniform."""

    def __init__(self, value: float):
        self.value = float(value)

    def random(self) -> float:
        return self.value


def replicate(strategy: str, generator: GeneratorConfig):
    config = ExperimentConfig(strategy=strategy, generator=generator)
    return [run_experiment(config, seed) for seed in range(N_SEEDS)]


@pytest.fixture(scope="session")
def toy_runs():
    """Ten seeded runs of the two-expert ensemble and its exploitation agent
    on the small two-feature problem (budget 48 of 480)."""
    generator = GeneratorConfig(n=500, p=2, positive_share=0.10,
                                flip_share=0.0, noise_share=0.0)
    started = time.perf_counter()
    runs = {name: replicate(name, generator) for name in ("ensemble2", "ral1")}
    return runs, time.perf_counter() - started


@pytest.fixture(scope="session")
def scenario_runs():
    """Ten seeded runs of the six-expert ensemble and the random baseline on
    the fifteen-feature problem with 30% noise features (budget 98 of 980)."""
    generator = GeneratorConfig(n=1000, p=15, positive_share=0.10,
                                flip_share=0.0, noise_share=0.30)
    started = time.perf_counter()
    runs = {name: replicate(name, generator) for name in ("ensemble6", "rs")}
    return runs, time.perf_counter() - started


def test_criterion_1_toy_ensemble_beats_exploitation_alone(toy_runs):
    runs, elapsed = toy_runs
    ens_mean = float(np.mean([r.final_accuracy for r in runs["ensemble2"]]))
    ral_mean = float(np.mean([r.final_accuracy for r in runs["ral1"]]))
    margin_ok = ens_mean - ral_mean >= 0.03
    band_ok = 0.80 <= ens_mean <= 0.95
    time_ok = elapsed <= 120.0
    ok = margin_ok and band_ok and time_ok
    report(1, ok,
           f"ensemble2 mean {ens_mean:.4f} vs ral1 {ral_mean:.4f} "
           f"(margin {ens_mean - ral_mean:+.4f}, need >= +0.03: "
           f"{'ok' if margin_ok else 'FAIL'}); "
           f"band [0.80, 0.95]: {'ok' if band_ok else 'FAIL'}; "
           f"runtime {elapsed:.1f}s <= 120s: {'ok' if time_ok else 'FAIL'}")
    assert ok, "two-expert ensemble did not clear the exploitation agent by 3 points"


def test_criterion_2_scenario_ensemble_beats_random_and_initial(scenario_runs):
    runs, elapsed = scenario_runs
    ens_mean = float(np.mean([r.final_accuracy for r in runs["ensemble6"]]))
    rs_mean = float(np.mean([r.final_accuracy for r in runs["rs"]]))
    init_mean = float(np.mean([r.initial_accuracy for r in runs["ensemble6"]]))
    rs_ok = ens_mean - rs_mean >= 0.08
    init_ok = ens_mean - init_mean >= 0.10
    time_ok = elapsed <= 600.0
    ok = rs_ok and init_ok and time_ok
    report(2, ok,
           f"ensemble6 mean {ens_mean:.4f} vs rs {rs_mean:.4f} "
           f"(margin {ens_mean - rs_mean:+.4f}, need >= +0.08: "
           f"{'ok' if rs_ok else 'FAIL'}); vs initial {init_mean:.4f} "
           f"(gain {ens_mean - init_mean:+.4f}, need >= +0.10: "
           f"{'ok' if init_ok else 'FAIL'}); "
           f"runtime {elapsed:.1f}s <= 600s: {'ok' if time_ok else 'FAIL'}")
    assert ok, "six-expert ensemble did not clear the random baseline and initial model"


def test_criterion_3_closed_form_acquisition_rate():
    started = time.perf_counter()
    base = TheoryParams(draws=10_000, seed=17)
    grid = np.linspace(0.0, 30.0, 8)
    worst_gap = -np.inf
    agree = True
    closed_values = []
    for dist_sq in grid:
        params = TheoryParams(draws=10_000, seed=17,
                              center_dist_sq=float(dist_sq))
        closed = expected_ld_acquisition(params)
        estimate = mc_ld_acquisition(params)
        gap = abs(closed - estimate.mean) - (3.0 * estimate.se + 0.05)
        worst_gap = max(worst_gap, gap)
        agree &= gap <= 0.0
        closed_values.append(closed)
    monotone = bool(np.all(np.diff(closed_values) >= -1e-3))
    m1, m2 = solve_m2(base)
    at_m2 = expected_ld_acquisition(
        TheoryParams(draws=10_000, seed=17, center_dist_sq=m2))
    separation_ok = np.isfinite(m2) and at_m2 >= 0.9
    elapsed = time.perf_counter() - started
    time_ok = elapsed <= 60.0
    ok = agree and monotone and separation_ok and time_ok
    report(3, ok,
           f"closed form vs MC on 8-point grid, worst slack {-worst_gap:+.4f} "
           f"(>= 0 means within 3se+0.05: {'ok' if agree else 'FAIL'}); "
           f"monotone: {'ok' if monotone else 'FAIL'}; "
           f"m2={m2:.4f} expectation {at_m2:.4f} >= 0.9: "
           f"{'ok' if separation_ok else 'FAIL'}; "
           f"runtime {elapsed:.1f}s <= 60s: {'ok' if time_ok else 'FAIL'}")
    assert ok, "closed-form acquisition rate failed its Monte Carlo check"


def test_criterion_4_exchangeable_sources_have_unit_sparsity():
    rng = np.random.default_rng(0)
    capacity, dim, draws = 20, 5, 10_000
    scores = np.empty(draws)
    for i in range(draws):
        window = SlidingWindow.from_points(rng.normal(size=(capacity, dim)),
                                           capacity + 1)
        window.push(rng.normal(size=dim))
        scores[i] = local_sparsity(window)
    mean = float(scores.mean())
    se = float(scores.std(ddof=1) / np.sqrt(draws))
    ok = abs(mean - 1.0) <= 3.0 * se
    report(4, ok,
           f"E[lsf] = {mean:.4f} +- {se:.4f} from {draws} draws "
           f"(|{mean - 1.0:+.4f}| <= 3se = {3 * se:.4f})")
    assert ok, "identical source distributions should give E[lsf] = 1"


def test_criterion_5_invariant_suite(toy_runs, scenario_runs, tmp_path):
    checks = {}
    rng = np.random.default_rng(7)

    probs_ok = True
    for _ in range(200):
        n = int(rng.integers(1, 7))
        ensemble = WeightedEnsemble(SolverConfig(), n)
        ensemble.weights = np.array([rng.uniform(0.01, 10.0) for _ in range(n)])
        floor = ensemble.p_min
        probs = ensemble.decide(rng.random(n), StubGenerator(0.0)).probs
        probs_ok &= bool(np.all(probs >= floor - 1e-12))
        probs_ok &= bool(np.all(probs <= 1.0 - floor + 1e-12))
        probs_ok &= abs(float(probs.sum()) - 1.0) <= 1e-9
    checks["decision probabilities"] = probs_ok

    ensemble = WeightedEnsemble(SolverConfig(), 4)
    positive_ok = True
    reflection_ok = True
    flips_seen = 0
    for _ in range(10_000):
        votes = rng.random(4)
        decision = ensemble.decide(votes, rng)
        ensemble.update_weights(decision, float(rng.random()))
        flipped = ensemble.ewma_step()
        positive_ok &= bool(np.all(ensemble.weights > 0))
        if flipped:
            flips_seen += 1
            total = float(ensemble.standardized_weights().sum())
            reflection_ok &= abs(total - 1.0) <= 1e-12
    checks["weights positive over 10000 steps"] = positive_ok
    checks["reflection preserves weight sum"] = reflection_ok and flips_seen > 0

    toy, _ = toy_runs
    scenario, _ = scenario_runs
    budget_ok = True
    for runs, budget in ((toy, 48), (scenario, 98)):
        for metrics_list in runs.values():
            for metrics in metrics_list:
                budget_ok &= metrics.acquired <= budget
                budget_ok &= all(r.budget_used <= budget
                                 for r in metrics.records)
    checks["acquisitions within budget"] = budget_ok

    agent = CertaintyThresholdAgent(0.95, 0.01, penalty=-0.5)
    theta_ok = True
    for _ in range(10_000):
        agent.reinforce(1.0 if rng.random() < 0.5 else -0.5)
        theta_ok &= 1e-6 <= agent.threshold <= 1.0
    checks["certainty threshold stays in range"] = theta_ok

    config = ExperimentConfig(strategy="ensemble2",
                              generator=GeneratorConfig(n=300, p=4))
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        export_results(run_experiment(config, 0), str(out))
        outputs.append(out)
    byte_ok = all(
        (outputs[0] / f).read_bytes() == (outputs[1] / f).read_bytes()
        for f in ("metrics.csv", "trajectory.csv"))
    summaries = []
    for out in outputs:
        parsed = json.loads((out / "summary.json").read_text())
        parsed.pop("mean_step_seconds")
        summaries.append(parsed)
    byte_ok &= summaries[0] == summaries[1]
    checks["identical config and seed reproduce outputs"] = byte_ok

    ok = all(checks.values())
    detail = "; ".join(f"{name}: {'ok' if passed else 'FAIL'}"
                       for name, passed in checks.items())
    report(5, ok, detail)
    assert ok, "invariant suite failed"


def test_criterion_6_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    cases = [("none", 0.0)] * 8 + [("l2", 0.5)] * 6 + [("l1", 0.3)] * 6
    worst = 0.0
    for penalty, strength in cases:
        n = int(rng.integers(5, 51))
        p = int(rng.integers(1, 6))
        X = rng.normal(size=(n, p))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        w = rng.normal(size=p)
        if penalty == "l1":
            w = np.sign(w) * (np.abs(w) + 1e-2)
        b = float(rng.normal())
        config = LearnerConfig(penalty=penalty, strength=strength)
        gw, gb = loss_gradient(w, b, X, y, config)
        h = 1e-6
        fw = np.empty_like(w)
        for j in range(p):
            up, dn = w.copy(), w.copy()
            up[j] += h
            dn[j] -= h
            fw[j] = (loss_value(up, b, X, y, config)
                     - loss_value(dn, b, X, y, config)) / (2 * h)
        fb = (loss_value(w, b + h, X, y, config)
              - loss_value(w, b - h, X, y, config)) / (2 * h)
        scale = max(1.0, float(np.abs(fw).max()), abs(fb))
        worst = max(worst, float(np.abs(gw - fw).max()) / scale,
                    abs(gb - fb) / scale)
    ok = worst < 1e-5
    report(6, ok, f"worst relative gradient error {worst:.2e} < 1e-5 "
                  f"over {len(cases)} random instances")
    assert ok, "analytic gradient disagrees with finite differences"


def test_criterion_7_monitoring_flips_a_dominating_expert():
    def crafted_run(monitor: bool, steps: int = 300):
        ensemble = WeightedEnsemble(SolverConfig(monitor=monitor), 2)
        stub = StubGenerator(0.0)  # uniform draw 0 always lands on acquire
        votes = [1.0, 0.0]
        favored = []
        for _ in range(steps):
            decision = ensemble.decide(votes, stub)
            assert decision.acquired
            ensemble.update_weights(decision, 1.0)
            ensemble.ewma_step()
            favored.append(float(ensemble.standardized_weights()[0]))
        return ensemble.flips, np.asarray(favored)

    flips_on, _ = crafted_run(monitor=True)
    flips_off, favored = crafted_run(monitor=False)
    monotone = bool(np.all(np.diff(favored) >= -1e-12))
    ok = flips_on >= 1 and flips_off == 0 and monotone
    report(7, ok,
           f"monitoring on: {flips_on} flips within 300 steps (need >= 1); "
           f"monitoring off: {flips_off} flips (need 0), favored expert "
           f"share nondecreasing: {'ok' if monotone else 'FAIL'}")
    assert ok, "weight monitoring did not behave as designed"


def test_criterion_8_per_step_wall_time(scenario_runs):
    runs, _ = scenario_runs
    mean_step = float(np.mean([r.mean_step_seconds for r in runs["ensemble6"]]))
    ok = mean_step <= 0.5
    report(8, ok, f"mean step time {mean_step * 1000:.2f} ms <= 500 ms "
                  f"(six-expert ensemble, 15 features, refit included)")
    assert ok, "per-step wall time exceeded half a second"
