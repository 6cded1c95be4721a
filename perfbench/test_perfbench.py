"""Tests for the benchmark's own code: spans, percentiles, names, wrappers."""

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import perf_trace  # noqa: E402
import perf_workloads as pw  # noqa: E402
from perf_trace import (  # noqa: E402
    Tracer, leftover_wrappers, percentile, required_samples, tail_mean, traced)
from streamacq.datagen import GeneratorConfig  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

# a stream short enough to run twenty times in a test (180 samples, budget 18)
# that still pushes its window often enough for a p99
TINY = pw.StreamWorkload("tiny", "ensemble2", GeneratorConfig(n=200, p=2))


def test_self_time_subtracts_nested_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    step = tracer.open("harness.step", new_step=True)  # 0
    fit = tracer.open("learner.fit")  # 1
    predict = tracer.open("learner.predict")  # 3
    tracer.close(predict)  # 4
    tracer.close(fit)  # 6
    tracer.close(step)  # 10
    assert tracer.self_seconds("learner.predict") == 1.0
    assert tracer.self_seconds("learner.fit") == 4.0
    assert tracer.self_seconds("harness.step") == 5.0
    assert tracer.parents == [-1, step, fit]
    assert tracer.step_ids == [0, 0, 0]
    assert tracer.root_seconds() == 10.0


def test_reentry_into_a_layer_is_one_call():
    tracer = Tracer()
    outer = tracer.open("agents.propose")
    inner = tracer.open("agents.propose")
    tracer.close(inner)
    tracer.close(outer)
    other = tracer.open("agents.propose")
    tracer.close(other)
    assert tracer.entries("agents.propose") == [outer, other]


def test_spans_must_close_in_order():
    tracer = Tracer()
    outer = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert required_samples(95) == 200
    assert required_samples(99) == 1000
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99)
    with pytest.raises(ValueError):
        percentile(list(range(199)), 95)
    with pytest.raises(ValueError):
        percentile([], 50)
    assert percentile(list(range(1000)), 99) == pytest.approx(989.01)
    assert percentile(list(range(200)), 95) == pytest.approx(189.05)
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0  # a median has no tail


def test_tail_mean_averages_the_slowest_share():
    values = list(range(1, 1001))
    assert tail_mean(values, 1) == pytest.approx(995.5)  # mean of 991..1000
    with pytest.raises(ValueError):
        tail_mean(values[:999], 1)
    assert tail_mean(list(range(200)), 5) == pytest.approx(194.5)


def test_fastest_keeps_each_steps_fastest_repeat():
    def run(setup_s, initial_s, step_ms, acquired):
        acquire_ms = [ms for ms, a in zip(step_ms, acquired) if a]
        pass_ms = [ms for ms, a in zip(step_ms, acquired) if not a]
        return pw.StreamRun(
            seed=0, setup_s=setup_s, run_s=initial_s + sum(step_ms) / 1e3,
            initial_s=initial_s, step_ms=step_ms, pass_ms=pass_ms,
            acquire_ms=acquire_ms, final_accuracy=0.5, digests=("a", "b"),
            problems=[], active_steps=3, acquired=1, budget_exhausted_at=3)

    acquired = [False, True, False]
    first = run(0.02, 0.5, [1.0, 30.0, 2.0], acquired)
    second = run(0.01, 0.7, [3.0, 10.0, 1.0], acquired)
    setup_s, run_s, pass_ms, acquire_ms = pw._fastest([first, second])
    assert setup_s == 0.01
    assert run_s == pytest.approx(0.5 + (1.0 + 10.0 + 1.0) / 1e3)
    assert pass_ms == [1.0, 1.0]
    assert acquire_ms == [10.0]


def test_benchmark_names_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert {w["name"] for w in spec["workloads"]} <= set(pw.STREAM_WORKLOADS)


@pytest.fixture(scope="module")
def tiny_trace(tmp_path_factory):
    before = {(owner, attr): vars(owner)[attr]
              for owner, attr, _ in sum(perf_trace._targets(), [])}
    result, tracer = pw.trace_stream(TINY, 0, str(tmp_path_factory.mktemp("out")), {})
    return before, result, tracer


def test_traced_run_reports_every_per_layer_metric_with_its_count(tiny_trace):
    _, result, tracer = tiny_trace
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result.metrics) == {m["name"] for m in spec["per_layer"]}
    for name, (value, unit, n) in result.metrics.items():
        assert NAME.fullmatch(name) and NAME.fullmatch(unit)
        assert isinstance(n, int) and n >= 1
    assert result.correct, result.problems
    assert result.attempted == 2 * pw.SEEDS_PER_RUN + 1  # plus the CLI cross-check
    assert len(tracer) > 0


def test_wrappers_are_removed_after_a_traced_run(tiny_trace):
    before, _, _ = tiny_trace
    assert leftover_wrappers() == []
    assert all(vars(owner)[attr] is raw for (owner, attr), raw in before.items())


def test_wrappers_are_removed_when_the_traced_block_raises():
    with pytest.raises(KeyError):
        with traced(Tracer()):
            assert leftover_wrappers()
            raise KeyError("boom")
    assert leftover_wrappers() == []


def test_records_invariants_catch_a_bad_run():
    from streamacq.harness import StepRecord

    def rec(t, action, used, acc=None):
        return StepRecord(t=t, action=action, reward=0.0, budget_used=used,
                          accuracy=acc, weights=(1.0,), flipped=False)

    good = [rec(1, 1, 1), rec(2, 0, 1, 0.5), rec(3, 1, 2, 1.0)]
    assert pw.check_records(good, budget=2, acquired=2) == []
    bad = [rec(1, 1, 3), rec(2, 0, 2, 1.5)]
    problems = pw.check_records(bad, budget=2, acquired=2)
    assert len(problems) == 4
