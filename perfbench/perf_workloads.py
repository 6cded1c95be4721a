"""Workloads of the streamacq benchmark and the checks on their outputs.

A stream workload drives ``StreamRunner.step`` in a closed loop: one
single-threaded driver hands the runner the next stream sample only after the
previous step returned, as ``streamacq run`` does. Each benchmark seed ``s``
selects the ten stream seeds ``10 s .. 10 s + 9``, so seed 0 runs the
acceptance seeds 0-9. The ``theory`` workload runs the ``verify-theory`` grid.

The package is driven only through its public functions; per-layer timings
come from the wrappers in :mod:`perf_trace`, installed for traced runs only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace

import numpy as np

from streamacq import cli, datagen, harness, theory
from streamacq.datagen import GeneratorConfig
from streamacq.harness import ExperimentConfig, RunMetrics

from perf_trace import Tracer, leftover_wrappers, percentile, tail_mean, traced

SEEDS_PER_RUN = 10
MIN_PASSES = 2  # repeats per seed, so each timing can keep its fastest repeat
SETUP_REPEATS = 3  # set-ups per stream run; set-up takes milliseconds
HARD_CAP_S = 120.0  # start no further pass after this long, whatever --seconds says
WARM_UP_STEPS = 30

THEORY_GRID_MAX = 30.0  # verify-theory defaults
THEORY_GRID_POINTS = 8
THEORY_DRAWS = 10_000


class BenchmarkError(RuntimeError):
    """The benchmark could not take a valid measurement."""


@dataclass(frozen=True)
class StreamWorkload:
    name: str
    strategy: str
    generator: GeneratorConfig
    budget_fraction: float = 0.10

    @property
    def config(self) -> ExperimentConfig:
        return ExperimentConfig(strategy=self.strategy, generator=self.generator,
                                budget_fraction=self.budget_fraction)

    def config_text(self) -> str:
        """The same experiment as a ``streamacq run --config`` file."""
        g = self.generator
        keys = {"strategy": self.strategy, "n": g.n, "p": g.p,
                "positive_share": g.positive_share, "flip_share": g.flip_share,
                "noise_share": g.noise_share, "class_sep": g.class_sep,
                "budget_fraction": self.budget_fraction}
        return "".join(f"{k} = {v}\n" for k, v in keys.items())


TOY = GeneratorConfig(n=500, p=2, positive_share=0.10, flip_share=0.0, noise_share=0.0)
SCENARIO = GeneratorConfig(n=1000, p=15, positive_share=0.10, flip_share=0.0,
                           noise_share=0.30)

# why each was chosen: BENCHMARK.json and README.md
STREAM_WORKLOADS = {w.name: w for w in (
    StreamWorkload("toy", "ensemble2", TOY),  # acceptance criterion 1's ensemble
    StreamWorkload("scenario", "ensemble6", SCENARIO),  # criterion 2's ensemble
    StreamWorkload("refit", "rs", SCENARIO),  # criterion 2's random baseline
)}


def stream_seeds(seed: int) -> list[int]:
    return [SEEDS_PER_RUN * seed + k for k in range(SEEDS_PER_RUN)]


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _digests(out_dir: str) -> tuple[str, str]:
    return (_sha256(os.path.join(out_dir, "metrics.csv")),
            _sha256(os.path.join(out_dir, "trajectory.csv")))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


# -- one stream run -----------------------------------------------------------

@dataclass
class StreamRun:
    seed: int
    setup_s: float
    run_s: float
    initial_s: float  # the test evaluation before the first step
    step_ms: list  # every step, in stream order
    pass_ms: list
    acquire_ms: list
    final_accuracy: float
    digests: tuple
    problems: list
    active_steps: int
    acquired: int
    budget_exhausted_at: int
    stream_spans: tuple = (0, 0)  # tracer index range of the stream phase


def check_records(records, budget: int, acquired: int) -> list[str]:
    """Invariants every run's step records must satisfy."""
    problems = []
    used = [r.budget_used for r in records]
    if any(b > budget for b in used):
        problems.append(f"budget_used exceeds the budget {budget}")
    if any(later < earlier for earlier, later in zip(used, used[1:])):
        problems.append("budget_used decreased")
    acquiring = sum(r.action for r in records)
    if acquiring != acquired:
        problems.append(f"{acquiring} acquiring steps but {acquired} acquired")
    if any(r.accuracy is not None and not 0.0 <= r.accuracy <= 1.0 for r in records):
        problems.append("an accuracy lies outside [0, 1]")
    return problems


def run_stream(workload: StreamWorkload, seed: int, scratch: str,
               tracer: Tracer | None = None) -> StreamRun:
    """Set up and stream one seed, timing each step; export and check the outputs."""
    config = workload.config
    clock = time.perf_counter
    setup_s = []
    for _ in range(SETUP_REPEATS if tracer is None else 1):
        started = clock()
        data = datagen.generate(replace(workload.generator, seed=seed))
        split = datagen.scenario_split(data, seed, config.budget_fraction)
        runner = harness.StreamRunner(config, seed, split)
        ready = clock()
        setup_s.append(ready - started)

    first_span = len(tracer) if tracer is not None else 0
    initial_accuracy = runner.test_accuracy()
    initial_s = clock() - ready
    n_steps = split.stream_labels.shape[0]
    records, step_ms, pass_ms, acquire_ms = [], [], [], []
    exhausted_at = n_steps
    for i in range(n_steps):
        t = i + 1
        evaluate = t % config.eval_every == 0 or t == n_steps
        active = runner.budget_used < split.budget
        before = clock()
        record = runner.step(split.stream_features[i], int(split.stream_labels[i]),
                             evaluate=evaluate)
        took_ms = (clock() - before) * 1e3
        step_ms.append(took_ms)
        if active:
            (acquire_ms if record.action else pass_ms).append(took_ms)
            if record.budget_used >= split.budget:
                exhausted_at = t
        records.append(record)
    finished = clock()
    last_span = len(tracer) if tracer is not None else 0

    metrics = RunMetrics(
        strategy=config.strategy, seed=seed, n_experts=len(runner.agents),
        initial_accuracy=initial_accuracy,
        final_accuracy=float(records[-1].accuracy),
        acquired=runner.budget_used,
        positive_fraction=(runner.acquired_positive / runner.budget_used
                           if runner.budget_used else 0.0),
        cumulative_reward=float(sum(r.reward for r in records)),
        mean_step_seconds=(finished - ready) / n_steps,
        records=records,
    )
    with tempfile.TemporaryDirectory(dir=scratch) as out:
        harness.export_results(metrics, out)
        digests = _digests(out)
    problems = check_records(records, split.budget, metrics.acquired)
    if not 0.0 <= initial_accuracy <= 1.0:
        problems.append("initial accuracy lies outside [0, 1]")
    return StreamRun(
        seed=seed, setup_s=min(setup_s), run_s=finished - ready,
        initial_s=initial_s, step_ms=step_ms, pass_ms=pass_ms, acquire_ms=acquire_ms,
        final_accuracy=metrics.final_accuracy, digests=digests, problems=problems,
        active_steps=len(pass_ms) + len(acquire_ms), acquired=metrics.acquired,
        budget_exhausted_at=exhausted_at, stream_spans=(first_span, last_span),
    )


def cli_digests(workload: StreamWorkload, seed: int, scratch: str) -> tuple[str, str]:
    """Digests of ``streamacq run --config <workload> --seed <seed>``."""
    with tempfile.TemporaryDirectory(dir=scratch) as out:
        config_path = os.path.join(out, "workload.cfg")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(workload.config_text())
        run_dir = os.path.join(out, "run")
        errors = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(errors):
            code = cli.main(["run", "--config", config_path, "--seed", str(seed),
                             "--out", run_dir])
        if code != 0:
            raise RuntimeError(f"streamacq run failed: {errors.getvalue().strip()}")
        return _digests(run_dir)


def _warm_up(workload: StreamWorkload, seed: int) -> None:
    """Fill caches and finish lazy imports before anything is timed."""
    config = workload.config
    data = datagen.generate(replace(workload.generator, seed=seed))
    split = datagen.scenario_split(data, seed, config.budget_fraction)
    runner = harness.StreamRunner(config, seed, split)
    for i in range(WARM_UP_STEPS):
        runner.step(split.stream_features[i], int(split.stream_labels[i]))


# -- results ------------------------------------------------------------------

@dataclass
class Result:
    """What one benchmark run reports; ``metrics`` maps name -> (value, unit, n)."""

    workload: str
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def fail(self, where: str, problems) -> None:
        self.failed += 1
        self.problems.extend(f"{where}: {p}" for p in problems)

    def put(self, name: str, value: float, unit: str, n: int) -> None:
        self.metrics[name] = (float(value), unit, int(n))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _tail(values, q: float) -> float:
    return percentile(values, q) if values else 0.0


def _drift(result: Result, digests: dict, recorded: dict) -> None:
    """Note seeds whose outputs differ from the recorded baseline digests."""
    known = [s for s in digests if str(s) in recorded]
    result.notes["digests_compared"] = len(known)
    result.notes["digest_drift_seeds"] = [
        s for s in known if list(digests[s]) != list(recorded[str(s)])]


def _cross_check_cli(result: Result, workload: StreamWorkload, seed: int,
                     digests: tuple, scratch: str) -> None:
    result.attempted += 1
    try:
        if cli_digests(workload, seed, scratch) != digests:
            result.fail(f"seed {seed}", ["outputs differ from streamacq run"])
    except Exception as exc:  # a crash is a failed run, reported with the rest
        result.fail(f"seed {seed} (streamacq run)", [repr(exc)])


def machine_probe() -> float:
    """Seconds for a fixed mix of small numpy and scalar Python work.

    It shares no code with streamacq, so a change to the program cannot move
    it; it only tracks how fast the machine runs this kind of code right now.
    """
    rng = np.random.default_rng(0)
    X = rng.standard_normal((60, 15))
    y = (X[:, 0] > 0).astype(float)
    rows = list(X)
    started = time.perf_counter()
    w = np.zeros(15)
    for _ in range(300):
        w -= 0.1 * X.T @ (1.0 / (1.0 + np.exp(-(X @ w))) - y) / 60
    for a in rows:
        for b in rows[::3]:
            d = a - b
            math.sqrt(float(d @ d))
    return time.perf_counter() - started


@contextlib.contextmanager
def fastest_cpu():
    """Yield ``pin()``, which moves this process to the CPU that runs the
    probe fastest right now and returns the probe's seconds there.

    Other tenants of a shared machine load its CPUs unevenly, for seconds
    at a time. The benchmark is single-threaded, so before each timed run
    it moves to the least loaded CPU. The original affinity is restored on exit.
    """
    allowed = os.sched_getaffinity(0)

    def pin() -> float:
        timings = {}
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            timings[cpu] = statistics.median(machine_probe() for _ in range(3))
        best = min(timings, key=timings.get)
        os.sched_setaffinity(0, {best})
        return timings[best]

    try:
        yield pin
    finally:
        os.sched_setaffinity(0, allowed)


def _fastest(repeats: list[StreamRun]) -> tuple[float, float, list, list]:
    """Per-seed timings with the box's interference taken out.

    A seed's repeats do identical work, so each timing keeps its fastest
    repeat: set-up per seed, and latency per step. The run time is the
    initial evaluation plus every step, each at its fastest repeat: other
    tenants slow the box in bursts far shorter than a stream, so every
    whole stream catches some of them but most steps escape them once.
    """
    step_ms = np.min([r.step_ms for r in repeats], axis=0)
    pass_ms = np.min([r.pass_ms for r in repeats], axis=0)
    acquire_ms = np.min([r.acquire_ms for r in repeats], axis=0)
    run_s = min(r.initial_s for r in repeats) + step_ms.sum() / 1e3
    return (min(r.setup_s for r in repeats), run_s,
            pass_ms.tolist(), acquire_ms.tolist())


def measure_stream(workload: StreamWorkload, seed: int, seconds: float, scratch: str,
                   recorded: dict) -> Result:
    """Untraced run: stream the seed set in passes, at least ``MIN_PASSES`` of
    them and until ``seconds`` have passed; report per-seed fastest repeats."""
    result = Result(workload.name)
    seeds = stream_seeds(seed)
    repeats: dict[int, list[StreamRun]] = {s: [] for s in seeds}
    probes = []
    passes = 0
    with fastest_cpu() as pin:
        pin()
        _warm_up(workload, seeds[0])
        started = time.perf_counter()
        while True:
            for s in seeds:
                if passes and not repeats[s]:
                    continue  # failed on the first pass; already counted
                result.attempted += 1
                probes.append(pin())
                try:
                    run = run_stream(workload, s, scratch)
                except Exception as exc:  # a crash is a failed run, reported with the rest
                    result.fail(f"seed {s}", [repr(exc)])
                    continue
                if repeats[s] and run.digests != repeats[s][0].digests:
                    result.fail(f"seed {s}", ["a repeated run changed its outputs"])
                    continue
                if run.problems:
                    result.fail(f"seed {s}", run.problems)
                repeats[s].append(run)
            passes += 1
            elapsed = time.perf_counter() - started
            if passes >= MIN_PASSES and (elapsed >= seconds or elapsed > HARD_CAP_S):
                break
    rss = peak_rss_mb()
    repeats = {s: runs for s, runs in repeats.items() if runs}
    if not repeats:
        raise BenchmarkError(f"every run of {workload.name} failed: {result.problems}")

    setup_s, run_s, pass_ms, acquire_ms = [], [], [], []
    for runs in repeats.values():
        setup, run, passed, acquired = _fastest(runs)
        setup_s.append(setup)
        run_s.append(run)
        pass_ms += passed
        acquire_ms += acquired
    n_seeds = len(repeats)
    result.put("run_s", statistics.median(run_s), "s", n_seeds)
    result.put("setup_s", statistics.median(setup_s), "s", n_seeds)
    # Ten seeds give 2000+ pass steps but only 480 (toy) to 980 (scenario)
    # acquisitions. The pass tail is the mean of the slowest 1%: window
    # rebuilds make 1-2% of pass steps ten times slower than the rest, so the
    # p99 sits on the edge of that mode and jumps with its weight. The acquire
    # tail is the p95: the slowest 5% mix a few rebuilds of 30-100 ms into
    # refits of 15-30 ms, so their mean jumps with the number of rebuilds.
    result.put("pass_step_ms.p50", percentile(pass_ms, 50), "ms", len(pass_ms))
    result.put("pass_step_ms.top1pct_mean", tail_mean(pass_ms, 1), "ms", len(pass_ms))
    result.put("acquire_step_ms.p50", percentile(acquire_ms, 50), "ms", len(acquire_ms))
    result.put("acquire_step_ms.p95", percentile(acquire_ms, 95), "ms", len(acquire_ms))
    result.put("final_accuracy", np.mean([runs[0].final_accuracy
                                          for runs in repeats.values()]),
               "fraction", n_seeds)
    result.put("peak_rss_mb", rss, "MB", 1)

    digests = {s: runs[0].digests for s, runs in repeats.items()}
    checked = next(iter(digests))
    _cross_check_cli(result, workload, checked, digests[checked], scratch)
    result.put("failed_share", result.failed / result.attempted, "fraction",
               result.attempted)
    result.notes["stream_seeds"] = seeds
    result.notes["passes"] = passes
    result.notes["probe_ms"] = [p * 1e3 for p in probes]
    result.notes["digests"] = {s: list(d) for s, d in digests.items()}
    _drift(result, digests, recorded)
    return result


def trace_stream(workload: StreamWorkload, seed: int, scratch: str,
                 recorded: dict) -> tuple[Result, Tracer]:
    """Traced run: each seed once untraced, then once with the layer wrappers.

    Per-layer times and counts are means per stream run over the traced runs.
    """
    result = Result(workload.name)
    seeds = stream_seeds(seed)
    tracer = Tracer()
    pairs: list[tuple[StreamRun, StreamRun]] = []
    with fastest_cpu() as pin:
        pin()
        _warm_up(workload, seeds[0])
        for s in seeds:
            try:
                result.attempted += 1
                pin()
                plain = run_stream(workload, s, scratch)
                result.attempted += 1
                pin()
                with traced(tracer):
                    run = run_stream(workload, s, scratch, tracer=tracer)
            except Exception as exc:  # a crash is a failed run, reported with the rest
                result.fail(f"seed {s}", [repr(exc)])
                continue
            leftover = leftover_wrappers()
            if leftover:
                raise BenchmarkError(f"wrappers left installed: {leftover}")
            for label, r in (("untraced", plain), ("traced", run)):
                if r.problems:
                    result.fail(f"seed {s} {label}", r.problems)
            if run.digests != plain.digests:
                result.fail(f"seed {s}", ["traced outputs differ from untraced outputs"])
            pairs.append((plain, run))
    if not pairs:
        raise BenchmarkError(f"every run of {workload.name} failed: {result.problems}")

    k = len(pairs)
    traced_runs = [run for _, run in pairs]

    def calls(name):
        return len(tracer.entries(name)) / k

    def ms(name):
        return tracer.self_seconds(name) * 1e3 / k

    def put_layer(name, value, unit):
        result.put(name, value, unit, k)

    push_us = [d * 1e6 for d in tracer.durations("core.push")]
    fit_ms = [d * 1e3 for d in tracer.durations("learner.fit")]
    chart_steps = len(tracer.entries("ensemble.ewma_step"))
    iterating = tracer.counts["learner.iterating_fits"]
    put_layer("core.push.calls", calls("core.push"), "count")
    put_layer("core.push.ms", ms("core.push"), "ms")
    result.put("core.push.us.p50", _tail(push_us, 50), "us", len(push_us))
    result.put("core.push.us.p99", _tail(push_us, 99), "us", len(push_us))
    put_layer("core.euclidean.calls", tracer.counts["core.euclidean"] / k, "count")
    put_layer("core.pool.ms", ms("core.pool"), "ms")
    put_layer("agents.propose.calls", calls("agents.propose"), "count")
    put_layer("agents.propose.ms", ms("agents.propose"), "ms")
    put_layer("agents.observe.ms", ms("agents.observe"), "ms")
    put_layer("agents.local_sparsity.calls", calls("agents.local_sparsity"), "count")
    put_layer("agents.local_sparsity.ms", ms("agents.local_sparsity"), "ms")
    put_layer("learner.fit.calls", calls("learner.fit"), "count")
    put_layer("learner.fit.ms", ms("learner.fit"), "ms")
    result.put("learner.fit.ms.p50", _tail(fit_ms, 50), "ms", len(fit_ms))
    put_layer("learner.loss_gradient.calls",
              tracer.counts["learner.loss_gradient"] / k, "count")
    result.put("learner.converged_share",
               tracer.counts["learner.converged_fits"] / iterating if iterating else 0.0,
               "fraction", iterating)
    put_layer("learner.predict.calls", calls("learner.predict"), "count")
    put_layer("learner.predict.ms", ms("learner.predict"), "ms")
    put_layer("learner.predict_batch.ms", ms("learner.predict_batch"), "ms")
    put_layer("ensemble.decide.ms", ms("ensemble.decide"), "ms")
    put_layer("ensemble.update_weights.ms", ms("ensemble.update_weights"), "ms")
    put_layer("ensemble.ewma_step.ms", ms("ensemble.ewma_step"), "ms")
    put_layer("ensemble.flips", tracer.counts["ensemble.flips"] / k, "count")
    result.put("ensemble.flip_share",
               tracer.counts["ensemble.flips"] / chart_steps if chart_steps else 0.0,
               "fraction", chart_steps)
    put_layer("datagen.generate.ms", ms("datagen.generate"), "ms")
    put_layer("datagen.scenario_split.ms", ms("datagen.scenario_split"), "ms")
    put_layer("harness.step.self_ms", ms("harness.step"), "ms")
    put_layer("harness.active_steps", np.mean([r.active_steps for r in traced_runs]),
              "count")
    put_layer("harness.acquired", np.mean([r.acquired for r in traced_runs]), "count")
    put_layer("harness.budget_exhausted_at",
              np.mean([r.budget_exhausted_at for r in traced_runs]), "count")
    _trace_accounting(result, tracer, pairs)

    digests = {run.seed: run.digests for run in traced_runs}
    _cross_check_cli(result, workload, traced_runs[0].seed, traced_runs[0].digests,
                     scratch)
    result.notes["stream_seeds"] = seeds
    result.notes["digests"] = {s: list(d) for s, d in digests.items()}
    _drift(result, digests, recorded)
    return result, tracer


def _trace_accounting(result: Result, tracer: Tracer, pairs) -> None:
    """Tracing overhead, and the share of traced run time the spans cover."""
    overhead = [run.run_s - plain.run_s for plain, run in pairs]
    covered = sum(tracer.root_seconds(*run.stream_spans) for _, run in pairs)
    traced_s = sum(run.run_s for _, run in pairs)
    result.put("trace.overhead_s", statistics.median(overhead), "s", len(pairs))
    result.put("trace.coverage_share", covered / traced_s, "fraction", len(pairs))


# -- theory grid --------------------------------------------------------------

def theory_grid(seed: int) -> tuple[float, list[str], int]:
    """One ``verify-theory`` grid; returns (seconds, failed checks, points within tol)."""
    started = time.perf_counter()
    base = theory.TheoryParams(draws=THEORY_DRAWS, seed=seed)
    closed, within = [], 0
    for dist_sq in np.linspace(0.0, THEORY_GRID_MAX, THEORY_GRID_POINTS):
        params = replace(base, center_dist_sq=float(dist_sq))
        value = theory.expected_ld_acquisition(params)
        estimate = theory.mc_ld_acquisition(params)
        within += abs(value - estimate.mean) <= 3.0 * estimate.se + 0.05
        closed.append(value)
    _, m2 = theory.solve_m2(base)
    at_m2 = theory.expected_ld_acquisition(replace(base, center_dist_sq=m2))
    elapsed = time.perf_counter() - started

    problems = []
    if within < THEORY_GRID_POINTS:
        problems.append(f"{THEORY_GRID_POINTS - within} grid points out of tolerance")
    if np.any(np.diff(closed) < -1e-3):
        problems.append("closed form is not nondecreasing along the grid")
    if not (np.isfinite(m2) and at_m2 >= 0.9):
        problems.append(f"acquisition at m2 is {at_m2:.4f}, below 0.9")
    return elapsed, problems, within


def measure_theory(seed: int, seconds: float) -> Result:
    """Untraced run: repeat the grid until ``seconds`` have passed."""
    result = Result("theory")
    times = []
    started = time.perf_counter()
    with fastest_cpu() as pin:
        while not times or time.perf_counter() - started < min(seconds, HARD_CAP_S):
            result.attempted += 1
            pin()
            try:
                elapsed, problems, _ = theory_grid(seed)
            except Exception as exc:  # a crash is a failed run, reported with the rest
                result.fail("grid", [repr(exc)])
                break
            if problems:
                result.fail("grid", problems)
            times.append(elapsed)
    if not times:
        raise BenchmarkError(f"the theory grid failed: {result.problems}")
    result.put("run_s", statistics.median(times), "s", len(times))
    result.put("peak_rss_mb", peak_rss_mb(), "MB", 1)
    result.put("failed_share", result.failed / result.attempted, "fraction",
               result.attempted)
    return result


def trace_theory(seed: int) -> tuple[Result, Tracer]:
    """Traced run: one grid untraced, then one with the layer wrappers."""
    result = Result("theory")
    tracer = Tracer()
    result.attempted += 2
    with fastest_cpu() as pin:
        pin()
        plain_s, plain_problems, _ = theory_grid(seed)
        pin()
        with traced(tracer):
            traced_s, problems, within = theory_grid(seed)
    leftover = leftover_wrappers()
    if leftover:
        raise BenchmarkError(f"wrappers left installed: {leftover}")
    for label, found in (("untraced", plain_problems), ("traced", problems)):
        if found:
            result.fail(f"grid {label}", found)
    for name in ("theory.mc_ld_acquisition", "theory.expected_ld_acquisition",
                 "theory.solve_m2", "core.from_points", "agents.local_sparsity"):
        result.put(f"{name}.ms", tracer.self_seconds(name) * 1e3, "ms", 1)
    for name in ("core.from_points", "agents.local_sparsity"):
        result.put(f"{name}.calls", len(tracer.entries(name)), "count", 1)
    result.put("theory.grid_within_tol", within / THEORY_GRID_POINTS, "fraction",
               THEORY_GRID_POINTS)
    result.put("trace.overhead_s", traced_s - plain_s, "s", 1)
    result.put("trace.coverage_share", tracer.root_seconds() / traced_s, "fraction", 1)
    return result, tracer
