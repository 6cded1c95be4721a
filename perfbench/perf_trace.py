"""Spans, counters and percentiles for the streamacq benchmark.

The tracer records one span per call into a layer: its name, start, end, the
span it was called from, and the stream step it belongs to. Self time is a
span's duration minus the time its child spans cover. Spans stay in memory
until the benchmark writes them out.

`traced(tracer)` wraps the package's public calls where they are looked up
(a name imported into another module is wrapped there too) and restores every
original on exit, so no wrapper outlives the traced run.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import Counter

import numpy as np

MIN_TAIL_SAMPLES = 10

_MARK = "__perfbench_span__"


class Tracer:
    """In-memory span and counter store for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # -1 for a root span
        self.step_ids: list[int] = []  # -1 outside any stream step
        self.self_times: list[float] = []
        self.counts: Counter = Counter()
        self.last_gradient = None
        self._open: list[int] = []
        self._child_time: list[float] = []
        self._step = -1
        self._next_step = 0

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str, new_step: bool = False) -> int:
        if new_step:
            self._step = self._next_step
            self._next_step += 1
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.step_ids.append(self._step)
        self.ends.append(math.nan)
        self.self_times.append(math.nan)
        self._open.append(index)
        self._child_time.append(0.0)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        end = self.clock()
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")
        self._open.pop()
        children = self._child_time.pop()
        duration = end - self.starts[index]
        self.ends[index] = end
        self.self_times[index] = duration - children
        if self._child_time:
            self._child_time[-1] += duration
        elif self.names[index] == "harness.step":
            self._step = -1

    # -- aggregation over spans[lo:hi] ---------------------------------------

    def _indices(self, name: str, lo: int, hi: int | None):
        hi = len(self.names) if hi is None else hi
        return [i for i in range(lo, hi) if self.names[i] == name]

    def self_seconds(self, name: str, lo: int = 0, hi: int | None = None) -> float:
        return float(sum(self.self_times[i] for i in self._indices(name, lo, hi)))

    def entries(self, name: str, lo: int = 0, hi: int | None = None) -> list[int]:
        """Spans of ``name`` entered from outside it (nested re-entries excluded)."""
        return [i for i in self._indices(name, lo, hi)
                if self.parents[i] < 0 or self.names[self.parents[i]] != name]

    def durations(self, name: str, lo: int = 0, hi: int | None = None) -> list[float]:
        """Inclusive durations, in seconds, of the entries into ``name``."""
        return [self.ends[i] - self.starts[i] for i in self.entries(name, lo, hi)]

    def root_seconds(self, lo: int = 0, hi: int | None = None) -> float:
        """Time covered by root spans, i.e. by the traced layers and their glue."""
        hi = len(self.names) if hi is None else hi
        return float(sum(self.ends[i] - self.starts[i]
                         for i in range(lo, hi) if self.parents[i] < 0))

    def rows(self):
        """Spans as ``[name, start, end, parent, step]`` lists, for writing out."""
        for i in range(len(self.names)):
            yield [self.names[i], self.starts[i], self.ends[i],
                   self.parents[i], self.step_ids[i]]


def percentile(values, q: float) -> float:
    """The q-th percentile; a tail (q > 50) needs ten samples beyond it.

    A p95 needs 200 samples and a p99 1000; a tail read off fewer would rest
    on a handful of outliers.
    """
    n = len(values)
    if n == 0 or (q > 50 and n * (100.0 - q) / 100.0 < MIN_TAIL_SAMPLES):
        raise ValueError(f"p{q:g} needs {required_samples(q)} samples, got {n}")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def tail_mean(values, share: float) -> float:
    """Mean of the slowest ``share`` percent of ``values``, which must hold
    at least ten samples.

    Steadier than the percentile at the tail's edge when the tail is a
    separate mode (rare slow steps) whose weight varies from input to input.
    """
    k = int(len(values) * share / 100.0 + 1e-9)
    if k < MIN_TAIL_SAMPLES:
        raise ValueError(f"the slowest {share:g}% need {required_samples(100 - share)} "
                         f"samples, got {len(values)}")
    return float(np.sort(np.asarray(values, dtype=float))[-k:].mean())


def required_samples(q: float) -> int:
    """Fewest samples for which :func:`percentile` accepts ``q``."""
    if q <= 50:
        return 1
    return math.ceil(MIN_TAIL_SAMPLES * 100.0 / (100.0 - q) - 1e-9)


# -- wrappers -----------------------------------------------------------------

def _span(tracer: Tracer, name: str, fn, new_step=False, after=None, before=None):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        index = tracer.open(name, new_step)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(result, args, kwargs)
        return result
    setattr(wrapped, _MARK, name)
    return wrapped


def _counter(tracer: Tracer, name: str, fn, keep_result=False):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        tracer.counts[name] += 1
        result = fn(*args, **kwargs)
        if keep_result:
            tracer.last_gradient = result
        return result
    setattr(wrapped, _MARK, name)
    return wrapped


def _rewrap(raw, make):
    """Wrap a class-dict entry, keeping its kind (function, classmethod, property)."""
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    if isinstance(raw, property):
        return property(make(raw.fget))
    return make(raw)


def _unwrap(raw):
    if isinstance(raw, classmethod):
        return raw.__func__
    if isinstance(raw, property):
        return raw.fget
    return raw


def _targets():
    """(owner, attribute, span name) for every call the trace covers."""
    from streamacq import agents, core, datagen, ensemble, harness, learner, theory

    spans = [
        (harness.StreamRunner, "step", "harness.step"),
        (core.SlidingWindow, "push", "core.push"),
        (core.SlidingWindow, "from_points", "core.from_points"),
        (core.LabeledPool, "append", "core.pool"),
        (core.LabeledPool, "features", "core.pool"),
        (core.LabeledPool, "labels", "core.pool"),
        (agents, "local_sparsity", "agents.local_sparsity"),
        (theory, "local_sparsity", "agents.local_sparsity"),
        (learner, "fit_logistic", "learner.fit"),
        (harness, "fit_logistic", "learner.fit"),
        (theory, "fit_logistic", "learner.fit"),
        (learner.LogisticModel, "predict_proba", "learner.predict"),
        (learner.LogisticModel, "predict", "learner.predict"),
        (learner.LogisticModel, "predict_batch", "learner.predict_batch"),
        (ensemble.WeightedEnsemble, "decide", "ensemble.decide"),
        (ensemble.WeightedEnsemble, "update_weights", "ensemble.update_weights"),
        (ensemble.WeightedEnsemble, "ewma_step", "ensemble.ewma_step"),
        (datagen, "generate", "datagen.generate"),
        (harness, "generate", "datagen.generate"),
        (datagen, "scenario_split", "datagen.scenario_split"),
        (harness, "scenario_split", "datagen.scenario_split"),
        (theory, "mc_ld_acquisition", "theory.mc_ld_acquisition"),
        (theory, "expected_ld_acquisition", "theory.expected_ld_acquisition"),
        (theory, "solve_m2", "theory.solve_m2"),
    ]
    agent_classes = [c for c in vars(agents).values()
                     if isinstance(c, type) and issubclass(c, agents.Agent)]
    for cls in agent_classes:
        for method in ("propose", "observe"):
            if method in vars(cls):
                spans.append((cls, method, f"agents.{method}"))
    counters = [
        (core, "euclidean", "core.euclidean"),
        (learner, "loss_gradient", "learner.loss_gradient"),
    ]
    return spans, counters


def _hooks(tracer: Tracer, name: str) -> dict:
    """Counts taken from a call's arguments or result, at the layer boundary."""
    if name == "learner.fit":
        def before(args, kwargs):
            tracer.last_gradient = None

        def after(model, args, kwargs):
            from streamacq.learner import LearnerConfig
            config = args[2] if len(args) > 2 else kwargs.get("config", LearnerConfig())
            if tracer.last_gradient is None:  # single-class pool: no iterations
                return
            gw, gb = tracer.last_gradient
            tracer.counts["learner.iterating_fits"] += 1
            if float(np.sqrt(gw @ gw + gb * gb)) < config.grad_tol:
                tracer.counts["learner.converged_fits"] += 1
        return {"before": before, "after": after}
    if name == "ensemble.ewma_step":
        def after(flipped, args, kwargs):
            if flipped:
                tracer.counts["ensemble.flips"] += 1
        return {"after": after}
    return {}


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install every layer wrapper for the duration of the block."""
    spans, counters = _targets()
    patches = []
    for owner, attr, name in spans:
        hooks = _hooks(tracer, name)
        patches.append((owner, attr, lambda fn, n=name, h=hooks: _span(
            tracer, n, fn, new_step=(n == "harness.step"), **h)))
    for owner, attr, name in counters:
        patches.append((owner, attr, lambda fn, n=name: _counter(
            tracer, n, fn, keep_result=(n == "learner.loss_gradient"))))
    originals = []
    try:
        for owner, attr, make in patches:
            raw = vars(owner)[attr]
            originals.append((owner, attr, raw))
            setattr(owner, attr, _rewrap(raw, make))
        yield tracer
    finally:
        for owner, attr, raw in reversed(originals):
            setattr(owner, attr, raw)


def leftover_wrappers() -> list[str]:
    """Attributes that still hold a benchmark wrapper; empty after a clean exit."""
    spans, counters = _targets()
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _ in spans + counters
            if hasattr(_unwrap(vars(owner)[attr]), _MARK)]
