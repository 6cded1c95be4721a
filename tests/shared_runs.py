"""The workloads, stream runs and theory grid that several test modules read.

``TOY`` and ``SCENARIO`` are the generators of the two benchmark workloads:
the acceptance criteria, the golden digests and ``digest_sweep.py`` all run
on them. :func:`run` and :func:`default_theory` make each computation once
per test session and hand the same object to every caller, so no caller may
change what it gets back. A test that compares two fresh runs on purpose
(a determinism check) calls ``run_experiment`` itself.

:func:`paired` reads two arms' per-seed values as pairs: one seed gives
every arm the same data, split and stream order, so the paired interval is
far tighter than one from the two means alone (Dietterich, Neural
Computation 1998; Demšar, JMLR 2006).
"""

import contextlib
import functools
import io
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from streamacq.cli import main
from streamacq.datagen import GeneratorConfig
from streamacq.harness import ExperimentConfig, RunMetrics, run_experiment

TOY = GeneratorConfig(n=500, p=2, positive_share=0.10, flip_share=0.0, noise_share=0.0)
SCENARIO = GeneratorConfig(n=1000, p=15, positive_share=0.10, flip_share=0.0,
                           noise_share=0.30)


class TimedRun(NamedTuple):
    metrics: RunMetrics
    seconds: float  # wall time of the run_experiment call


class TheoryRun(NamedTuple):
    exit_code: int
    csv: bytes
    stdout: str
    seconds: float


_RUNS = {}  # (ExperimentConfig, seed) -> TimedRun


def run(strategy: str, generator: GeneratorConfig, seed: int, **settings) -> TimedRun:
    """The session's one run of ``strategy`` on ``generator`` at stream seed
    ``seed``; ``settings`` are further ``ExperimentConfig`` fields."""
    key = (ExperimentConfig(strategy=strategy, generator=generator, **settings), seed)
    if key not in _RUNS:
        started = time.perf_counter()
        metrics = run_experiment(*key)
        _RUNS[key] = TimedRun(metrics, time.perf_counter() - started)
    return _RUNS[key]


@functools.cache
def default_theory() -> TheoryRun:
    """The session's one ``streamacq verify-theory`` run on its default grid
    (10,000 draws at each of 8 points, seed 17)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "grid.csv"
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            started = time.perf_counter()
            code = main(["verify-theory", "--out", str(out)])
            seconds = time.perf_counter() - started
        return TheoryRun(code, out.read_bytes(), printed.getvalue(), seconds)


T_975_9DF = 2.262  # two-sided 95% Student t quantile at 9 degrees of freedom


def paired(first, second) -> str:
    """``first - second`` over ten seeds, pair by pair: the mean difference,
    its paired standard error, the 95% t interval and the wins/ties/losses
    of ``first``."""
    diff = np.asarray(first, dtype=float) - np.asarray(second, dtype=float)
    if diff.shape != (10,):
        raise ValueError(f"the t quantile is for 10 paired seeds, got shape {diff.shape}")
    mean = float(diff.mean())
    se = float(diff.std(ddof=1) / np.sqrt(diff.size))
    half = T_975_9DF * se
    wins, ties = int((diff > 0).sum()), int((diff == 0).sum())
    return (f"paired diff {mean:+.4f}, SE {se:.4f}, 95% t CI "
            f"[{mean - half:+.4f}, {mean + half:+.4f}], "
            f"W/T/L {wins}/{ties}/{diff.size - wins - ties}")
