"""The per-move cost of the logistic fit's descent loop on four pool sizes.

Run from the repository root:

    PYTHONPATH=src python tests/fit_timing.py

For pools of 40x2, 68x2, 70x15 and 118x15 (normal features, labels of both
classes, fixed seed) it times 300 pairs of a 500-move fit and a 1-move fit,
keeps the fastest of each kind, and prints their difference over 499: the
cost of one move, without the work a fit does before and after its loop. The
stop tolerance is 0, so every fit makes all its moves. BLAS is held to one
thread, set before numpy is imported; pinning the process to one CPU
(``taskset -c 1``) steadies the figures further. README quotes them. pytest
does not collect this file.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from streamacq.learner import LearnerConfig, fit_logistic  # noqa: E402

SHAPES = ((40, 2), (68, 2), (70, 15), (118, 15))
MOVES = 500
REPEATS = 300


def fastest_fits(X, y, configs) -> list[float]:
    """The fastest of ``REPEATS`` fits under each config, in seconds; the
    configs take turns, so a slow spell of the machine falls on each."""
    best = [float("inf")] * len(configs)
    for _ in range(REPEATS):
        for i, config in enumerate(configs):
            start = time.perf_counter()
            fit_logistic(X, y, config)
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def main() -> int:
    rng = np.random.default_rng(0)
    long, short = (LearnerConfig(max_iter=k, grad_tol=0.0) for k in (MOVES, 1))
    for n, p in SHAPES:
        X = rng.normal(size=(n, p))
        y = np.arange(n) % 2
        assert fit_logistic(X, y, long).n_iter == MOVES
        full, one = fastest_fits(X, y, (long, short))
        per_move = (full - one) / (MOVES - 1)
        print(f"{n}x{p}: {per_move * 1e6:.3f} us per move")
    return 0


if __name__ == "__main__":
    sys.exit(main())
