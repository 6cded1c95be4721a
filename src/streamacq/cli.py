"""Command-line entry points: dataset generation, runs, sweeps, theory checks."""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .datagen import GeneratorConfig, generate
from .harness import (
    ExperimentConfig,
    _atomic_write,
    export_results,
    load_experiment_config,
    run_experiment,
    run_replications,
    strategy_configs,
    summary_table,
    write_dataset_csv,
)
from .theory import (
    TheoryParams,
    expected_ld_acquisition,
    mc_ld_acquisition,
    solve_m2,
)


def _seed(text: str) -> int:
    """A non-negative integer seed; argparse names the flag on failure."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _seed_list(text: str) -> list[int]:
    """Comma-separated seeds, each checked like ``--seed``; blanks are skipped."""
    return [_seed(s) for s in text.split(",") if s.strip() != ""]


def _make_out_parent(path: str) -> None:
    """Create the directory a file ``--out`` goes into, before any work runs."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamacq",
        description="Stream-based active-learning experiments and theory checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = ExperimentConfig().generator
    gen = sub.add_parser("gen", help="write a synthetic dataset CSV")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--n", type=int, default=defaults.n, help="training-role sample count")
    gen.add_argument("--p", type=int, default=defaults.p, help="feature dimension")
    gen.add_argument("--positive-share", type=float, default=defaults.positive_share)
    gen.add_argument("--flip-share", type=float, default=defaults.flip_share)
    gen.add_argument("--noise-share", type=float, default=defaults.noise_share)
    gen.add_argument("--class-sep", type=float, default=defaults.class_sep)
    gen.add_argument("--seed", type=_seed, default=defaults.seed)

    run = sub.add_parser("run", help="run one seeded experiment")
    run.add_argument("--config", required=True, help="key=value config file")
    run.add_argument("--seed", type=_seed, required=True)
    run.add_argument("--out", required=True, help="output directory")

    bench = sub.add_parser("bench", help="replicate strategies across seeds")
    bench.add_argument("--config", required=True, help="key=value config file")
    bench.add_argument("--seeds", type=_seed_list, required=True,
                       help="comma-separated seed list, e.g. 0,1,2")
    bench.add_argument("--out", required=True, help="summary table CSV path")
    bench.add_argument("--strategies", default=None,
                       help="comma-separated strategy list overriding the config")

    theory = sub.add_parser("verify-theory",
                            help="check the closed-form acquisition rate against Monte Carlo")
    theory.add_argument("--out", required=True, help="grid CSV path")
    theory.add_argument("--draws", type=int, default=10_000)
    theory.add_argument("--seed", type=_seed, default=17)
    theory.add_argument("--grid-max", type=float, default=30.0,
                        help="largest squared center distance")
    theory.add_argument("--grid-points", type=int, default=8)
    return parser


def _cmd_gen(args) -> int:
    config = GeneratorConfig(
        n=args.n, p=args.p,
        positive_share=args.positive_share,
        flip_share=args.flip_share,
        noise_share=args.noise_share,
        class_sep=args.class_sep,
        seed=args.seed,
    )
    _make_out_parent(args.out)
    data = generate(config)
    write_dataset_csv(data, args.out)
    print(f"wrote {data.labels.shape[0]} rows x {data.features.shape[1]} features "
          f"to {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = load_experiment_config(args.config)
    metrics = run_experiment(config, args.seed)
    paths = export_results(metrics, args.out)
    print(f"strategy={metrics.strategy} seed={metrics.seed} "
          f"final_accuracy={metrics.final_accuracy:.4f} acquired={metrics.acquired} "
          f"reward={metrics.cumulative_reward:.2f}")
    print(f"wrote {paths['metrics']}, {paths['trajectory']}, {paths['summary']}")
    return 0


def _cmd_bench(args) -> int:
    config = load_experiment_config(args.config)
    strategies = ([s.strip() for s in args.strategies.split(",")]
                  if args.strategies else [config.strategy])
    # every config is built first, so a bad or repeated strategy fails before
    # any seed runs
    configs = strategy_configs(config, strategies)
    _make_out_parent(args.out)
    table = summary_table([run_replications(c, args.seeds) for c in configs])
    _atomic_write(args.out, table)
    print(table, end="")
    print(f"wrote {args.out}")
    return 0


def _cmd_verify_theory(args) -> int:
    if args.grid_points < 2:
        # the nondecreasing check compares neighbouring grid points
        raise ValueError(f"--grid-points must be at least 2, got {args.grid_points}")
    if not 0.0 <= args.grid_max < math.inf:  # NaN fails too
        raise ValueError(f"--grid-max must be nonnegative and finite, got {args.grid_max}")
    grid = np.linspace(0.0, args.grid_max, args.grid_points)
    base = TheoryParams(draws=args.draws, seed=args.seed)
    _make_out_parent(args.out)
    lines = ["center_dist_sq,closed_form,mc_mean,mc_se,within_tol"]
    all_ok = True
    closed_values = []
    for dist_sq in grid:
        params = replace(base, center_dist_sq=float(dist_sq))
        closed = expected_ld_acquisition(params)
        estimate = mc_ld_acquisition(params)
        tolerance = 3.0 * estimate.se + 0.05
        ok = abs(closed - estimate.mean) <= tolerance
        all_ok &= ok
        closed_values.append(closed)
        lines.append(f"{repr(float(dist_sq))},{repr(closed)},{repr(estimate.mean)},"
                     f"{repr(estimate.se)},{1 if ok else 0}")
        print(f"center_dist_sq={dist_sq:7.3f} closed={closed:7.4f} "
              f"mc={estimate.mean:7.4f} se={estimate.se:.4f} "
              f"{'ok' if ok else 'OUT OF TOLERANCE'}")

    _atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out}")

    diffs = np.diff(closed_values)
    if np.any(diffs < -1e-3):
        print("closed form is not nondecreasing along the grid", file=sys.stderr)
        all_ok = False

    m1, m2 = solve_m2(base)
    at_m2 = expected_ld_acquisition(replace(base, center_dist_sq=m2))
    print(f"m1={m1:.4f} m2={m2:.4f} expected_acquisition_at_m2={at_m2:.4f}")
    if not (np.isfinite(m2) and at_m2 >= 0.9):
        print("separation constant check failed", file=sys.stderr)
        all_ok = False

    if not all_ok:
        print("theory verification failed", file=sys.stderr)
        return 1
    print("theory verification passed")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "run": _cmd_run,
        "bench": _cmd_bench,
        "verify-theory": _cmd_verify_theory,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
