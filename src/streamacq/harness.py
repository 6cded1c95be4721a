"""Experiment orchestration: stream controller, strategies, I/O, replication.

A strategy names either an agent ensemble (two, four, or six experts), a
single agent, or a baseline; every choice runs through the same monitored
controller, which degenerates gracefully for one expert. Runs are driven by
a flat key=value config plus a seed and export plot-ready CSV/JSON files.
A config key is the name of a scalar ``ExperimentConfig`` field, or a flat
name in ``_NESTED_KEYS`` for a field of the generator, reward, learner or
solver config; its value is parsed by the type the field declares.

A stream step checks its row and its label once, before any state moves,
and scores the row with the model's scalar one-row probability. Its record
carries the solver's standardized weights as Python floats, which change only
on active steps. The test set is scored once per model: an evaluation while
the model has not changed since the last one reuses its accuracy.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import get_type_hints

import numpy as np

from .agents import (
    AcquisitionContext,
    Agent,
    CertaintyThresholdAgent,
    LowDensityAgent,
    RandomBaseline,
    SpaceFillingAgent,
    UncertaintyBaseline,
    random_baseline_rate,
)
from .core import LabeledPool, SlidingWindow, as_feature_vector
from .datagen import (
    INITIAL_POOL_SIZE,
    Dataset,
    GeneratorConfig,
    STAGE_CASE_SPLIT,
    STAGE_RUN,
    ScenarioSplit,
    generate,
    scenario_split,
)
from .ensemble import RewardSpec, SolverConfig, WeightedEnsemble, step_reward
from .learner import LearnerConfig, fit_logistic

__all__ = [
    "STRATEGIES",
    "CASE_STUDY_POOL_SIZE",
    "CONFIG_KEYS",
    "ExperimentConfig",
    "StepRecord",
    "RunMetrics",
    "ReplicationSummary",
    "StreamRunner",
    "run_experiment",
    "run_replications",
    "strategy_configs",
    "load_csv_stream",
    "case_study_split",
    "export_results",
    "write_dataset_csv",
    "parse_config_text",
    "load_experiment_config",
    "summary_table",
]

# agent names per strategy, in roster order
_ROSTERS = {
    "ensemble2": ("ld1", "ral1"),
    "ensemble4": ("ld1", "ral1", "ld2", "ral2"),
    "ensemble6": ("ld1", "ral1", "ld2", "ral2", "spf1", "ral3"),
    **{name: (name,) for name in ("ld1", "ld2", "spf1", "ral1", "ral2", "ral3",
                                  "us", "rs")},
}
STRATEGIES = tuple(_ROSTERS)

CASE_STUDY_POOL_SIZE = 10


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: data source, strategy, solver and agent settings.

    Agent defaults are the stock roster: two low-density agents and one
    space-filling agent on one shared window, and three certainty-threshold
    agents at staggered thresholds and learning rates. The run seed arrives
    separately so one config replicates cleanly.
    """

    strategy: str = "ensemble6"
    generator: GeneratorConfig = GeneratorConfig(n=1000, p=15)
    dataset: str | None = None
    label_column: str = "label"
    budget_fraction: float = 0.10
    eval_every: int = 25
    solver: SolverConfig = SolverConfig()
    epsilon: float = 0.01
    rewards: RewardSpec = RewardSpec()
    learner: LearnerConfig = LearnerConfig()
    us_threshold: float = 0.7
    ld1_window: int = 100
    ld1_sparsity: float = 0.01
    ld2_window: int = 150
    ld2_sparsity: float = 0.005
    spf1_window: int = 60
    ral1_threshold: float = 0.95
    ral1_rate: float = 0.005
    ral2_threshold: float = 0.95
    ral2_rate: float = 0.01
    ral3_threshold: float = 0.90
    ral3_rate: float = 0.01

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; choose from {', '.join(STRATEGIES)}")
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ValueError("budget fraction must lie in (0, 1]")
        if self.eval_every < 1:
            raise ValueError("evaluation period must be at least 1")
        # the split keeps n rows for the initial pool and the stream
        if self.dataset is None and self.generator.n <= INITIAL_POOL_SIZE:
            raise ValueError(
                f"n = {self.generator.n}: nothing left for the stream after test and "
                f"initial pool; n must exceed the initial pool's {INITIAL_POOL_SIZE} rows")
        # Build every configured agent once, whatever the strategy: `bench`
        # swaps the strategy after parsing, so a bad setting must fail here
        # rather than when a run first builds it.
        window = SlidingWindow(max(1, self.ld1_window, self.ld2_window, self.spf1_window) + 1)
        for name, make in self._agent_factories(window).items():
            try:
                make()
            except ValueError as exc:
                raise ValueError(f"agent {name}: {exc}") from None

    def _agent_factories(self, window: SlidingWindow | None) -> dict:
        """Constructors of every agent this config sets; window agents read ``window``."""
        def ral(threshold, rate, name):
            return CertaintyThresholdAgent(
                threshold, rate, penalty=self.rewards.signed_redundant, name=name,
                epsilon=self.epsilon)

        return {
            "ld1": lambda: LowDensityAgent(window, self.ld1_window, self.ld1_sparsity, name="ld1"),
            "ld2": lambda: LowDensityAgent(window, self.ld2_window, self.ld2_sparsity, name="ld2"),
            "spf1": lambda: SpaceFillingAgent(window, self.spf1_window, name="spf1"),
            "ral1": lambda: ral(self.ral1_threshold, self.ral1_rate, "ral1"),
            "ral2": lambda: ral(self.ral2_threshold, self.ral2_rate, "ral2"),
            "ral3": lambda: ral(self.ral3_threshold, self.ral3_rate, "ral3"),
            "us": lambda: UncertaintyBaseline(self.us_threshold, name="us"),
        }

    def build_window(self) -> SlidingWindow | None:
        """The run's window, one longer than the roster's longest window length
        to hold the sample under vote; None without a window agent."""
        lengths = [getattr(self, f"{name}_window") for name in _ROSTERS[self.strategy]
                   if hasattr(self, f"{name}_window")]
        return SlidingWindow(max(lengths) + 1) if lengths else None

    def build_agents(self, budget: int, stream_len: int,
                     window: SlidingWindow | None) -> list[Agent]:
        """The roster of this config's strategy; window agents read ``window``."""
        factories = self._agent_factories(window)
        factories["rs"] = lambda: RandomBaseline(
            random_baseline_rate(budget, stream_len), name="rs")
        return [factories[name]() for name in _ROSTERS[self.strategy]]


@dataclass(frozen=True)
class StepRecord:
    """What one stream step produced."""

    t: int
    action: int
    reward: float
    budget_used: int
    accuracy: float | None
    weights: tuple
    flipped: bool


@dataclass
class RunMetrics:
    """Everything a single run reports."""

    strategy: str
    seed: int
    n_experts: int
    initial_accuracy: float
    final_accuracy: float
    acquired: int
    positive_fraction: float
    cumulative_reward: float
    mean_step_seconds: float
    records: list


class StreamRunner:
    """Drives one model, one agent roster, and one solver down a stream."""

    def __init__(self, config: ExperimentConfig, seed: int, split: ScenarioSplit):
        self.config = config
        self.split = split
        self.pool = LabeledPool()
        for row, label in zip(split.initial_features, split.initial_labels):
            self.pool.append(row, int(label))
        self.model = fit_logistic(self.pool.features, self.pool.labels, config.learner)
        stream_len = split.stream_labels.shape[0]
        self.window = config.build_window()
        self.agents = config.build_agents(split.budget, stream_len, self.window)
        if self.window is not None:
            for row in split.initial_features:
                self.window.push(row)
        self.ensemble = WeightedEnsemble(config.solver, len(self.agents))
        self.rng = np.random.default_rng([seed, STAGE_RUN])
        self.seed_value = seed
        self.budget_used = 0
        self.acquired_positive = 0
        self.t = 0
        self._scored = None  # the model self._accuracy was scored from
        self._accuracy = math.nan

    def test_accuracy(self) -> float:
        """The model's share of correct test-set predictions; the last share
        while the model is the one it was computed from."""
        if self._scored is not self.model:
            predictions = self.model.predict_batch(self.split.test_features)
            # an exact count over n has the bits of the boolean mean
            self._accuracy = (np.count_nonzero(predictions == self.split.test_labels)
                              / predictions.size)
            self._scored = self.model
        return self._accuracy

    def step(self, features: np.ndarray, label, evaluate: bool = False) -> StepRecord:
        """Advance one stream sample; ``label`` is the oracle answer if asked.

        The row and the label are checked once, here, before anything moves:
        a rejected one leaves the runner as it was, whether or not budget is
        left.  A label is None (no answer) or equal to 0 or 1.
        """
        v = as_feature_vector(features)
        if v.size != self.model.weights.size:
            raise ValueError(f"expected a feature vector of {self.model.weights.size} "
                             f"values, got {v.size}")
        if label is not None and label not in (0, 1):
            raise ValueError(f"label must be 0, 1 or None, got {label!r}")
        self.t += 1
        reward, acquired, flipped = 0.0, False, False
        if self.budget_used < self.split.budget:
            p1 = self.model.positive_proba(v)
            p0 = 1.0 - p1
            predicted = int(p1 > p0)  # predicted_class: a tie goes to class 0
            ctx = AcquisitionContext(features=v, certainty=max(p0, p1))
            if self.window is not None:
                self.window.push(ctx.features)
            votes = [agent.propose(ctx) for agent in self.agents]
            decision = self.ensemble.decide(votes, self.rng)
            acquired = decision.acquired

            if acquired:
                if label is None:
                    raise RuntimeError(f"oracle returned no label at step {self.t}")
                truth = int(label)
                reward = step_reward(True, predicted, truth, self.config.rewards)
                self.pool.append(ctx.features, truth)
                self.model = fit_logistic(self.pool.features, self.pool.labels,
                                          self.config.learner)
                self.budget_used += 1
                if truth == 1:
                    self.acquired_positive += 1

            self.ensemble.update_weights(decision, reward)
            flipped = self.ensemble.ewma_step()
            if acquired:
                rewards = self.config.rewards
                signed = rewards.informative if predicted != truth else rewards.signed_redundant
                for agent, vote in zip(self.agents, votes):
                    if vote >= 0.5:
                        agent.reinforce(signed)

        return StepRecord(
            t=self.t, action=int(acquired), reward=reward,
            budget_used=self.budget_used,
            accuracy=self.test_accuracy() if evaluate else None,
            weights=self.ensemble.standardized,
            flipped=flipped,
        )

    def run(self) -> RunMetrics:
        initial_accuracy = self.test_accuracy()
        n_steps = self.split.stream_labels.shape[0]
        records = []
        started = time.perf_counter()
        for i in range(n_steps):
            t = i + 1
            evaluate = (t % self.config.eval_every == 0) or (t == n_steps)
            records.append(self.step(self.split.stream_features[i],
                                     int(self.split.stream_labels[i]),
                                     evaluate=evaluate))
        elapsed = time.perf_counter() - started
        final_accuracy = records[-1].accuracy if records else initial_accuracy
        return RunMetrics(
            strategy=self.config.strategy,
            seed=self.seed_value,
            n_experts=len(self.agents),
            initial_accuracy=initial_accuracy,
            final_accuracy=float(final_accuracy),
            acquired=self.budget_used,
            positive_fraction=(self.acquired_positive / self.budget_used
                               if self.budget_used else 0.0),
            cumulative_reward=float(sum(r.reward for r in records)),
            mean_step_seconds=(elapsed / n_steps if n_steps else 0.0),
            records=records,
        )


def run_experiment(config: ExperimentConfig, seed: int) -> RunMetrics:
    """Run one seeded experiment end to end (generate or load, split, stream)."""
    if config.dataset is not None:
        features, labels = load_csv_stream(config.dataset, config.label_column)
        split = case_study_split(features, labels, seed,
                                 initial_size=CASE_STUDY_POOL_SIZE,
                                 budget_fraction=config.budget_fraction)
    else:
        gen = replace(config.generator, seed=seed)
        data = generate(gen)
        try:
            split = scenario_split(data, seed, config.budget_fraction)
        except ValueError as err:  # label flips can leave a class short
            raise ValueError(f"{err} (n = {gen.n}, positive_share = {gen.positive_share}, "
                             f"flip_share = {gen.flip_share}, seed = {seed})") from err
    return StreamRunner(config, seed, split).run()


@dataclass(frozen=True)
class ReplicationSummary:
    """Mean and standard error of the headline metrics across seeds."""

    strategy: str
    seeds: tuple
    final_accuracy: tuple
    acquired: tuple
    positive_fraction: tuple
    cumulative_reward: tuple
    runs: tuple = field(repr=False, default=())


def _mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def run_replications(config: ExperimentConfig, seeds) -> ReplicationSummary:
    """Replicate one config across distinct seeds and summarize as mean (se)."""
    seeds = tuple(int(s) for s in seeds)
    if len(seeds) < 2:
        raise ValueError("replication needs at least two seeds")
    repeated = sorted(s for s, count in Counter(seeds).items() if count > 1)
    if repeated:
        raise ValueError(f"replication needs distinct seeds; repeated: {repeated}")
    runs = tuple(run_experiment(config, s) for s in seeds)
    return ReplicationSummary(
        strategy=config.strategy,
        seeds=seeds,
        final_accuracy=_mean_se([r.final_accuracy for r in runs]),
        acquired=_mean_se([r.acquired for r in runs]),
        positive_fraction=_mean_se([r.positive_fraction for r in runs]),
        cumulative_reward=_mean_se([r.cumulative_reward for r in runs]),
        runs=runs,
    )


def strategy_configs(config: ExperimentConfig, strategies) -> list[ExperimentConfig]:
    """``config`` once per distinct strategy, every one built before any run."""
    strategies = tuple(strategies)
    repeated = sorted(s for s, count in Counter(strategies).items() if count > 1)
    if repeated:
        raise ValueError(f"bench needs distinct strategies; repeated: {repeated}")
    return [replace(config, strategy=name) for name in strategies]


def summary_table(summaries) -> str:
    """Render replication summaries as a CSV table, one strategy per row."""
    out = ["strategy,n_seeds,final_accuracy_mean,final_accuracy_se,"
           "acquired_mean,acquired_se,positive_fraction_mean,positive_fraction_se,"
           "cumulative_reward_mean,cumulative_reward_se"]
    for s in summaries:
        cells = [s.strategy, str(len(s.seeds))]
        for pair in (s.final_accuracy, s.acquired, s.positive_fraction,
                     s.cumulative_reward):
            cells.extend(repr(float(v)) for v in pair)
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


# -- dataset I/O -------------------------------------------------------------

def load_csv_stream(path: str, label_column: str = "label"):
    """Read an ordered dataset CSV; row order is time order.

    Returns (features, labels). Parse problems name the offending data row.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:  # -sig drops a leading BOM
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        repeated = sorted(h for h, count in Counter(header).items() if count > 1)
        if repeated:
            raise ValueError(
                f"{path}: repeated column name(s) in header: {', '.join(map(repr, repeated))}")
        if label_column not in header:
            raise ValueError(f"{path}: no {label_column!r} column in header")
        label_idx = header.index(label_column)
        feature_idx = [i for i in range(len(header)) if i != label_idx]
        if not feature_idx:
            raise ValueError(f"{path}: no feature columns")

        rows, labels = [], []
        for row_no, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ValueError(
                    f"{path} row {row_no}: expected {len(header)} cells, got {len(row)}")
            try:
                values = [float(row[i]) for i in feature_idx]
            except ValueError:
                raise ValueError(f"{path} row {row_no}: non-numeric feature cell") from None
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{path} row {row_no}: non-finite feature cell")
            raw_label = row[label_idx].strip()
            if raw_label not in ("0", "1"):
                raise ValueError(
                    f"{path} row {row_no}: label must be 0 or 1, got {raw_label!r}")
            rows.append(values)
            labels.append(int(raw_label))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float), np.asarray(labels, dtype=int)


def case_study_split(features: np.ndarray, labels: np.ndarray, seed: int,
                     initial_size: int = CASE_STUDY_POOL_SIZE,
                     budget_fraction: float = 0.10) -> ScenarioSplit:
    """Time-ordered split: one contiguous wrap-around block becomes the test set.

    A third of the rows (floor), starting at a seeded uniform index and
    wrapping past the end, are held out; the rest keep their original order,
    with the first ``initial_size`` rows seeding the pool.
    """
    n = labels.shape[0]
    if n < 30:
        raise ValueError("case-study split needs at least 30 rows")
    if not 0.0 < budget_fraction <= 1.0:
        raise ValueError("budget fraction must lie in (0, 1]")
    rng = np.random.default_rng([seed, STAGE_CASE_SPLIT])
    start = int(rng.integers(n))
    block = n // 3
    test_idx = (start + np.arange(block)) % n
    in_test = np.zeros(n, dtype=bool)
    in_test[test_idx] = True
    train_idx = np.flatnonzero(~in_test)
    if train_idx.size <= initial_size:
        raise ValueError("nothing left for the stream after the initial pool")
    initial = train_idx[:initial_size]
    stream = train_idx[initial_size:]
    budget = round(budget_fraction * stream.size)
    return ScenarioSplit(
        initial_features=features[initial],
        initial_labels=labels[initial],
        stream_features=features[stream],
        stream_labels=labels[stream],
        test_features=features[test_idx],
        test_labels=labels[test_idx],
        budget=budget,
    )


def write_dataset_csv(dataset: Dataset, path: str) -> None:
    """Write a dataset in the ordered-CSV interchange format."""
    p = dataset.features.shape[1]
    lines = [",".join([f"f{j + 1}" for j in range(p)] + ["label"])]
    for row, label in zip(dataset.features, dataset.labels):
        lines.append(",".join([repr(float(v)) for v in row] + [str(int(label))]))
    _atomic_write(path, "\n".join(lines) + "\n")


# -- result export ------------------------------------------------------------

def export_results(metrics: RunMetrics, out_dir: str) -> dict:
    """Write metrics.csv, trajectory.csv, and summary.json into ``out_dir``.

    Files are written atomically (temp then rename). Returns the paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "metrics": os.path.join(out_dir, "metrics.csv"),
        "trajectory": os.path.join(out_dir, "trajectory.csv"),
        "summary": os.path.join(out_dir, "summary.json"),
    }

    lines = ["t,action,reward,budget_used,test_accuracy"]
    for r in metrics.records:
        acc = "" if r.accuracy is None else repr(float(r.accuracy))
        lines.append(f"{r.t},{r.action},{repr(float(r.reward))},{r.budget_used},{acc}")
    _atomic_write(paths["metrics"], "\n".join(lines) + "\n")

    alpha_cols = [f"alpha_s_{i + 1}" for i in range(metrics.n_experts)]
    lines = [",".join(["t"] + alpha_cols + ["flipped"])]
    for r in metrics.records:
        cells = [str(r.t)] + [repr(float(w)) for w in r.weights]
        cells.append("1" if r.flipped else "0")
        lines.append(",".join(cells))
    _atomic_write(paths["trajectory"], "\n".join(lines) + "\n")

    summary = {
        "strategy": metrics.strategy,
        "seed": metrics.seed,
        "final_accuracy": metrics.final_accuracy,
        "acquired": metrics.acquired,
        "positive_fraction": metrics.positive_fraction,
        "cumulative_reward": metrics.cumulative_reward,
        "mean_step_seconds": metrics.mean_step_seconds,
    }
    _atomic_write(paths["summary"], json.dumps(summary, indent=2) + "\n")
    return paths


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


# -- config files --------------------------------------------------------------

# Flat config-file names of the nested-config fields: key -> (section, field).
# Two fields have no key: GeneratorConfig.seed (a run's seed is given apart
# from its config) and LearnerConfig.grad_tol (the pinned stop tolerance).
_NESTED_KEYS = {
    **{name: ("generator", name) for name in (
        "n", "p", "positive_share", "flip_share", "noise_share", "class_sep")},
    "informative_reward": ("rewards", "informative"),
    "redundant_reward": ("rewards", "redundant"),
    "penalty": ("learner", "penalty"),
    "penalty_strength": ("learner", "strength"),
    "max_iter": ("learner", "max_iter"),
    **{name: ("solver", name) for name in (
        "horizon", "p_min", "ewma_weight", "limit_width", "flip_warmup", "monitor")},
}


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError("expected a boolean")


def _parse_float_or_auto(raw: str) -> float | None:
    return None if raw.lower() == "auto" else float(raw)


# value parser per declared field type
_PARSERS = {int: int, float: float, str: str, bool: _parse_bool,
            str | None: str, float | None: _parse_float_or_auto}


def _config_keys() -> dict:
    """Every config key -> (section or None for top level, field, parser)."""
    hints = get_type_hints(ExperimentConfig)
    keys = {f.name: (None, f.name, _PARSERS[hints[f.name]])
            for f in fields(ExperimentConfig) if not is_dataclass(hints[f.name])}
    for key, (section, name) in _NESTED_KEYS.items():
        keys[key] = (section, name, _PARSERS[get_type_hints(hints[section])[name]])
    return keys


_KEYS = _config_keys()
CONFIG_KEYS = sorted(_KEYS)


def parse_config_text(text: str) -> ExperimentConfig:
    """Build an experiment config from flat ``key = value`` lines.

    Blank lines and ``#`` comments are ignored; unknown keys are errors. A key
    is a scalar ``ExperimentConfig`` field name or a name in ``_NESTED_KEYS``,
    and its value is parsed by the field's declared type; ``CONFIG_KEYS``
    lists them all.
    """
    mapping: dict[str, str] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in mapping:
            raise ValueError(f"config line {line_no}: duplicate key {key!r}")
        mapping[key] = value

    top: dict = {}
    nested: dict = {section: {} for section, _ in _NESTED_KEYS.values()}
    for key, raw in mapping.items():
        if key not in _KEYS:
            raise ValueError(f"unknown config key {key!r}")
        section, name, parse = _KEYS[key]
        try:
            value = parse(raw)
        except ValueError:
            problem = "expected a boolean, got" if parse is _parse_bool else "bad value"
            raise ValueError(f"config key {key!r}: {problem} {raw!r}") from None
        (top if section is None else nested[section])[name] = value

    base = ExperimentConfig()
    for section, values in nested.items():
        if values:
            top[section] = replace(getattr(base, section), **values)
    return replace(base, **top)


def load_experiment_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8-sig") as fh:  # -sig drops a leading BOM
        return parse_config_text(fh.read())
