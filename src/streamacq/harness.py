"""Experiment orchestration: stream controller, strategies, I/O, replication.

A strategy names either an agent ensemble (two, four, or six experts), a
single agent, or a baseline; every choice runs through the same monitored
controller, which degenerates gracefully for one expert. Runs are driven by
a flat key=value config plus a seed and export plot-ready CSV/JSON files.
A config key is the name of a scalar ``ExperimentConfig`` field, the two
reward levels among them, or a flat name in ``_NESTED_KEYS`` for a field of
the generator, learner or solver config; its value is parsed by the type the
field declares. One builder makes every roster, a run's and the parse-time
check's; its agents are positional, in ``_ROSTERS`` order.

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
from functools import partial
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
)
from .core import LabeledPool, SlidingWindow, as_feature_vector
from .datagen import (
    INITIAL_POOL_SIZE,
    Dataset,
    GeneratorConfig,
    STAGE_RUN,
    ScenarioSplit,
    case_study_split,
    generate,
    scenario_split,
)
from .ensemble import SolverConfig, WeightedEnsemble
from .learner import LearnerConfig, fit_logistic, predicted_class

__all__ = [
    "STRATEGIES",
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
    "export_results",
    "write_dataset_csv",
    "parse_config_text",
    "load_experiment_config",
    "summary_table",
]

# the only naming of the agents: each strategy's roster, in order
_ROSTERS = {
    "ensemble2": ("ld1", "ral1"),
    "ensemble4": ("ld1", "ral1", "ld2", "ral2"),
    "ensemble6": ("ld1", "ral1", "ld2", "ral2", "spf1", "ral3"),
    **{name: (name,) for name in ("ld1", "ld2", "spf1", "ral1", "ral2", "ral3", "us", "rs")},
}
STRATEGIES = tuple(_ROSTERS)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: data source, strategy, solver, reward and agent settings.

    Agent defaults are the stock roster: two low-density agents and one
    space-filling agent on one shared window, and three certainty-threshold
    agents at staggered thresholds and learning rates. An acquisition pays
    ``informative_reward`` for a label the model got wrong, else
    ``redundant_reward``, and the agents that voted for it get that amount
    back, negated when redundant. The run seed arrives separately so one
    config replicates cleanly.
    """

    strategy: str = "ensemble6"
    generator: GeneratorConfig = GeneratorConfig(n=1000, p=15)
    dataset: str | None = None
    label_column: str = "label"
    budget_fraction: float = 0.10
    eval_every: int = 25
    solver: SolverConfig = SolverConfig()
    epsilon: float = 0.01
    informative_reward: float = 1.0
    redundant_reward: float = 0.5
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
        # update_weights accepts rewards in [0, 1]; zero is the pass reward
        for name, level in (("informative", self.informative_reward),
                            ("redundant", self.redundant_reward)):
            if not 0.0 < level <= 1.0:
                raise ValueError(f"{name} reward must lie in (0, 1], got {level}")
        if self.redundant_reward >= self.informative_reward:
            raise ValueError("redundant reward must stay below informative")
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
        # `bench` swaps the strategy after parsing, so every agent is built
        # once here, whatever the strategy: a bad setting fails now, not mid-run.
        self._roster([name for name, names in _ROSTERS.items() if names == (name,)], 0, 1)

    def _roster(self, names, budget: int,
                stream_len: int) -> tuple[SlidingWindow | None, list[Agent]]:
        """The agents ``names`` lists, in its order, and their shared window, one
        longer than their longest window length to hold the sample under vote
        (None without one). An agent's ValueError names the agent."""
        lengths = [getattr(self, f"{name}_window") for name in names
                   if hasattr(self, f"{name}_window")]
        window = SlidingWindow(max(1, *lengths) + 1) if lengths else None
        ral = partial(CertaintyThresholdAgent, penalty=-self.redundant_reward, epsilon=self.epsilon)
        make = {
            "ld1": lambda: LowDensityAgent(window, self.ld1_window, self.ld1_sparsity),
            "ld2": lambda: LowDensityAgent(window, self.ld2_window, self.ld2_sparsity),
            "spf1": lambda: SpaceFillingAgent(window, self.spf1_window),
            "ral1": lambda: ral(self.ral1_threshold, self.ral1_rate),
            "ral2": lambda: ral(self.ral2_threshold, self.ral2_rate),
            "ral3": lambda: ral(self.ral3_threshold, self.ral3_rate),
            "us": lambda: UncertaintyBaseline(self.us_threshold),
            "rs": lambda: RandomBaseline(budget, stream_len),
        }
        agents = []
        for name in names:
            try:
                agents.append(make[name]())
            except ValueError as exc:
                raise ValueError(f"agent {name}: {exc}") from None
        return window, agents

    def build_roster(self, budget: int,
                     stream_len: int) -> tuple[SlidingWindow | None, list[Agent]]:
        """The strategy's shared window (None without one) and its agents."""
        return self._roster(_ROSTERS[self.strategy], budget, stream_len)


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
        self.window, self.agents = config.build_roster(split.budget, split.stream_labels.shape[0])
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
        left.  A label is None (no answer) or equal to 0 or 1.  A None label
        on a step that acquires raises ``RuntimeError`` after ``t``, the
        window and the rng have moved, and before the pool, the model or the
        budget do; the runner must not be reused after it.
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
            predicted = predicted_class(p1)
            ctx = AcquisitionContext(features=v, certainty=max(1.0 - p1, p1))
            if self.window is not None:
                self.window.push(ctx.features)
            votes = [agent.propose(ctx) for agent in self.agents]
            decision = self.ensemble.decide(votes, self.rng)
            acquired = decision.acquired

            if acquired:
                if label is None:
                    raise RuntimeError(f"oracle returned no label at step {self.t}")
                truth = int(label)
                informative = predicted != truth
                reward = (self.config.informative_reward if informative
                          else self.config.redundant_reward)
                feedback = reward if informative else -reward
                for agent, vote in zip(self.agents, votes):
                    if vote >= 0.5:
                        agent.reinforce(feedback)
                self.pool.append(ctx.features, truth)
                self.model = fit_logistic(self.pool.features, self.pool.labels,
                                          self.config.learner)
                self.budget_used += 1
                if truth == 1:
                    self.acquired_positive += 1

            self.ensemble.update_weights(decision, reward)
            flipped = self.ensemble.ewma_step()

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
                                 budget_fraction=config.budget_fraction)
    else:
        data = generate(replace(config.generator, seed=seed))
        split = scenario_split(data, seed, config.budget_fraction)
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
