"""Experiment orchestration: stream controller, strategies, I/O, replication.

A strategy names either an agent ensemble (two, four, or six experts), a
single agent, or a baseline; every choice runs through the same monitored
controller, which degenerates gracefully for one expert. Runs are driven by
a flat key=value config plus a seed and export plot-ready CSV/JSON files.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .agents import (
    AcquisitionContext,
    Agent,
    CertaintyThresholdAgent,
    EpsilonGreedyAgent,
    LowDensityAgent,
    RandomBaseline,
    SpaceFillingAgent,
    UncertaintyBaseline,
    random_baseline_rate,
)
from .core import LabeledPool, Sample
from .datagen import (
    Dataset,
    GeneratorConfig,
    STAGE_CASE_SPLIT,
    STAGE_RUN,
    ScenarioSplit,
    generate,
    scenario_split,
)
from .ensemble import RewardSpec, SolverConfig, WeightedEnsemble, step_reward
from .learner import LearnerConfig, fit_logistic, predicted_class

__all__ = [
    "STRATEGIES",
    "CASE_STUDY_POOL_SIZE",
    "ExperimentConfig",
    "StepRecord",
    "RunMetrics",
    "ReplicationSummary",
    "StreamRunner",
    "run_experiment",
    "run_replications",
    "load_csv_stream",
    "case_study_split",
    "export_results",
    "write_dataset_csv",
    "parse_config_text",
    "load_experiment_config",
    "summary_table",
]

STRATEGIES = (
    "ensemble2", "ensemble4", "ensemble6",
    "ld1", "ld2", "spf1", "ral1", "ral2", "ral3",
    "us", "rs",
)

CASE_STUDY_POOL_SIZE = 10


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: data source, strategy, solver and agent settings.

    Agent defaults are the stock roster: two low-density windows, one
    space-filling window, and three certainty-threshold agents at staggered
    thresholds and learning rates. The run seed arrives separately so one
    config replicates cleanly.
    """

    strategy: str = "ensemble6"
    generator: GeneratorConfig = GeneratorConfig(n=1000, p=15)
    dataset: str | None = None
    label_column: str = "label"
    budget_fraction: float = 0.10
    eval_every: int = 25
    horizon: int = 2000
    p_min: float | None = None
    confidence: float = 0.1
    ewma_weight: float = 0.3
    limit_width: float = 5.0
    flip_warmup: int = 10
    monitor: bool = True
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
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")

    def build_agents(self, budget: int, stream_len: int) -> list[Agent]:
        """Instantiate the roster for this config's strategy."""
        def wrap(agent: Agent) -> Agent:
            return EpsilonGreedyAgent(agent, self.epsilon)

        def ld1():
            return LowDensityAgent(self.ld1_window, self.ld1_sparsity, name="ld1")

        def ld2():
            return LowDensityAgent(self.ld2_window, self.ld2_sparsity, name="ld2")

        def spf1():
            return SpaceFillingAgent(self.spf1_window, name="spf1")

        def ral(threshold, rate, name):
            return wrap(CertaintyThresholdAgent(
                threshold, rate, penalty=self.rewards.signed_redundant, name=name))

        rosters = {
            "ensemble2": lambda: [ld1(), ral(self.ral1_threshold, self.ral1_rate, "ral1")],
            "ensemble4": lambda: [ld1(), ral(self.ral1_threshold, self.ral1_rate, "ral1"),
                                  ld2(), ral(self.ral2_threshold, self.ral2_rate, "ral2")],
            "ensemble6": lambda: [ld1(), ral(self.ral1_threshold, self.ral1_rate, "ral1"),
                                  ld2(), ral(self.ral2_threshold, self.ral2_rate, "ral2"),
                                  spf1(), ral(self.ral3_threshold, self.ral3_rate, "ral3")],
            "ld1": lambda: [ld1()],
            "ld2": lambda: [ld2()],
            "spf1": lambda: [spf1()],
            "ral1": lambda: [ral(self.ral1_threshold, self.ral1_rate, "ral1")],
            "ral2": lambda: [ral(self.ral2_threshold, self.ral2_rate, "ral2")],
            "ral3": lambda: [ral(self.ral3_threshold, self.ral3_rate, "ral3")],
            "us": lambda: [UncertaintyBaseline(self.us_threshold, name="us")],
            "rs": lambda: [RandomBaseline(random_baseline_rate(budget, stream_len), name="rs")],
        }
        return rosters[self.strategy]()

    def solver_config(self, n_experts: int) -> SolverConfig:
        return SolverConfig(
            n_experts=n_experts,
            horizon=self.horizon,
            p_min=self.p_min,
            confidence=self.confidence,
            ewma_weight=self.ewma_weight,
            limit_width=self.limit_width,
            flip_warmup=self.flip_warmup,
            monitor=self.monitor,
        )


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
        for i, (row, label) in enumerate(zip(split.initial_features,
                                             split.initial_labels)):
            self.pool.append(Sample(row, int(label), time_index=i - len(split.initial_labels)))
        self.model = fit_logistic(self.pool.features, self.pool.labels, config.learner)
        stream_len = split.stream_labels.shape[0]
        self.agents = config.build_agents(split.budget, stream_len)
        for agent in self.agents:
            agent.seed(split.initial_features)
        self.ensemble = WeightedEnsemble(config.solver_config(len(self.agents)))
        self.rng = np.random.default_rng([seed, STAGE_RUN])
        self.seed_value = seed
        self.budget_used = 0
        self.acquired_positive = 0
        self.t = 0

    def test_accuracy(self) -> float:
        predictions = self.model.predict_batch(self.split.test_features)
        return float((predictions == self.split.test_labels).mean())

    def step(self, features: np.ndarray, label, evaluate: bool = False) -> StepRecord:
        """Advance one stream sample; ``label`` is the oracle answer if asked."""
        self.t += 1
        accuracy = None
        if self.budget_used >= self.split.budget:
            if evaluate:
                accuracy = self.test_accuracy()
            return StepRecord(
                t=self.t, action=0, reward=0.0, budget_used=self.budget_used,
                accuracy=accuracy,
                weights=tuple(self.ensemble.standardized_weights()),
                flipped=False,
            )

        proba = self.model.predict_proba(features)
        predicted = int(predicted_class(proba))
        ctx = AcquisitionContext(
            features=np.asarray(features, dtype=float),
            predicted=predicted,
            proba=proba,
            certainty=float(proba.max()),
            time_index=self.t,
            budget_total=self.split.budget,
            budget_used=self.budget_used,
        )
        votes = [agent.propose(ctx) for agent in self.agents]
        decision = self.ensemble.decide(votes, self.rng)

        reward = 0.0
        truth = None
        if decision.acquired:
            if label is None:
                raise RuntimeError(f"oracle returned no label at step {self.t}")
            truth = int(label)
            reward = step_reward(True, predicted, truth, self.config.rewards)
            self.pool.append(Sample(ctx.features, truth, time_index=self.t))
            self.model = fit_logistic(self.pool.features, self.pool.labels,
                                      self.config.learner)
            self.budget_used += 1
            if truth == 1:
                self.acquired_positive += 1

        self.ensemble.update_weights(votes, decision, reward)
        flipped = self.ensemble.ewma_step()
        for agent, vote in zip(self.agents, votes):
            agent.observe(ctx)
            if decision.acquired and vote >= 0.5:
                signed = (self.config.rewards.informative if predicted != truth
                          else self.config.rewards.signed_redundant)
                agent.reinforce(signed)

        if evaluate:
            accuracy = self.test_accuracy()
        return StepRecord(
            t=self.t, action=1 if decision.acquired else 0, reward=reward,
            budget_used=self.budget_used, accuracy=accuracy,
            weights=tuple(self.ensemble.standardized_weights()),
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
    """Replicate one config across seeds and summarize as mean (se)."""
    seeds = tuple(int(s) for s in seeds)
    if len(seeds) < 2:
        raise ValueError("replication needs at least two seeds")
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
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
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
    n, p = dataset.features.shape
    tmp = path + ".tmp"
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join([f"f{j + 1}" for j in range(p)] + ["label"]) + "\n")
        for i in range(n):
            cells = [repr(float(v)) for v in dataset.features[i]]
            cells.append(str(int(dataset.labels[i])))
            fh.write(",".join(cells) + "\n")
    os.replace(tmp, path)


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

_GENERATOR_KEYS = {
    "n": int,
    "p": int,
    "positive_share": float,
    "flip_share": float,
    "noise_share": float,
    "class_sep": float,
}

_REWARD_KEYS = {"informative_reward": float, "redundant_reward": float}

_LEARNER_KEYS = {"penalty": str, "penalty_strength": float, "max_iter": int}

_SCALAR_KEYS = {
    "strategy": str,
    "dataset": str,
    "label_column": str,
    "budget_fraction": float,
    "eval_every": int,
    "horizon": int,
    "confidence": float,
    "ewma_weight": float,
    "limit_width": float,
    "flip_warmup": int,
    "epsilon": float,
    "us_threshold": float,
    "ld1_window": int,
    "ld1_sparsity": float,
    "ld2_window": int,
    "ld2_sparsity": float,
    "spf1_window": int,
    "ral1_threshold": float,
    "ral1_rate": float,
    "ral2_threshold": float,
    "ral2_rate": float,
    "ral3_threshold": float,
    "ral3_rate": float,
}

CONFIG_KEYS = sorted(
    list(_GENERATOR_KEYS) + list(_REWARD_KEYS) + list(_LEARNER_KEYS)
    + list(_SCALAR_KEYS) + ["p_min", "monitor"])


def _parse_bool(key: str, raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"config key {key!r}: expected a boolean, got {raw!r}")


def parse_config_text(text: str) -> ExperimentConfig:
    """Build an experiment config from flat ``key = value`` lines.

    Blank lines and ``#`` comments are ignored; unknown keys are errors. The
    accepted keys are listed in ``CONFIG_KEYS``.
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

    gen_kwargs: dict = {}
    reward_kwargs: dict = {}
    learner_kwargs: dict = {}
    top_kwargs: dict = {}
    for key, raw in mapping.items():
        try:
            if key in _GENERATOR_KEYS:
                gen_kwargs[key] = _GENERATOR_KEYS[key](raw)
            elif key == "informative_reward":
                reward_kwargs["informative"] = float(raw)
            elif key == "redundant_reward":
                reward_kwargs["redundant"] = float(raw)
            elif key in _LEARNER_KEYS:
                name = "strength" if key == "penalty_strength" else key
                learner_kwargs[name] = _LEARNER_KEYS[key](raw)
            elif key == "p_min":
                top_kwargs["p_min"] = None if raw.lower() == "auto" else float(raw)
            elif key == "monitor":
                top_kwargs["monitor"] = _parse_bool(key, raw)
            elif key in _SCALAR_KEYS:
                top_kwargs[key] = _SCALAR_KEYS[key](raw)
            else:
                raise KeyError(key)
        except KeyError:
            raise ValueError(f"unknown config key {key!r}") from None
        except ValueError as exc:
            if "unknown config key" in str(exc) or "expected a boolean" in str(exc):
                raise
            raise ValueError(f"config key {key!r}: bad value {raw!r}") from None

    base = ExperimentConfig()
    generator = replace(base.generator, **gen_kwargs) if gen_kwargs else base.generator
    rewards = RewardSpec(**reward_kwargs) if reward_kwargs else base.rewards
    learner = LearnerConfig(**learner_kwargs) if learner_kwargs else base.learner
    return replace(base, generator=generator, rewards=rewards, learner=learner,
                   **top_kwargs)


def load_experiment_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())
