"""Tests for the experiment harness: configs, runner, I/O, replication."""

import csv
import json
import math
import os
import re
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from shared_runs import run

from streamacq.agents import (
    Agent,
    CertaintyThresholdAgent,
    LowDensityAgent,
    RandomBaseline,
    SpaceFillingAgent,
    UncertaintyBaseline,
)
from streamacq.datagen import Dataset, GeneratorConfig, generate, scenario_split
from streamacq.ensemble import SolverConfig
import streamacq.harness as harness
from streamacq.harness import (
    CONFIG_KEYS,
    ExperimentConfig,
    RunMetrics,
    STRATEGIES,
    StreamRunner,
    export_results,
    load_csv_stream,
    load_experiment_config,
    parse_config_text,
    run_experiment,
    run_replications,
    strategy_configs,
    summary_table,
    write_dataset_csv,
)
from streamacq.learner import LearnerConfig, LogisticModel, fit_logistic

SMALL_GEN = GeneratorConfig(n=500, p=5, seed=0)


def assert_window_holds(window, rows):
    """The window answers both extremes queries as a rescan of ``rows``, its
    members oldest first, with the push's distance formula, bit for bit."""
    rows = np.asarray(rows, dtype=float)
    assert len(window) == len(rows)
    *before, new = rows
    dist = [np.sqrt(((rows[:i] - v) ** 2).sum(axis=1)) for i, v in enumerate(rows)]
    others = [[dist[max(i, j)][min(i, j)] for j in range(len(before)) if j != i]
              for i in range(len(before))]
    (to_new, far), (_, near) = window.farthest(), window.nearest()
    assert to_new.tolist() == dist[-1].tolist()
    assert far.tolist() == [max(d, default=0.0) for d in others]
    assert near.tolist() == [min(d, default=np.inf) for d in others]


def small_config(strategy="rs", **kwargs):
    return ExperimentConfig(strategy=strategy, generator=SMALL_GEN, **kwargs)


# every agent setting at a distinct value away from its default, so that a
# setting handed to the wrong agent or the wrong field shows
DISTINCT_AGENT_SETTINGS = ExperimentConfig(
    epsilon=0.02, redundant_reward=0.3, us_threshold=0.65,
    ld1_window=31, ld1_sparsity=0.021, ld2_window=47, ld2_sparsity=0.013, spf1_window=23,
    ral1_threshold=0.91, ral1_rate=0.003, ral2_threshold=0.87, ral2_rate=0.007,
    ral3_threshold=0.83, ral3_rate=0.011)

# each agent's exact type and its settings under DISTINCT_AGENT_SETTINGS, on a
# budget of 37 in 500
AGENT_SPECS = {
    "ld1": (LowDensityAgent, {"length": 31, "sparsity_level": 0.021}),
    "ld2": (LowDensityAgent, {"length": 47, "sparsity_level": 0.013}),
    "spf1": (SpaceFillingAgent, {"length": 23}),
    **{name: (CertaintyThresholdAgent, {"threshold": threshold, "learning_rate": rate,
                                        "penalty": -0.3, "epsilon": 0.02})
       for name, threshold, rate in (("ral1", 0.91, 0.003), ("ral2", 0.87, 0.007),
                                     ("ral3", 0.83, 0.011))},
    "us": (UncertaintyBaseline, {"threshold": 0.65}),
    "rs": (RandomBaseline, {"rate": 37 / 500}),
}


def roster(strategy):
    """The default config's agents for ``strategy``, on a budget of 48 in 480."""
    return ExperimentConfig(strategy=strategy).build_roster(48, 480)[1]


@pytest.fixture(scope="module")
def split():
    return scenario_split(generate(SMALL_GEN), seed=0)


@pytest.fixture(scope="module")
def metrics():
    return run_experiment(small_config("ensemble2"), 0)


# config-file text per key: tiny, huge and boundary floats, NaN and inf, and
# integers from -1 up (max_iter to 2000, which bounds a run's cost)
_FLOAT_TEXT = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52,
                     2.0, 1e100, 1e300, 1.7976931348623157e308, -1.0, math.inf, -math.inf,
                     math.nan)),
    st.floats(0.0, 1.0), st.floats()).map(repr)
_INT_TEXT = st.one_of(st.integers(-1, 3), st.integers(-1, 200), st.integers(-1, 2**63)).map(str)
_TEXT_BY_PARSER = {
    float: _FLOAT_TEXT,
    int: _INT_TEXT,
    harness._parse_bool: st.sampled_from(("true", "false", "yes", "no", "on", "off", "1", "0")),
    harness._parse_float_or_auto: st.one_of(st.just("auto"), _FLOAT_TEXT),
}
_DRAWN_VALUES = {key: _TEXT_BY_PARSER.get(parse) for key, (_, _, parse) in harness._KEYS.items()
                 if key not in ("dataset", "label_column", "n", "p")}
_DRAWN_VALUES.update(strategy=st.sampled_from(STRATEGIES),
                     penalty=st.sampled_from(("none", "l1", "l2")),
                     max_iter=st.integers(-1, 2000).map(str))
assert None not in _DRAWN_VALUES.values()


class TestConfigParsing:
    def test_defaults_round_trip(self):
        cfg = parse_config_text("")
        assert cfg == ExperimentConfig()

    def test_nested_keys_route_to_subconfigs(self):
        text = "\n".join([
            "# data shape",
            "strategy = ensemble4",
            "n = 500",
            "p = 8",
            "flip_share = 0.03",
            "",
            "informative_reward = 0.8",
            "redundant_reward = 0.25",
            "penalty = l2",
            "penalty_strength = 0.5",
            "max_iter = 200",
            "p_min = 0.05",
            "monitor = false",
            "ld1_window = 40",
        ])
        cfg = parse_config_text(text)
        assert cfg.strategy == "ensemble4"
        assert cfg.generator.n == 500
        assert cfg.generator.p == 8
        assert cfg.generator.flip_share == 0.03
        assert cfg.informative_reward == 0.8
        assert cfg.redundant_reward == 0.25
        assert cfg.learner.penalty == "l2"
        assert cfg.learner.strength == 0.5
        assert cfg.learner.max_iter == 200
        assert cfg.solver.p_min == 0.05
        assert cfg.solver.monitor is False
        assert cfg.ld1_window == 40

    @pytest.mark.parametrize("line", [
        "informative_reward = 2.0",
        "redundant_reward = 1.5",
        "redundant_reward = 0",
    ])
    def test_reward_outside_the_solver_range_rejected(self, line):
        """A reward the solver would refuse mid-run is refused at parse time."""
        with pytest.raises(ValueError, match="reward must lie in"):
            parse_config_text(line)

    @pytest.mark.parametrize("text, message", [
        ("spf1_window = 1", "agent spf1: space-filling window needs length >= 2"),
        ("ld1_window = 0", "agent ld1: window length must lie in [1, 150], got 0"),
        ("ld2_sparsity = 0", "agent ld2: sparsity level must lie in (0, 1], got 0.0"),
        ("ld1_sparsity = 2", "agent ld1: sparsity level must lie in (0, 1], got 2.0"),
        ("ral1_threshold = 0", "agent ral1: threshold must lie in (0, 1], got 0.0"),
        ("ral2_rate = 0", "agent ral2: learning rate must be positive and finite, got 0.0"),
        ("ral1_rate = nan", "agent ral1: learning rate must be positive and finite, got nan"),
        ("ral2_rate = nan", "agent ral2: learning rate must be positive and finite, got nan"),
        ("ral3_rate = inf", "agent ral3: learning rate must be positive and finite, got inf"),
        ("us_threshold = 0", "agent us: threshold must lie in (0, 1], got 0.0"),
        ("strategy = rs\nspf1_window = 1", "agent spf1: space-filling window needs length >= 2"),
        ("strategy = ral1\nld2_window = 0",
         "agent ld2: window length must lie in [1, 100], got 0"),
        ("epsilon = 1.5", "agent ral1: epsilon must lie in [0, 1], got 1.5"),
        ("strategy = ld1\nepsilon = -0.1", "agent ral1: epsilon must lie in [0, 1], got -0.1"),
        # with no positive length the one shared window holds a single member
        ("ld1_window = -5\nld2_window = -5\nspf1_window = -5",
         "agent ld1: window length must lie in [1, 1], got -5"),
    ])
    def test_agent_setting_an_agent_would_refuse_rejected(self, text, message):
        """A bad agent setting fails at parse time, even outside the roster,
        with the agent's own message behind its name.

        ``bench`` swaps the strategy of a parsed config, so a setting only
        another roster reads must not wait for that roster to crash.
        """
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config_text(text)

    @pytest.mark.parametrize("text, message", [
        ("p_min = 0.7", "p_min must lie in"),
        ("horizon = 0", "horizon must be positive"),
        ("ewma_weight = 0", "ewma weight must lie in"),
        ("limit_width = 0", "limit width must be positive"),
        ("limit_width = nan", "limit width must be positive"),
        ("limit_width = inf", "limit width must be positive"),
        ("flip_warmup = 1", "flip warm-up needs"),
    ])
    def test_solver_setting_the_solver_would_refuse_rejected(self, text, message):
        """A solver setting that would stop a run at start-up fails at parse time."""
        with pytest.raises(ValueError, match=message):
            parse_config_text(text)

    @pytest.mark.parametrize("text, message", [
        ("class_sep = nan", "class separation must be positive and finite"),
        ("class_sep = inf", "class separation must be positive and finite"),
        ("penalty = l2\npenalty_strength = nan", "strength must be finite"),
        ("penalty = l2\npenalty_strength = inf", "strength must be finite"),
    ])
    def test_non_finite_data_or_learner_setting_rejected(self, text, message):
        """A NaN or infinite setting fails at parse time, naming what it sets."""
        with pytest.raises(ValueError, match=message):
            parse_config_text(text)

    @pytest.mark.parametrize("sep", ["1e101", "1e200", "1.8e308"])
    def test_class_sep_past_its_bound_rejected_naming_the_key(self, sep):
        """Past 1e100 the features' squares would overflow in a fit or a
        window; the parse says so, not a numpy warning mid-run."""
        with pytest.raises(ValueError, match="class_sep: .* at most 1e\\+100"):
            parse_config_text(f"class_sep = {sep}\n")

    def test_class_sep_at_its_bound_runs_clean(self):
        config = parse_config_text("strategy = ensemble6\nn = 60\np = 4\nclass_sep = 1e100\n")
        assert math.isfinite(run_experiment(config, 0).final_accuracy)

    @pytest.mark.parametrize("n", [1, 2, 19, 20])
    def test_n_the_split_cannot_serve_rejected_naming_n(self, n):
        """The split keeps n rows beside the test set, and the initial pool
        takes 20 of them; a config with none left for the stream fails when
        it is built."""
        with pytest.raises(ValueError, match=f"n = {n}: nothing left for the stream"):
            parse_config_text(f"n = {n}\n")

    def test_smallest_n_the_split_serves_runs(self):
        config = parse_config_text("strategy = ensemble6\nn = 21\np = 4\n")
        assert run_experiment(config, 0).acquired >= 0

    def test_flips_of_half_the_rows_leave_each_class_its_test_rows(self):
        """A skewed class share with half the rows flipped once left class 1
        two rows short of its test set; flips now spare each class's test
        rows, so the run goes through."""
        config = parse_config_text("strategy = ensemble6\nn = 21\np = 4\n"
                                   "positive_share = 0.01\nflip_share = 0.5\n")
        metrics = run_experiment(config, 0)
        assert metrics.acquired >= 0 and len(metrics.records) == 1

    def test_penalty_strength_without_a_penalty_rejected(self):
        with pytest.raises(ValueError, match="penalty 'none' takes no regularization strength"):
            parse_config_text("penalty_strength = 5\n")

    def test_every_nested_setting_has_a_key(self):
        """A setting added to a nested section cannot land without its flat key."""
        base = ExperimentConfig()
        settings = {(f.name, g.name) for f in fields(base)
                    if is_dataclass(getattr(base, f.name))
                    for g in fields(getattr(base, f.name))}
        unkeyed = settings - set(harness._NESTED_KEYS.values())
        assert unkeyed == {("generator", "seed"), ("learner", "grad_tol")}

    def test_p_min_auto_maps_to_none(self):
        assert parse_config_text("p_min = auto").solver.p_min is None

    @pytest.mark.parametrize("text", ["windowsize = 10", "confidence = 0.1"])
    def test_unknown_key_rejected(self, text):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_text(text)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate key"):
            parse_config_text("n = 10\nn = 20")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_config_text("just words")

    def test_bad_value_names_the_key(self):
        with pytest.raises(ValueError, match="'n'"):
            parse_config_text("n = lots")

    def test_bad_boolean_rejected(self):
        with pytest.raises(ValueError, match="boolean"):
            parse_config_text("monitor = maybe")

    def test_config_keys_cover_example(self):
        for key in ("n", "p", "strategy", "p_min", "monitor", "penalty",
                    "ral3_rate", "budget_fraction"):
            assert key in CONFIG_KEYS

    def test_config_keys_are_pinned(self):
        """Deriving the keys from the config dataclasses keeps the same 35 names."""
        assert CONFIG_KEYS == [
            "budget_fraction", "class_sep", "dataset", "epsilon", "eval_every",
            "ewma_weight", "flip_share", "flip_warmup", "horizon",
            "informative_reward", "label_column", "ld1_sparsity", "ld1_window",
            "ld2_sparsity", "ld2_window", "limit_width", "max_iter", "monitor", "n",
            "noise_share", "p", "p_min", "penalty", "penalty_strength",
            "positive_share", "ral1_rate", "ral1_threshold", "ral2_rate",
            "ral2_threshold", "ral3_rate", "ral3_threshold", "redundant_reward",
            "spf1_window", "strategy", "us_threshold",
        ]

    def test_readme_example_parses_and_names_every_key(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"),
                          re.S).group(1)
        assert parse_config_text(block).dataset is None
        uncommented = re.sub(r"^# (\w+ =)", r"\1", block, flags=re.M)
        assert parse_config_text(uncommented).dataset == "data.csv"
        named = set(re.findall(r"^(?:# )?(\w+) =", block, re.M))
        assert set(CONFIG_KEYS) <= named

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("strategy = ld1\nn = 600\n", encoding="utf-8")
        cfg = load_experiment_config(str(path))
        assert cfg.strategy == "ld1"
        assert cfg.generator.n == 600

    def test_load_from_a_file_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("strategy = ld1\nn = 600\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        cfg = load_experiment_config(str(path))
        assert cfg.strategy == "ld1"
        assert cfg.generator.n == 600


    @settings(max_examples=400, deadline=None)
    @given(st.data(), st.integers(0, 2**32 - 1))
    def test_every_accepted_config_runs_clean(self, data, seed):
        """One to three keys drawn from every key but the CSV route's, on a
        short generated stream: the parse rejects the config with a message,
        or a run finishes with finite accuracies, rewards and weights (a
        numpy warning fails the test)."""
        keys = data.draw(st.lists(st.sampled_from(sorted(_DRAWN_VALUES)), unique=True,
                                  min_size=1, max_size=3))
        lines = {"n": data.draw(st.integers(21, 80)), "p": data.draw(st.integers(2, 5))}
        lines.update({key: data.draw(_DRAWN_VALUES[key], label=key) for key in keys})
        try:
            config = parse_config_text("\n".join(f"{k} = {v}" for k, v in lines.items()))
        except ValueError as exc:
            assert str(exc)
            return
        metrics = run_experiment(config, seed)
        values = [metrics.initial_accuracy, metrics.final_accuracy, metrics.cumulative_reward]
        for record in metrics.records:
            values += [record.reward, *record.weights]
            if record.accuracy is not None:
                values.append(record.accuracy)
        assert all(math.isfinite(v) for v in values)


class TestExperimentConfig:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            ExperimentConfig(strategy="oracle")

    def test_budget_fraction_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(budget_fraction=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(budget_fraction=1.5)

    def test_roster_sizes(self):
        sizes = {"ensemble2": 2, "ensemble4": 4, "ensemble6": 6,
                 "ld1": 1, "spf1": 1, "ral2": 1, "us": 1, "rs": 1}
        for strategy, expected in sizes.items():
            assert len(roster(strategy)) == expected

    def test_strategy_list_matches_rosters(self):
        for strategy in STRATEGIES:
            assert roster(strategy)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_roster_members_carry_their_own_settings(self, strategy):
        """Every member has its exact type, in roster order, and its own
        settings; the window agents share one window one longer than the
        longest of their lengths, and a roster without one builds none."""
        names = harness._ROSTERS[strategy]
        window, agents = replace(DISTINCT_AGENT_SETTINGS, strategy=strategy).build_roster(37, 500)
        assert [type(agent) for agent in agents] == [AGENT_SPECS[name][0] for name in names]
        for agent, name in zip(agents, names):
            settings = AGENT_SPECS[name][1]
            assert {key: getattr(agent, key) for key in settings} == settings
        lengths = [AGENT_SPECS[name][1]["length"] for name in names
                   if "length" in AGENT_SPECS[name][1]]
        if not lengths:
            assert window is None
            return
        assert window.capacity == max(lengths) + 1
        assert all(agent.window is window for agent in agents if hasattr(agent, "length"))

    def test_ensemble6_composition(self):
        agents = roster("ensemble6")
        assert isinstance(agents[0], LowDensityAgent)
        assert isinstance(agents[4], SpaceFillingAgent)
        for idx in (1, 3, 5):
            assert isinstance(agents[idx], CertaintyThresholdAgent)
            assert agents[idx].epsilon == 0.01
        assert [agents[i].length for i in (0, 2, 4)] == [100, 150, 60]
        assert agents[0].window is agents[2].window is agents[4].window
        assert agents[0].window.capacity == 151  # the longest length plus the sample
        assert agents[1].threshold == 0.95
        assert agents[1].learning_rate == 0.005
        assert agents[3].learning_rate == 0.01
        assert agents[5].threshold == 0.90
        assert agents[5].penalty == -0.5

    def test_reward_level_defaults(self):
        config = ExperimentConfig()
        assert (config.informative_reward, config.redundant_reward) == (1.0, 0.5)

    def test_reward_levels_validated(self):
        for levels, message in (
                ({"informative_reward": 0.0}, "informative reward must lie in (0, 1], got 0.0"),
                ({"informative_reward": 0.5, "redundant_reward": 0.5},
                 "redundant reward must stay below informative"),
                ({"informative_reward": 1.5}, "informative reward must lie in (0, 1], got 1.5")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ExperimentConfig(**levels)
        ExperimentConfig(informative_reward=1.0, redundant_reward=0.999)

    def test_exploration_agents_have_no_epsilon_floor(self):
        agents = roster("ensemble6")
        for idx in (0, 2, 4):
            assert not hasattr(agents[idx], "epsilon")

    def test_random_baseline_rate_from_budget(self):
        agent, = roster("rs")
        assert isinstance(agent, RandomBaseline)
        assert agent.rate == pytest.approx(0.1)

    def test_uncertainty_baseline_threshold(self):
        agent, = roster("us")
        assert isinstance(agent, UncertaintyBaseline)
        assert agent.threshold == 0.7

    def test_every_solver_setting_reaches_the_solver(self, split):
        cfg = parse_config_text("horizon = 60\np_min = 0.2\newma_weight = 0.5\n"
                                "limit_width = 3\nflip_warmup = 4\nmonitor = off")
        assert cfg.solver == SolverConfig(
            horizon=60, p_min=0.2, ewma_weight=0.5, limit_width=3.0,
            flip_warmup=4, monitor=False)
        assert StreamRunner(cfg, 0, split).ensemble.config is cfg.solver


class TestStreamRunner:
    def test_budget_never_exceeded(self, split):
        metrics = StreamRunner(small_config("ensemble6"), 0, split).run()
        assert metrics.acquired <= split.budget
        for record in metrics.records:
            assert record.budget_used <= split.budget

    def test_budget_used_nondecreasing(self, split):
        metrics = StreamRunner(small_config("ensemble2"), 1, split).run()
        used = [r.budget_used for r in metrics.records]
        assert all(b - a in (0, 1) for a, b in zip(used, used[1:]))

    def test_actions_match_budget_accounting(self, split):
        metrics = StreamRunner(small_config("ensemble2"), 2, split).run()
        assert sum(r.action for r in metrics.records) == metrics.acquired

    @pytest.fixture(scope="class")
    def seed_three(self, split):
        return StreamRunner(small_config("ensemble2"), 3, split).run()

    def test_cumulative_reward_is_record_sum(self, seed_three):
        assert seed_three.cumulative_reward == pytest.approx(
            sum(r.reward for r in seed_three.records))

    def test_pass_steps_earn_nothing(self, seed_three):
        for record in seed_three.records:
            if record.action == 0:
                assert record.reward == 0.0

    def test_rewards_and_feedback_follow_the_configured_levels(self, split):
        """Away from the default levels, an informative acquisition pays
        ``informative`` and feeds it back, a redundant one pays ``redundant``
        and feeds back its negation, each only to the agents that voted at
        least 0.5; a pass pays nothing."""

        class Recording(Agent):
            def __init__(self, agent):
                self.agent = agent
                self.votes, self.feedback = [], {}  # feedback: vote index -> reward

            def propose(self, ctx):
                self.votes.append(self.agent.propose(ctx))
                return self.votes[-1]

            def reinforce(self, signed_reward):
                self.feedback[len(self.votes) - 1] = signed_reward
                self.agent.reinforce(signed_reward)

        config = small_config("ensemble6", informative_reward=0.8, redundant_reward=0.25)
        runner = StreamRunner(config, 0, split)
        assert [agent.penalty for agent in runner.agents[1::2]] == [-0.25] * 3  # the ral agents
        runner.agents = [Recording(agent) for agent in runner.agents]
        acquired, low_votes = {True: 0, False: 0}, 0
        for row, label in zip(split.stream_features, split.stream_labels):
            p1 = runner.model.positive_proba(row)
            informative = bool(int(p1 > 1.0 - p1) != label)
            record = runner.step(row, int(label))
            if not record.action:
                assert record.reward == 0.0
                continue
            acquired[informative] += 1
            reward, feedback = (0.8, 0.8) if informative else (0.25, -0.25)
            assert record.reward == reward
            step = len(runner.agents[0].votes) - 1
            for agent in runner.agents:
                if agent.votes[step] >= 0.5:
                    assert agent.feedback.pop(step) == feedback
                else:
                    low_votes += 1
        assert acquired[True] and acquired[False] and low_votes
        # every feedback left went to a pass or to a vote below 0.5
        assert [agent.feedback for agent in runner.agents] == [{}] * 6

    def test_evaluation_cadence(self, split):
        config = small_config("rs", eval_every=25)
        metrics = StreamRunner(config, 4, split).run()
        n_steps = split.stream_labels.shape[0]
        for record in metrics.records:
            expected = (record.t % 25 == 0) or (record.t == n_steps)
            assert (record.accuracy is not None) == expected

    def test_run_is_deterministic(self, split):
        first = StreamRunner(small_config("ensemble2"), 5, split).run()
        second = StreamRunner(small_config("ensemble2"), 5, split).run()
        assert first.records == second.records
        assert first.final_accuracy == second.final_accuracy
        assert first.acquired == second.acquired

    def test_seeds_differ(self, split):
        first = StreamRunner(small_config("rs"), 6, split).run()
        second = StreamRunner(small_config("rs"), 7, split).run()
        assert first.records != second.records

    def test_random_baseline_acquisition_band(self):
        """With a 10% budget the random baseline lands near 48 of 480 draws."""
        for seed in (0, 1, 2):
            assert 28 <= run("rs", SMALL_GEN, seed).metrics.acquired <= 68

    def test_positive_fraction_counts_acquired_positives(self, split):
        metrics = StreamRunner(small_config("rs"), 8, split).run()
        assert 0.0 <= metrics.positive_fraction <= 1.0
        assert metrics.n_experts == 1

    def test_weights_in_records_sum_to_one(self, split):
        metrics = StreamRunner(small_config("ensemble4"), 9, split).run()
        for record in metrics.records:
            assert len(record.weights) == 4
            assert sum(record.weights) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("budget_left", [True, False], ids=["budget-left", "budget-spent"])
    @pytest.mark.parametrize("strategy", ["rs", "ensemble2"], ids=["no-window", "window"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "short", "label-0.7", "label-2",
                                     "label-nan", "label-None"])
    def test_rejected_row_leaves_the_runner_as_it_was(self, split, strategy, budget_left, bad):
        """A bad row or label, None included, fails before the step counter,
        the rng, the weights, the pool or the window move, whether or not
        budget is left; with every label bought, a bad label would otherwise
        be pooled."""
        runner = StreamRunner(small_config(strategy, budget_fraction=1.0), 15, split)
        for i in range(5):
            runner.step(split.stream_features[i], int(split.stream_labels[i]))
        if not budget_left:
            runner.budget_used = split.budget
        row = split.stream_features[5].copy()
        label = int(split.stream_labels[5])
        if bad == "short":
            row = row[:-1]
        elif bad == "label-None":
            label = None
        elif bad.startswith("label"):
            label = float(bad.removeprefix("label-"))
        else:
            row[1] = np.nan if bad == "nan" else np.inf

        def state():
            window = runner.window
            return (runner.t, runner.budget_used, runner.rng.bit_generator.state,
                    np.array(runner.ensemble.weights).tobytes(), len(runner.pool),
                    None if window is None else
                    (len(window), *[a.tobytes() for a in (*window.farthest(),
                                                           *window.nearest())]))

        before = state()
        message = {"short": "expected", "nan": "non-finite", "inf": "non-finite"}
        with pytest.raises(ValueError, match=message.get(bad, "label must be 0 or 1")):
            runner.step(row, label)
        assert state() == before

    @pytest.mark.parametrize("label", [0, 1, 0.0, 1.0, True, np.int64(1)])
    def test_labels_equal_to_0_or_1_are_pooled_as_ints(self, split, label):
        runner = StreamRunner(small_config("rs", budget_fraction=1.0), 15, split)
        runner.agents[0].rate = 1.0
        pooled = len(runner.pool)
        while len(runner.pool) == pooled:
            runner.step(split.stream_features[0], label)
        assert runner.pool.labels[-1] == int(label)

    def test_records_carry_the_standardized_weights_bit_for_bit(self, split):
        """Every record's weights are ``weights / weights.sum()`` of the solver
        after the step, bit for bit, through flips, a 2^512 rescale at
        ``horizon = 1`` and the steps after the budget ran out."""
        solver = SolverConfig(horizon=1, limit_width=0.01, flip_warmup=2)
        runner = StreamRunner(small_config("ensemble2", solver=solver,
                                           budget_fraction=0.3), 16, split)
        runner.ensemble.set_weights([2.0 ** 511, 2.0 ** 510])
        rescaled = flipped = after_budget = 0
        for i, (row, label) in enumerate(zip(split.stream_features, split.stream_labels)):
            total = float(np.array(runner.ensemble.weights).sum())
            active = runner.budget_used < split.budget
            record = runner.step(row, int(label))
            weights = np.array(runner.ensemble.weights)
            expected = (weights / weights.sum()).tolist()
            assert all(type(w) is float for w in record.weights)
            assert np.array(record.weights).tobytes() == np.array(expected).tobytes(), i
            rescaled += float(weights.sum()) < total * 2.0 ** -400
            flipped += record.flipped
            after_budget += not active
        assert rescaled and flipped and after_budget

    def test_roster_without_window_agent_builds_no_window(self, split):
        assert StreamRunner(small_config("rs"), 12, split).window is None

    def test_window_holds_the_seed_pool_and_every_active_step(self, split):
        """The shared window gets each initial row and each active step's row once."""
        runner = StreamRunner(small_config("ensemble6"), 13, split)
        metrics = runner.run()
        used_before = [0] + [r.budget_used for r in metrics.records[:-1]]
        active = sum(used < split.budget for used in used_before)
        assert 0 < active < len(metrics.records)
        seen = np.vstack([split.initial_features, split.stream_features[:active]])
        assert runner.window.capacity == 151
        assert_window_holds(runner.window, seen[-151:])

    def test_window_longer_than_the_run_holds_only_its_rows(self, split):
        """A window length no run fills still runs: the window's arrays grow
        with its members, so the run allocates for the rows it pushes."""
        runner = StreamRunner(small_config("ensemble6", ld1_window=100_000_000), 14, split)
        assert runner.window.capacity == 100_000_001
        metrics = runner.run()
        assert metrics.acquired > 0
        used_before = [0] + [r.budget_used for r in metrics.records[:-1]]
        active = sum(used < split.budget for used in used_before)
        assert_window_holds(runner.window, np.vstack([split.initial_features,
                                                      split.stream_features[:active]]))

    def test_test_set_is_scored_once_per_model(self, split, monkeypatch):
        """An evaluation reuses the last accuracy while the model is the one it
        was scored from; each accuracy has the bits of the boolean mean."""
        scored = []
        predict_batch = LogisticModel.predict_batch

        def counting(model, X):
            scored.append(model)
            return predict_batch(model, X)

        monkeypatch.setattr(LogisticModel, "predict_batch", counting)
        runner = StreamRunner(small_config("ensemble2"), 17, split)
        metrics = runner.run()
        evaluations = sum(r.accuracy is not None for r in metrics.records) + 1
        assert len({id(model) for model in scored}) == len(scored) < evaluations
        expected = float((predict_batch(runner.model, split.test_features)
                          == split.test_labels).mean())
        assert metrics.final_accuracy.hex() == expected.hex()
        runner.model = fit_logistic(runner.pool.features, runner.pool.labels)
        runner.test_accuracy()
        assert scored[-1] is runner.model

    def test_initial_accuracy_from_seed_pool(self, split):
        runner = StreamRunner(small_config("rs"), 11, split)
        assert 0.0 <= runner.test_accuracy() <= 1.0
        assert len(runner.pool) == split.initial_labels.shape[0]


def runner_state(runner) -> dict:
    """Everything a step can move, each part comparable with ``==`` but the
    model, which a refit replaces and nothing edits in place."""
    window, solver = runner.window, runner.ensemble
    return {
        "t": runner.t,
        "rng": runner.rng.bit_generator.state,
        "pool": (runner.pool.features.tobytes(), runner.pool.labels.tobytes()),
        "budget": (runner.budget_used, runner.acquired_positive),
        "model": runner.model,
        "weights": solver.weights,
        "chart": (solver.ewma, solver.obs_mean, solver.obs_m2, solver.limit_width,
                  solver.steps, solver.flips),
        "thresholds": [getattr(agent, "threshold", None) for agent in runner.agents],
        "window": None if window is None else
        (len(window), *[a.tobytes() for a in (*window.farthest(), *window.nearest())]),
    }


def moved(before: dict, after: dict) -> set:
    return {key for key in before
            if (after[key] is not before[key] if key == "model" else after[key] != before[key])}


_ROWS = st.integers(0, 10**6)  # an index into the stream, taken modulo its length


class StreamRunnerMachine(RuleBasedStateMachine):
    """Arbitrary sequences of good and bad steps on a runner over a short split
    (``n`` 21-80, ``p`` 2-5, any strategy, ``budget_fraction`` up to 1.0).

    A good step takes a stream row and a label of 0 or 1; a bad one takes a
    short row, a row with a NaN or an infinity, or a label of None, 2, -1,
    0.5 or "1". Every step runs with ``evaluate`` drawn. A rejected step moves
    nothing, a step after the budget is spent moves only ``t``, and the model
    changes exactly on an acquiring step."""

    @initialize(strategy=st.sampled_from(STRATEGIES), n=st.integers(21, 80),
                p=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
                budget_fraction=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)))
    def build(self, strategy, n, p, seed, budget_fraction):
        config = ExperimentConfig(strategy=strategy, generator=GeneratorConfig(n=n, p=p),
                                  budget_fraction=budget_fraction)
        split = scenario_split(generate(replace(config.generator, seed=seed)), seed,
                               budget_fraction)
        self.runner = StreamRunner(config, seed, split)
        self.initial_rows = len(self.runner.pool)

    def row(self, index):
        rows = self.runner.split.stream_features
        return rows[index % rows.shape[0]].copy()

    def rejected(self, row, label, evaluate, message):
        before = runner_state(self.runner)
        with pytest.raises(ValueError, match=message):
            self.runner.step(row, label, evaluate=evaluate)
        assert moved(before, runner_state(self.runner)) == set()

    @rule(index=_ROWS, label=st.sampled_from([0, 1]), evaluate=st.booleans())
    def good_step(self, index, label, evaluate):
        runner = self.runner
        spent = runner.budget_used == runner.split.budget
        before = runner_state(runner)
        record = runner.step(self.row(index), label, evaluate=evaluate)
        changed = moved(before, runner_state(runner))
        event("budget spent" if spent else "acquired" if record.action else "passed")
        assert record.t == runner.t == before["t"] + 1
        assert record.budget_used == runner.budget_used
        assert (record.accuracy is not None) == evaluate
        if spent:
            assert changed == {"t"}
            assert (record.action, record.reward, record.flipped) == (0, 0.0, False)
        assert ("model" in changed) == ("pool" in changed) == bool(record.action)
        if record.action:
            assert runner.pool.labels[-1] == label
            assert runner.budget_used == before["budget"][0] + 1

    @rule(index=_ROWS, label=st.sampled_from([0, 1]), evaluate=st.booleans(),
          bad=st.sampled_from(["short", "nan", "inf"]))
    def bad_row(self, index, label, evaluate, bad):
        row = self.row(index)
        if bad == "short":
            row = row[:-1]
        else:
            row[index % row.size] = np.nan if bad == "nan" else np.inf
        self.rejected(row, label, evaluate, "expected" if bad == "short" else "non-finite")

    @rule(index=_ROWS, label=st.sampled_from([None, 2, -1, 0.5, "1"]), evaluate=st.booleans())
    def bad_label(self, index, label, evaluate):
        self.rejected(self.row(index), label, evaluate, "label must be 0 or 1")

    @invariant()
    def budget_and_pool_agree(self):
        runner = self.runner
        assert runner.budget_used <= runner.split.budget
        assert len(runner.pool) == self.initial_rows + runner.budget_used
        assert runner.acquired_positive <= runner.budget_used

    @invariant()
    def standardized_weights_are_a_distribution(self):
        weights = self.runner.ensemble.standardized
        assert all(math.isfinite(w) and w > 0.0 for w in weights)
        assert math.fsum(weights) == pytest.approx(1.0, rel=0, abs=8 * 2.0**-52)


TestStreamRunnerMachine = StreamRunnerMachine.TestCase
TestStreamRunnerMachine.settings = settings(max_examples=100, stateful_step_count=30,
                                            deadline=None)


class TestReplication:
    @pytest.fixture(scope="class")
    def summary(self):
        return run_replications(small_config("rs"), (0, 1))

    def test_requires_two_seeds(self):
        with pytest.raises(ValueError, match="two seeds"):
            run_replications(small_config("rs"), [0])

    def test_repeated_seed_rejected_before_any_run(self, monkeypatch):
        def no_run(config, seed):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        with pytest.raises(ValueError, match=r"distinct seeds; repeated: \[0\]"):
            run_replications(small_config("rs"), [0, 1, 0])

    def test_repeated_strategy_rejected(self):
        with pytest.raises(ValueError, match=r"distinct strategies; repeated: \['rs'\]"):
            strategy_configs(small_config("rs"), ["rs", "us", "rs"])
        configs = strategy_configs(small_config("rs"), ["us", "rs"])
        assert [c.strategy for c in configs] == ["us", "rs"]

    def test_summary_means_match_individual_runs(self, summary):
        singles = [run("rs", SMALL_GEN, s).metrics for s in (0, 1)]
        accs = [r.final_accuracy for r in singles]
        assert summary.final_accuracy[0] == pytest.approx(np.mean(accs))
        assert summary.final_accuracy[1] == pytest.approx(
            np.std(accs, ddof=1) / np.sqrt(2))
        assert summary.acquired[0] == pytest.approx(
            np.mean([r.acquired for r in singles]))
        assert summary.seeds == (0, 1)
        assert len(summary.runs) == 2

    def test_summary_table_layout(self, summary):
        text = summary_table([summary])
        lines = text.strip().split("\n")
        assert lines[0] == ("strategy,n_seeds,final_accuracy_mean,"
                            "final_accuracy_se,acquired_mean,acquired_se,"
                            "positive_fraction_mean,positive_fraction_se,"
                            "cumulative_reward_mean,cumulative_reward_se")
        cells = lines[1].split(",")
        assert cells[0] == "rs"
        assert cells[1] == "2"
        assert float(cells[2]) == summary.final_accuracy[0]


class TestCsvStreamIO:
    def test_round_trip_through_interchange_format(self, tmp_path):
        data = generate(GeneratorConfig(n=40, p=3, seed=5))
        path = str(tmp_path / "data.csv")
        write_dataset_csv(Dataset(data.features, data.labels), path)
        features, labels = load_csv_stream(path)
        np.testing.assert_array_equal(features, data.features)
        np.testing.assert_array_equal(labels, data.labels)

    def test_header_names_features_in_order(self, tmp_path):
        data = generate(GeneratorConfig(n=40, p=3, seed=5))
        path = str(tmp_path / "data.csv")
        write_dataset_csv(Dataset(data.features, data.labels), path)
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
        assert header == "f1,f2,f3,label"

    def test_label_column_position_is_flexible(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("label,x1,x2\n1,0.5,2.0\n0,1.5,3.0\n", encoding="utf-8")
        features, labels = load_csv_stream(str(path))
        np.testing.assert_array_equal(features, [[0.5, 2.0], [1.5, 3.0]])
        np.testing.assert_array_equal(labels, [1, 0])

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        """Spreadsheet "CSV UTF-8" exports start with a byte order mark."""
        path = tmp_path / "data.csv"
        path.write_text("label,x1\n1,0.5\n0,1.5\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        features, labels = load_csv_stream(str(path))
        np.testing.assert_array_equal(features, [[0.5], [1.5]])
        np.testing.assert_array_equal(labels, [1, 0])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty file"):
            load_csv_stream(str(path))

    def test_missing_label_column_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,f2\n1.0,2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no 'label' column"):
            load_csv_stream(str(path))

    @pytest.mark.parametrize("header, name", [
        ("f1,label,label", "'label'"),
        ("f1,f2,f1,label", "'f1'"),
        ("f1, label ,label", "'label'"),
    ], ids=["label", "feature", "after-strip"])
    def test_repeated_column_name_rejected(self, tmp_path, header, name):
        """A repeated label column would otherwise be read as a feature."""
        path = tmp_path / "data.csv"
        cells = ",".join(["1"] * len(header.split(",")))
        path.write_text(f"{header}\n{cells}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"repeated column name.*{name}"):
            load_csv_stream(str(path))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,label\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv_stream(str(path))

    def test_ragged_row_error_names_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,f2,label\n1.0,2.0,1\n3.0,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 2"):
            load_csv_stream(str(path))

    def test_non_numeric_feature_error_names_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,label\nok,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 1.*non-numeric"):
            load_csv_stream(str(path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "+Infinity"])
    def test_non_finite_feature_error_names_row(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"f1,f2,label\n1.0,2.0,1\n3.0,{cell},0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 2: non-finite feature cell"):
            load_csv_stream(str(path))

    def test_non_binary_label_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,label\n1.0,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="label must be 0 or 1"):
            load_csv_stream(str(path))

    def test_default_roster_runs_on_a_short_csv(self, tmp_path):
        """The default ensemble6 windows (up to 150) outlast a 100-row
        case study, whose run pushes only the 67 training rows."""
        data = generate(GeneratorConfig(n=100, p=3, seed=5))
        path = str(tmp_path / "data.csv")
        write_dataset_csv(Dataset(data.features, data.labels), path)
        metrics = run_experiment(ExperimentConfig(dataset=path), 4)
        assert metrics.n_experts == 6 and metrics.acquired > 0


class TestExportResults:
    def test_metrics_csv_layout(self, metrics, tmp_path):
        paths = export_results(metrics, str(tmp_path))
        with open(paths["metrics"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "action", "reward", "budget_used",
                           "test_accuracy"]
        assert len(rows) - 1 == len(metrics.records)
        for row, record in zip(rows[1:], metrics.records):
            assert int(row[0]) == record.t
            assert int(row[1]) == record.action
            assert float(row[2]) == record.reward
            assert int(row[3]) == record.budget_used
            if record.accuracy is None:
                assert row[4] == ""
            else:
                assert float(row[4]) == record.accuracy

    def test_trajectory_csv_layout(self, metrics, tmp_path):
        paths = export_results(metrics, str(tmp_path))
        with open(paths["trajectory"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "alpha_s_1", "alpha_s_2", "flipped"]
        for row in rows[1:]:
            weights = [float(c) for c in row[1:3]]
            assert sum(weights) == pytest.approx(1.0, abs=1e-9)
            assert row[3] in ("0", "1")

    def test_summary_json_contents(self, metrics, tmp_path):
        paths = export_results(metrics, str(tmp_path))
        with open(paths["summary"], encoding="utf-8") as fh:
            summary = json.load(fh)
        assert set(summary) == {"strategy", "seed", "final_accuracy",
                                "acquired", "positive_fraction",
                                "cumulative_reward", "mean_step_seconds"}
        assert summary["strategy"] == "ensemble2"
        assert summary["seed"] == 0
        assert summary["final_accuracy"] == metrics.final_accuracy
        assert summary["acquired"] == metrics.acquired
        assert summary["cumulative_reward"] == metrics.cumulative_reward

    def test_repeat_runs_export_identical_bytes(self, tmp_path):
        """Two runs of the same seeded config agree byte for byte on every
        output except the wall-clock timing field."""
        config = small_config("ensemble2")
        dirs = []
        for name in ("a", "b"):
            out = tmp_path / name
            export_results(run_experiment(config, 0), str(out))
            dirs.append(out)
        for filename in ("metrics.csv", "trajectory.csv"):
            first = (dirs[0] / filename).read_bytes()
            second = (dirs[1] / filename).read_bytes()
            assert first == second
        summaries = [json.loads((d / "summary.json").read_text()) for d in dirs]
        for s in summaries:
            s.pop("mean_step_seconds")
        assert summaries[0] == summaries[1]

    def test_empty_run_exports_header_only(self, tmp_path):
        empty = RunMetrics(strategy="rs", seed=0, n_experts=1,
                           initial_accuracy=0.5, final_accuracy=0.5,
                           acquired=0, positive_fraction=0.0,
                           cumulative_reward=0.0, mean_step_seconds=0.0,
                           records=[])
        paths = export_results(empty, str(tmp_path))
        with open(paths["metrics"], encoding="utf-8") as fh:
            assert fh.read() == "t,action,reward,budget_used,test_accuracy\n"

    def test_no_temp_files_left_behind(self, metrics, tmp_path):
        export_results(metrics, str(tmp_path))
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []


class TestLearnerConfigThroughHarness:
    def test_learner_settings_reach_the_model(self):
        config = small_config("rs", learner=LearnerConfig(penalty="l2",
                                                          strength=0.1))
        metrics = run_experiment(config, 0)
        assert 0.0 <= metrics.final_accuracy <= 1.0
