"""Tests for the synthetic stream generator and the two splitters."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from streamacq.datagen import (
    CASE_STUDY_POOL_SIZE,
    INITIAL_POOL_SIZE,
    STAGE_CASE_SPLIT,
    TEST_PER_CLASS,
    Dataset,
    GeneratorConfig,
    _cluster_centroids,
    case_study_split,
    generate,
    scenario_split,
)
from streamacq.learner import LearnerConfig, fit_logistic


class TestGeneratorConfig:
    def test_derived_counts(self):
        cfg = GeneratorConfig(n=1000, p=15, noise_share=0.30)
        assert cfg.noise_features == 4
        assert cfg.informative_features == 11
        assert cfg.total_size == 1500

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n=0, p=5)
        with pytest.raises(ValueError):
            GeneratorConfig(n=100, p=5, positive_share=0.0)
        with pytest.raises(ValueError):
            GeneratorConfig(n=100, p=5, flip_share=1.0)
        with pytest.raises(ValueError):
            GeneratorConfig(n=100, p=5, class_sep=0.0)
        with pytest.raises(ValueError):
            # 2 features at 60% noise leaves too few informative ones
            GeneratorConfig(n=100, p=2, noise_share=0.6)


class TestCentroids:
    def test_distinct_hypercube_vertices(self):
        for q in (2, 3, 7):
            cents = _cluster_centroids(q, 1.5)
            assert cents.shape == (4, q)
            assert np.all(np.abs(cents) == 1.5)
            assert len({tuple(row) for row in cents}) == 4

    def test_classes_linearly_separated(self):
        """Alternating vertices put each class on its own side of a hyperplane."""
        cents = _cluster_centroids(5, 1.0)
        even = cents[:, 0]  # class-carrying coordinate
        assert even[0] == even[2] == -1.0
        assert even[1] == even[3] == 1.0


class TestGenerate:
    def test_label_counts_before_flipping(self):
        data = generate(GeneratorConfig(n=500, p=2, positive_share=0.1))
        assert int(data.labels.sum()) == round(0.1 * 500) + TEST_PER_CLASS
        assert data.labels.size == 1000

    def test_shapes_and_feature_layout(self):
        cfg = GeneratorConfig(n=1000, p=15, noise_share=0.30)
        data = generate(cfg)
        assert data.features.shape == (1500, 15)

    def test_flip_count_is_exact(self):
        base = generate(GeneratorConfig(n=1000, p=3, seed=4))
        flipped = generate(GeneratorConfig(n=1000, p=3, seed=4, flip_share=0.03))
        assert int((base.labels != flipped.labels).sum()) == 30

    def test_same_seed_same_bytes(self):
        a = generate(GeneratorConfig(n=300, p=4, seed=12, noise_share=0.25))
        b = generate(GeneratorConfig(n=300, p=4, seed=12, noise_share=0.25))
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_different_seeds_differ(self):
        a = generate(GeneratorConfig(n=300, p=4, seed=0))
        b = generate(GeneratorConfig(n=300, p=4, seed=1))
        assert a.features.tobytes() != b.features.tobytes()

    def test_noise_stage_leaves_informative_columns_alone(self):
        plain = generate(GeneratorConfig(n=200, p=4, seed=7))
        padded = generate(GeneratorConfig(n=200, p=8, seed=7, noise_share=0.5))
        # same informative draw, so the sorted informative block matches
        assert plain.features.shape[1] == 4
        assert padded.features.shape[1] == 8

    def test_counts_match_arithmetic_for_random_configs(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            n = int(rng.integers(50, 400))
            p = int(rng.integers(2, 10))
            pc = float(rng.uniform(0.05, 0.5))
            sp = float(rng.uniform(0.0, 0.4))
            ds = float(rng.uniform(0.0, 0.1))
            cfg = GeneratorConfig(n=n, p=p, positive_share=pc,
                                  noise_share=sp, flip_share=ds,
                                  seed=int(rng.integers(1_000_000)))
            if cfg.informative_features < 2:
                continue
            base = generate(GeneratorConfig(n=n, p=p, positive_share=pc,
                                            noise_share=sp, seed=cfg.seed))
            data = generate(cfg)
            assert data.features.shape == (n + 2 * TEST_PER_CLASS, p)
            n_flipped = int((base.labels != data.labels).sum())
            assert n_flipped == int(np.floor(ds * n))
            assert int(base.labels.sum()) == round(pc * n) + TEST_PER_CLASS

    def test_well_separated_clusters_are_learnable(self):
        """A generous separation must make the classes easy for the learner."""
        for seed in range(3):
            cfg = GeneratorConfig(n=1000, p=5, class_sep=3.0, seed=seed)
            split = scenario_split(generate(cfg), seed)
            X = np.vstack([split.initial_features, split.stream_features])
            y = np.concatenate([split.initial_labels, split.stream_labels])
            model = fit_logistic(X, y, LearnerConfig())
            accuracy = float((model.predict_batch(split.test_features)
                              == split.test_labels).mean())
            assert accuracy >= 0.9, f"seed {seed}: {accuracy}"


class TestScenarioSplit:
    def test_budget_examples(self):
        assert scenario_split(generate(GeneratorConfig(n=500, p=2)), 0).budget == 48
        assert scenario_split(generate(GeneratorConfig(n=1000, p=2)), 0).budget == 98
        assert scenario_split(generate(GeneratorConfig(n=1500, p=2)), 0).budget == 148

    def test_partition_sizes_and_balance(self):
        data = generate(GeneratorConfig(n=500, p=2))
        split = scenario_split(data, 3)
        assert split.test_labels.size == 2 * TEST_PER_CLASS
        assert int(split.test_labels.sum()) == TEST_PER_CLASS
        assert split.initial_labels.size == INITIAL_POOL_SIZE
        assert split.stream_labels.size == 500 - INITIAL_POOL_SIZE
        total = (split.test_labels.size + split.initial_labels.size
                 + split.stream_labels.size)
        assert total == data.labels.size

    def test_initial_pool_sees_both_classes(self):
        for seed in range(20):
            data = generate(GeneratorConfig(n=500, p=2, positive_share=0.05,
                                            seed=seed))
            split = scenario_split(data, seed)
            assert set(np.unique(split.initial_labels)) == {0, 1}, f"seed {seed}"

    def test_deterministic_given_seed(self):
        data = generate(GeneratorConfig(n=400, p=3, seed=6))
        a = scenario_split(data, 9)
        b = scenario_split(data, 9)
        assert a.stream_features.tobytes() == b.stream_features.tobytes()
        assert a.test_features.tobytes() == b.test_features.tobytes()

    def test_rejects_insufficient_class_counts(self):
        features = np.zeros((600, 2))
        labels = np.zeros(600, dtype=int)
        labels[:100] = 1  # fewer than 250 positives
        with pytest.raises(ValueError):
            scenario_split(Dataset(features=features, labels=labels), 0)

    def test_budget_fraction_validation(self):
        data = generate(GeneratorConfig(n=300, p=2))
        with pytest.raises(ValueError):
            scenario_split(data, 0, budget_fraction=0.0)

    def test_rows_are_disjoint(self):
        data = generate(GeneratorConfig(n=300, p=3, seed=2))
        split = scenario_split(data, 2)
        pools = np.vstack([split.initial_features, split.stream_features,
                           split.test_features])
        # every generated row is used exactly once
        assert pools.shape[0] == data.features.shape[0]
        seen = {row.tobytes() for row in pools}
        assert len(seen) == len({row.tobytes() for row in data.features})

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(21, 3000), p=st.integers(2, 20),
           positive_share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           flip_share=st.floats(0.0, 1.0, exclude_max=True),
           noise_share=st.floats(0.0, 1.0, exclude_max=True),
           seed=st.integers(0, 2**32 - 1))
    def test_every_accepted_generator_config_splits(self, n, p, positive_share,
                                                    flip_share, noise_share, seed):
        """Whatever the shares, each class keeps its test rows, and the three
        roles partition the generated rows."""
        try:
            cfg = GeneratorConfig(n=n, p=p, positive_share=positive_share,
                                  flip_share=flip_share, noise_share=noise_share, seed=seed)
        except ValueError:
            assume(False)
        data = generate(cfg)
        # a row-number column rides along; the split reads only the labels
        tagged = Dataset(np.column_stack([data.features, np.arange(cfg.total_size)]),
                         data.labels)
        split = scenario_split(tagged, seed)
        assert np.bincount(split.test_labels, minlength=2).tolist() == [TEST_PER_CLASS] * 2
        rows = [roles[:, -1].astype(int) for roles in
                (split.test_features, split.initial_features, split.stream_features)]
        assert sorted(np.concatenate(rows).tolist()) == list(range(n + 2 * TEST_PER_CLASS))
        for ids, labels in zip(rows, (split.test_labels, split.initial_labels,
                                      split.stream_labels)):
            np.testing.assert_array_equal(labels, data.labels[ids])


class TestCaseStudySplit:
    def make_rows(self, n, p=2):
        features = np.arange(n * p, dtype=float).reshape(n, p)
        labels = (np.arange(n) % 2).astype(int)
        return features, labels

    def test_matches_wraparound_construction(self):
        n, seed = 100, 3
        features, labels = self.make_rows(n)
        split = case_study_split(features, labels, seed)
        rng = np.random.default_rng([seed, STAGE_CASE_SPLIT])
        start = int(rng.integers(n))
        test_idx = (start + np.arange(n // 3)) % n
        in_test = np.zeros(n, dtype=bool)
        in_test[test_idx] = True
        train_idx = np.flatnonzero(~in_test)
        np.testing.assert_array_equal(split.test_features, features[test_idx])
        np.testing.assert_array_equal(
            split.initial_features, features[train_idx[:CASE_STUDY_POOL_SIZE]])
        np.testing.assert_array_equal(
            split.stream_features, features[train_idx[CASE_STUDY_POOL_SIZE:]])

    def test_partition_sizes(self):
        features, labels = self.make_rows(90)
        split = case_study_split(features, labels, 0)
        assert split.test_labels.shape[0] == 30
        assert split.initial_labels.shape[0] == 10
        assert split.stream_labels.shape[0] == 50
        assert split.budget == round(0.10 * 50)

    def test_stream_keeps_original_order(self):
        features, labels = self.make_rows(120)
        split = case_study_split(features, labels, 7)
        first_col = split.stream_features[:, 0]
        assert np.all(np.diff(first_col) > 0)

    def test_partition_is_exact(self):
        features, labels = self.make_rows(75)
        split = case_study_split(features, labels, 5)
        seen = np.concatenate([split.initial_features[:, 0],
                               split.stream_features[:, 0],
                               split.test_features[:, 0]])
        assert sorted(seen.tolist()) == sorted(features[:, 0].tolist())

    def test_too_few_rows_rejected(self):
        features, labels = self.make_rows(29)
        with pytest.raises(ValueError, match="at least 30"):
            case_study_split(features, labels, 0)

    def test_initial_pool_cannot_swallow_stream(self):
        features, labels = self.make_rows(30)
        with pytest.raises(ValueError, match="nothing left"):
            case_study_split(features, labels, 0, initial_size=25)

    def test_budget_fraction_validated(self):
        features, labels = self.make_rows(60)
        with pytest.raises(ValueError, match="budget fraction"):
            case_study_split(features, labels, 0, budget_fraction=0.0)

    def test_deterministic_per_seed(self):
        features, labels = self.make_rows(80)
        one = case_study_split(features, labels, 4)
        two = case_study_split(features, labels, 4)
        np.testing.assert_array_equal(one.test_features, two.test_features)
        np.testing.assert_array_equal(one.stream_features, two.stream_features)
