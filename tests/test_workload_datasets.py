"""Unit tests for the synthetic quality datasets."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.workload.datasets import ClusterClassificationDataset, MarkovLMDataset


class TestClusterClassification:
    def test_shapes(self, rng):
        ds = ClusterClassificationDataset(num_classes=5, num_clusters=4, input_dim=8)
        x, y, c = ds.sample(32, rng)
        assert x.shape == (32, 8)
        assert y.shape == (32,)
        assert c.shape == (32,)

    def test_labels_in_range(self, rng):
        ds = ClusterClassificationDataset(num_classes=5)
        _, y, _ = ds.sample(256, rng)
        assert y.min() >= 0 and y.max() < 5

    def test_labels_deterministic_given_cluster_and_input(self):
        """Same seed + same rng state -> identical batches."""
        ds = ClusterClassificationDataset(seed=3)
        a = ds.sample(16, np.random.default_rng(0))
        b = ds.sample(16, np.random.default_rng(0))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_cluster_skew_applied(self, rng):
        ds = ClusterClassificationDataset(num_clusters=8, cluster_skew=2.0)
        _, _, clusters = ds.sample(20_000, rng)
        freq = np.bincount(clusters, minlength=8)
        assert freq.max() > 2 * freq.min()

    def test_labels_depend_on_cluster_structure(self, rng):
        """Low-noise inputs from one cluster mostly share a label pattern
        distinct from another cluster's — the expert-specialization hook."""
        ds = ClusterClassificationDataset(
            num_classes=8, num_clusters=4, input_dim=16, noise=0.05, seed=1
        )
        x, y, c = ds.sample(2000, rng)
        per_cluster_majority = []
        for cluster in range(4):
            labels = y[c == cluster]
            if labels.size:
                counts = np.bincount(labels, minlength=8)
                per_cluster_majority.append(counts.max() / labels.size)
        assert np.mean(per_cluster_majority) > 0.5

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            ClusterClassificationDataset(num_classes=1)
        with pytest.raises(ConfigurationError):
            ClusterClassificationDataset(noise=-1)

    def test_rejects_bad_batch(self, rng):
        with pytest.raises(ConfigurationError):
            ClusterClassificationDataset().sample(0, rng)


class TestMarkovLM:
    def test_shapes_and_ranges(self, rng):
        ds = MarkovLMDataset(vocab_size=16, num_states=4)
        tokens, states = ds.sample(8, 20, rng)
        assert tokens.shape == (8, 20)
        assert states.shape == (8, 20)
        assert tokens.min() >= 0 and tokens.max() < 16
        assert states.min() >= 0 and states.max() < 4

    def test_stickiness_keeps_state_runs(self, rng):
        ds = MarkovLMDataset(num_states=4, stickiness=0.95, seed=0)
        _, states = ds.sample(16, 50, rng)
        stays = (states[:, 1:] == states[:, :-1]).mean()
        assert stays > 0.85

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            MarkovLMDataset(vocab_size=1)
        with pytest.raises(ConfigurationError):
            MarkovLMDataset(stickiness=1.0)
        with pytest.raises(ConfigurationError):
            MarkovLMDataset(emission_concentration=0)
