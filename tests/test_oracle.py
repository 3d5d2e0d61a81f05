import numpy as np
import pytest

import tribefs as t

from conftest import make_blobs, make_tribe
from engine_reference import brute_force_histogram


class TestExhaustiveBestSubset:
    def test_finds_the_single_informative_feature(self):
        # Only column 2 separates the classes; the tie rules then prefer the
        # smallest subset, so the exact winner is that singleton.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 5))
        y = np.repeat([0, 1], 30)
        X[:, 2] = y * 8.0 + rng.normal(scale=0.1, size=60)
        dataset = t.dataset_from_arrays("needle", X, y)
        result = t.exhaustive_best_subset(dataset, t.FitnessProtocol(folds=5))
        assert result.best_accuracy == 100.0
        assert list(result.best_mask) == [0, 0, 1, 0, 0]
        assert result.evaluations == 2**5 - 1

    def test_beats_or_matches_every_subset(self):
        dataset = make_blobs(n_per_class=15, n_features=4, seed=1)
        protocol = t.FitnessProtocol(classifier="nearest-centroid", folds=3)
        result = t.exhaustive_best_subset(dataset, protocol)
        for code in range(1, 2**4):
            mask = np.array([(code >> i) & 1 for i in range(4)], dtype=np.uint8)
            assert result.best_accuracy >= t.kfold_accuracy(dataset, mask, protocol)

    def test_tie_breaks_prefer_fewer_features_then_low_mask(self):
        # Two identical columns: singleton {0} and singleton {1} tie, and
        # both beat the pair under the subset-size rule. The final tie falls
        # to byte order of the mask, where 01 sorts before 10.
        rng = np.random.default_rng(2)
        column = np.repeat([0.0, 6.0], 20) + rng.normal(scale=0.05, size=40)
        X = np.column_stack([column, column])
        y = np.repeat([0, 1], 20)
        dataset = t.dataset_from_arrays("twins", X, y)
        result = t.exhaustive_best_subset(dataset, t.FitnessProtocol(folds=4))
        assert result.best_accuracy == 100.0
        assert list(result.best_mask) == [0, 1]

    def test_refuses_wide_datasets_without_override(self):
        dataset = make_blobs(n_per_class=5, n_features=21, seed=3)
        with pytest.raises(ValueError, match="max_features=21"):
            t.exhaustive_best_subset(dataset)

    def test_scores_each_subset_once_and_stores_nothing(self, monkeypatch):
        # The oracle reads no score back, so it keeps none: each subset goes
        # to Evaluator.accuracy once, and no memo entry is ever written.
        dataset = make_blobs(n_per_class=10, n_features=3, seed=4)
        protocol = t.FitnessProtocol(classifier="nearest-centroid", folds=3)
        stored, scored = [], []
        monkeypatch.setattr(t.FitnessCache, "put", lambda self, *entry: stored.append(entry))
        accuracy = t.Evaluator.accuracy

        def recorded(evaluator, mask):
            scored.append((mask, accuracy(evaluator, mask)))
            return scored[-1][1]

        monkeypatch.setattr(t.Evaluator, "accuracy", recorded)
        result = t.exhaustive_best_subset(dataset, protocol)
        monkeypatch.undo()
        assert stored == []
        subsets = {mask.tobytes() for mask, _ in scored}
        assert len(scored) == len(subsets) == 7 == result.evaluations
        for mask, value in scored:
            assert value == t.kfold_accuracy(dataset, mask, protocol)
        assert result.best_accuracy == max(value for _, value in scored)

    def test_wall_time_recorded(self):
        dataset = make_blobs(n_per_class=10, n_features=3, seed=5)
        result = t.exhaustive_best_subset(
            dataset, t.FitnessProtocol(classifier="nearest-centroid", folds=3)
        )
        assert result.wall_time > 0.0


class TestBruteForceHistogram:
    def test_matches_vectorized_histogram(self):
        for seed in range(20):
            counts = {2: 3, 4: 5, 7: 2}
            tribe = make_tribe(counts, seed=seed)
            assert brute_force_histogram(tribe) == t.histogram(tribe) == counts
