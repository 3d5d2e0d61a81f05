import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import tribefs as t
from tribefs import fitness

from conftest import make_blobs
from fitness_reference import loop_predict, reference_kfold_accuracy, standardize
import svm_reference
from svm_reference import margin_objective, pair_problems, reference_linear_svm


def informative_mask(n_features=8, columns=(0, 1)):
    mask = np.zeros(n_features, dtype=np.uint8)
    mask[list(columns)] = 1
    return mask


class TestFitnessProtocol:
    def test_defaults(self):
        protocol = t.FitnessProtocol()
        assert protocol.classifier == "linear-svm"
        assert protocol.folds == 10
        assert protocol.fold_seed == 0
        assert protocol.regularization == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"classifier": "random-forest"},
            {"folds": 1},
            {"regularization": 0.0},
            {"fold_seed": -1},
            {"regularization": -1.0},
            {"regularization": float("nan")},
            {"regularization": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            t.FitnessProtocol(**kwargs)


class TestFitnessCache:
    def test_miss_then_hit(self):
        cache = t.FitnessCache()
        assert cache.get(b"k") is None
        assert (cache.lookups, cache.misses) == (1, 1)
        cache.put(b"k", 91.5)
        assert cache.get(b"k") == 91.5
        assert (cache.lookups, cache.misses) == (2, 1)
        assert len(cache) == 1
        assert b"k" in cache

    def test_counts_lookups_and_misses_over_repeated_keys(self):
        cache = t.FitnessCache()
        for i in range(200):
            key = bytes([i % 16])
            if cache.get(key) is None:
                cache.put(key, float(i))
        assert len(cache) == 16
        assert (cache.lookups, cache.misses) == (200, 16)
        # The first value stored under a key is the one every later lookup sees.
        stored = [cache.get(bytes([k])) for k in range(16)]
        assert stored == [float(k) for k in range(16)]
        assert (cache.lookups, cache.misses) == (216, 16)


class TestLinearSVM:
    def test_and_gate_weight_signs(self):
        # The pair machine's positive side belongs to the pair's first class
        # (label 0 here), so weights point away from the lone (1, 1) corner.
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 0, 0, 1])
        model = t.train_linear_svm(X, y, C=100.0)
        w = model.weights[0]
        assert w[0] < 0 and w[1] < 0
        assert model.biases[0] > 0
        assert model.converged
        assert np.array_equal(model.predict(X), y)

    def test_xor_is_not_linearly_separable(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        model = t.train_linear_svm(X, y, C=100.0)
        assert np.mean(model.predict(X) == y) <= 0.75

    def test_separable_blobs_are_perfect(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(-10.0, 1.0, (30, 3)), rng.normal(10.0, 1.0, (30, 3))])
        y = np.repeat([0, 1], 30)
        # A heavy penalty still separates perfectly.
        assert np.array_equal(t.train_linear_svm(X, y, C=1000.0).predict(X), y)
        model = t.train_linear_svm(X, y, C=10.0)
        assert np.array_equal(model.predict(X), y)
        assert model.converged

    def test_multiclass_one_vs_one(self):
        rng = np.random.default_rng(1)
        centers = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
        X = np.vstack([rng.normal(c, 1.0, (20, 2)) for c in centers])
        y = np.repeat([5, 7, 9], 20)  # labels need not be contiguous
        model = t.train_linear_svm(X, y, C=10.0)
        assert list(model.classes) == [5, 7, 9]
        assert len(model.pairs) == 3
        assert np.array_equal(model.predict(X), y)

    def test_boundary_votes_go_to_lower_class(self):
        model = t.LinearSVM(
            classes=np.array([3, 8]),
            pairs=((0, 1),),
            weights=np.zeros((1, 2)),
            biases=np.zeros(1),
            converged=True,
        )
        predictions = model.predict(np.array([[5.0, -2.0], [0.0, 0.0]]))
        assert list(predictions) == [3, 3]

    @pytest.mark.parametrize(
        "decisions, expected",
        [
            ([1.0, -1.0, 1.0], 0),  # 0 beats 1, 2 beats 0, 1 beats 2: a 1-1-1 tie
            ([-1.0, 1.0, -1.0], 0),  # 1 beats 0, 0 beats 2, 2 beats 1: a 1-1-1 tie
            ([-1.0, -1.0, 1.0], 1),  # 1 and 2 beat 0, 1 beats 2
            ([0.0, 0.0, 0.0], 0),  # on every boundary: each pair's lower class
            ([-1.0, -1.0, 0.0], 1),  # 1 and 2 tie on their own boundary
            ([-1.0, -1.0, -1.0], 2),
        ],
    )
    def test_vote_ties_and_boundaries_go_low(self, decisions, expected):
        # With zero weights a row's decisions are the biases; pairs are
        # (0, 1), (0, 2), (1, 2) and a positive decision votes for the first.
        model = t.LinearSVM(
            classes=np.array([4, 6, 9]),
            pairs=((0, 1), (0, 2), (1, 2)),
            weights=np.zeros((3, 2)),
            biases=np.array(decisions),
            converged=True,
        )
        X = np.ones((2, 2))
        assert list(model.predict(X)) == [model.classes[expected]] * 2
        assert np.array_equal(model.predict(X), loop_predict(model, X))

    @pytest.mark.parametrize("n_classes", [2, 3, 4, 5])
    def test_vote_matches_pair_loop(self, n_classes):
        # Small integer weights and inputs put many decisions exactly on a
        # boundary and many votes in ties.
        rng = np.random.default_rng(n_classes)
        pairs = tuple(
            (a, b) for a in range(n_classes) for b in range(a + 1, n_classes)
        )
        for _ in range(50):
            model = t.LinearSVM(
                classes=np.arange(n_classes) * 3 + 1,
                pairs=pairs,
                weights=rng.integers(-1, 2, size=(len(pairs), 3)).astype(float),
                biases=rng.integers(-1, 2, size=len(pairs)).astype(float),
                converged=True,
            )
            X = rng.integers(-2, 3, size=(40, 3)).astype(float)
            assert np.array_equal(model.predict(X), loop_predict(model, X))

    def test_single_class_raises(self):
        with pytest.raises(ValueError, match="two classes"):
            t.train_linear_svm(np.zeros((4, 2)), np.zeros(4))

    @pytest.mark.parametrize(
        "X, message",
        [
            (np.zeros((10, 2)), r"10 rows but y has shape \(8,\)"),
            (np.zeros((6, 2)), r"6 rows but y has shape \(8,\)"),
            (np.zeros(8), r"2-D .* shape \(8,\)"),
            (np.full((8, 2), np.nan), "NaN or infinite"),
            (np.full((8, 2), np.inf), "NaN or infinite"),
        ],
        ids=["extra-rows", "missing-rows", "one-dimensional", "nan", "inf"],
    )
    def test_rejects_inconsistent_input(self, X, message):
        with pytest.raises(ValueError, match=message):
            t.train_linear_svm(X, np.repeat([0, 1], 4))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"C": float("nan")}, "C must be positive and finite"),
            ({"C": float("inf")}, "C must be positive and finite"),
            ({"C": -1.0}, "C must be positive and finite"),
            ({"C": 0.0}, "C must be positive and finite"),
            ({"max_iter": 0}, "max_iter must be at least 1"),
            ({"max_iter": -1}, "max_iter must be at least 1"),
        ],
        ids=["nan-C", "inf-C", "negative-C", "zero-C", "zero-cap", "negative-cap"],
    )
    def test_rejects_bad_penalty_or_iteration_cap(self, kwargs, message):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(-3.0, 1.0, (20, 3)), rng.normal(3.0, 1.0, (20, 3))])
        with pytest.raises(ValueError, match=message):
            t.train_linear_svm(X, np.repeat([0, 1], 20), **kwargs)

    def test_pair_layout_refuses_training_sets_with_other_classes(self):
        with pytest.raises(ValueError, match="same classes"):
            fitness._pair_layout([np.array([0, 0, 1, 1]), np.array([0, 0, 2, 2])])
        with pytest.raises(ValueError, match="same classes"):
            fitness._pair_layout([np.array([0, 1, 2]), np.array([0, 1, 1])])

    def test_iteration_cap_reports_nonconvergence(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(-3.0, 1.0, (30, 4)), rng.normal(3.0, 1.0, (30, 4))])
        y = np.repeat([0, 1], 30)
        assert t.train_linear_svm(X, y, C=10.0).converged
        capped = t.train_linear_svm(X, y, C=10.0, max_iter=1)
        assert not capped.converged
        assert np.isfinite(capped.weights).all() and np.isfinite(capped.biases).all()

    @pytest.mark.parametrize("degenerate", ["constant", "duplicated"])
    def test_singular_system_gives_finite_model(self, degenerate, monkeypatch):
        # A huge penalty rounds the Newton system of a constant column (which
        # mirrors the bias) or of two equal columns to exactly singular.
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        y = np.repeat([0, 1], 20)
        X[:, 0] += 3.0 * y
        if degenerate == "constant":
            X[:, 2] = 5.0
        else:
            X[:, 1] = X[:, 0]
        fallbacks = []
        pinv = np.linalg.pinv
        monkeypatch.setattr(
            np.linalg, "pinv", lambda a: fallbacks.append(a.shape) or pinv(a)
        )
        model = t.train_linear_svm(X, y, C=1e18)
        assert fallbacks  # the singular path really ran
        assert np.isfinite(model.weights).all() and np.isfinite(model.biases).all()

    def test_solutions_are_pinned(self):
        # sha256 of every weight, bias and converged flag over 300 seeded
        # problems: 1-30 columns, 2-4 classes, C from 1e-3 to 1e3, and every
        # tenth problem with a column of -0.0.
        digest = hashlib.sha256()
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n_classes = int(rng.integers(2, 5))
            n_features = int(rng.integers(1, 31))
            n_rows = int(rng.integers(4, 13)) * n_classes
            y = rng.permutation(np.arange(n_rows) % n_classes)
            X = rng.normal(size=(n_rows, n_features))
            X += rng.uniform(0.0, 2.0) * y[:, None]
            if seed % 10 == 0:
                X[:, rng.integers(n_features)] = -0.0
            model = t.train_linear_svm(X, y, C=(1e-3, 1.0, 1e3)[seed % 3])
            digest.update(model.weights.tobytes())
            digest.update(model.biases.tobytes())
            digest.update(bytes([model.converged]))
        assert digest.hexdigest() == (
            "e30d34ce0e7a6cb48e04d05485b71b59cda145a54daef5820e32968b9ab5f56e"
        )

    def test_empty_active_set_keeps_bias(self):
        # With every margin at least 1 the bias has no curvature; the step
        # shrinks w and leaves the bias where it is instead of failing.
        Z = np.array([[[2.0, 1.0], [-2.0, 1.0]]])
        y = np.array([[1.0, -1.0]])
        v = np.array([[3.0, 0.25]])
        target = fitness._piece_minimizers(
            Z, y, np.zeros((1, 2), dtype=bool), v, 1.0, np.eye(1)
        )
        assert np.array_equal(target, [[0.0, 0.25]])


class TestSolverParity:
    """The batched finite Newton solver against the L-BFGS reference."""

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_fold_accuracies_match_reference(self, n_classes):
        pytest.importorskip("scipy.optimize")  # the reference solver's L-BFGS
        dataset = make_blobs(
            n_features=10, informative=(0, 1, 2), separation=1.5,
            seed=20 + n_classes, n_classes=n_classes,
        )
        protocol = t.FitnessProtocol(folds=5)
        plan = t.stratified_folds(dataset, 5, 0)
        rng = np.random.default_rng(n_classes)
        for _ in range(100):
            mask = (rng.random(10) < rng.uniform(0.1, 0.9)).astype(np.uint8)
            mask[rng.integers(10)] = 1
            X = dataset.instances[:, np.flatnonzero(mask)]
            y = dataset.labels
            training, testing = [], []
            for fold in range(plan.k):
                train_idx, test_idx = plan.train_indices(fold), plan.test_indices(fold)
                X_train, X_test = standardize(X[train_idx], X[test_idx])
                training.append((X_train, y[train_idx]))
                testing.append((X_test, y[test_idx]))
            layout = fitness._pair_layout([y_train for _, y_train in training])
            X_stacked = np.concatenate([X_train for X_train, _ in training])
            solutions, converged = fitness._solve_squared_hinge(
                layout.stack(X_stacked), layout.signs, 1.0, 1000
            )
            # The machines come fold by fold, one per class pair.
            models = [
                t.LinearSVM(
                    classes=layout.classes,
                    pairs=layout.pairs,
                    weights=fold_solutions[:, :-1],
                    biases=fold_solutions[:, -1],
                    converged=bool(fold_converged.all()),
                )
                for fold_solutions, fold_converged in zip(
                    np.split(solutions, plan.k), np.split(converged, plan.k)
                )
            ]
            percents = []
            for model, (X_train, y_train), (X_test, y_test) in zip(
                models, training, testing
            ):
                assert model.converged
                reference = reference_linear_svm(X_train, y_train)
                assert np.array_equal(model.predict(X_test), reference.predict(X_test))
                for p, (rows, signs) in enumerate(pair_problems(X_train, y_train)):
                    ours = margin_objective(
                        rows, signs, 1.0, model.weights[p], model.biases[p]
                    )
                    theirs = margin_objective(
                        rows, signs, 1.0, reference.weights[p], reference.biases[p]
                    )
                    assert ours <= theirs * (1.0 + 1e-9)
                hits = reference.predict(X_test) == y_test
                percents.append(100.0 * float(np.mean(hits)))
            assert t.kfold_accuracy(dataset, mask, protocol) == float(
                np.mean(percents)
            )


def _padded_stack(rng):
    """A seeded solver input (Z, y, C, max_iter): a zero-padded stack of machines.

    Machines have unequal lengths; some stacks have a column of -0.0 or a
    duplicated column. A machine of one class with no features empties its
    active set after one step. A machine of one class with features makes
    the line search stall, but can also run to any cap, so it comes only
    with the cap of 8.
    """
    n_problems = int(rng.integers(1, 21))
    d = int(rng.integers(1, 13))
    C = float(10.0 ** rng.uniform(-3, 6))
    max_iter = int(rng.choice([1, 2, 8, 1000]))
    lengths = rng.integers(2, 25, size=n_problems)
    Z = np.zeros((n_problems, lengths.max(), d + 1))
    y = np.zeros((n_problems, lengths.max()))
    for p, n in enumerate(lengths):
        signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        signs[:2] = 1.0, -1.0
        shift = rng.uniform(0.0, 3.0) * signs[:, None]
        Z[p, :n, :-1] = rng.normal(size=(n, d)) + shift
        Z[p, :n, -1] = 1.0
        kind = rng.random()
        if kind < 0.03:
            signs[:] = 1.0
            Z[p, :n, :-1] = 0.0
        elif kind < 0.08 and max_iter == 8:
            signs[:] = -1.0
        y[p, :n] = signs
    if rng.random() < 0.2:
        Z[:, :, rng.integers(d)] = -0.0
    if d > 1 and rng.random() < 0.2:
        Z[:, :, 0] = Z[:, :, 1]
    Z[:, :, :-1] *= 10.0 ** rng.uniform(-1, 1)
    return Z, y, C, max_iter


class TestNewtonMatchesReference:
    """The solver returns the bits of its verbatim predecessor in svm_reference."""

    def test_bit_parity_over_seeded_stacks(self, monkeypatch):
        # Each reference iteration is logged through wrappers of its module's
        # functions: the running problems, how many of them finish (the
        # solver's own test, on the returned piece minimizers), whether one
        # has no active row, and the objective evaluations (one for the
        # current point, then one per line-search round).
        iterations = []
        piece_minimizers = svm_reference._piece_minimizers
        objective = svm_reference._objective

        def logged_piece_minimizers(Z, y, active, v, C):
            target = piece_minimizers(Z, y, active, v, C)
            gap_target = y * (y - np.einsum("bnk,bk->bn", Z, target))
            finished = ((gap_target > 0.0) == active).all(axis=1)
            idle = not active.any(axis=1).all()
            iterations.append([Z.shape[0], int(finished.sum()), idle, 0])
            return target

        def logged_objective(w, gap, C):
            iterations[-1][3] += 1
            return objective(w, gap, C)

        monkeypatch.setattr(
            svm_reference, "_piece_minimizers", logged_piece_minimizers
        )
        monkeypatch.setattr(svm_reference, "_objective", logged_objective)
        seen = dict.fromkeys(["halving", "stall", "empty active set", "cap"], 0)
        rng = np.random.default_rng(20261019)
        for _ in range(2000):
            Z, y, C, max_iter = _padded_stack(rng)
            iterations.clear()
            want, want_converged = svm_reference._solve_squared_hinge(Z, y, C, max_iter)
            got, got_converged = fitness._solve_squared_hinge(Z, y, C, max_iter)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(got_converged, want_converged)
            # A problem leaves the stack when it finishes or stalls. After the
            # last iteration that is known if the stack emptied before the
            # cap, or if no line-search round ran at the smallest step.
            stalled = [
                running - finished - following
                for (running, finished, _, _), (following, _, _, _) in zip(
                    iterations, iterations[1:]
                )
            ]
            running, finished, _, calls = iterations[-1]
            if len(iterations) < max_iter:
                stalled.append(running - finished)
            elif calls <= svm_reference._HALVINGS:
                seen["cap"] += running > finished
            seen["halving"] += any(calls > 2 for _, _, _, calls in iterations)
            seen["stall"] += any(count > 0 for count in stalled)
            seen["empty active set"] += any(idle for _, _, idle, _ in iterations)
        assert min(seen.values()) >= 50, seen


class TestPreparedFoldsParity:
    """Prepared folds against every mask's folds standardized from scratch."""

    @pytest.mark.parametrize("classifier", fitness.CLASSIFIER_KINDS)
    def test_scores_equal_the_reference(self, classifier):
        n_features = 9
        cases = []
        for n_classes in (2, 3, 4):
            dataset = make_blobs(
                n_per_class=20, n_features=n_features, informative=(0, 1, 2),
                separation=1.0, seed=30 + n_classes, n_classes=n_classes,
            )
            cases.append((n_classes, dataset, (5, 10)))
        # Classes of 21, 23 and 25 rows dealt 5 ways give folds of 13 and 14
        # test rows, so each fold's percent has its own denominator.
        blobs = make_blobs(
            n_per_class=25, n_features=n_features, informative=(0, 1, 2),
            separation=1.0, seed=50, n_classes=3,
        )
        keep = np.flatnonzero(np.arange(75) % 25 < np.repeat([21, 23, 25], 25))
        unequal = t.dataset_from_arrays(
            "unequal", blobs.instances[keep], blobs.labels[keep]
        )
        assert list(unequal.class_counts()) == [21, 23, 25]
        for fold_seed in (0, 1):
            plan = t.stratified_folds(unequal, 5, fold_seed)
            assert sorted(set(np.bincount(plan.assignment).tolist())) == [13, 14]
        cases.append((3, unequal, (5,)))
        scored = 0
        for n_classes, dataset, fold_counts in cases:
            for folds in fold_counts:
                for fold_seed in (0, 1):
                    protocol = t.FitnessProtocol(
                        classifier=classifier, folds=folds, fold_seed=fold_seed
                    )
                    evaluate = t.make_evaluator(dataset, protocol)
                    rng = np.random.default_rng([n_classes, folds, scored])
                    for i in range(9):
                        # One singleton per protocol: NumPy reduces a lone
                        # column differently from a wider block.
                        density = 0.0 if i == 0 else rng.uniform(0.1, 0.9)
                        mask = (rng.random(n_features) < density).astype(np.uint8)
                        mask[rng.integers(n_features)] = 1
                        expected = reference_kfold_accuracy(dataset, mask, protocol)
                        assert evaluate(mask) == expected
                        assert t.kfold_accuracy(dataset, mask, protocol) == expected
                        scored += 1
        assert scored == 126

    def test_statistics_equal_each_folds_own(self):
        # Every stored value is its column standardized alone on the fold's
        # training rows, the constant column (spread 0) only centered: the
        # test rows and nearest-centroid's training rows as they are, the
        # linear SVM's training rows inside its stack.
        dataset = make_blobs(n_per_class=60, n_features=6, seed=9)
        X = np.column_stack([dataset.instances, np.full(dataset.n_instances, 4.0)])
        dataset = t.dataset_from_arrays("blobs", X, dataset.labels)
        train, test = _standardized_from_scratch(dataset, folds=5)
        for classifier in ("linear-svm", "nearest-centroid"):
            protocol = t.FitnessProtocol(classifier=classifier, folds=5)
            folds = fitness.Evaluator(dataset, protocol)
            assert np.array_equal(folds.test, test)
            if classifier == "linear-svm":
                every_column = np.arange(dataset.n_features)
                expected = _stack_from_columns(train, folds.pairs, every_column)
                assert np.array_equal(folds.stack, expected)
            else:
                assert np.array_equal(folds.train, train)

    @pytest.mark.parametrize("n_selected", [60, 30])
    def test_peak_memory_within_reference(self, n_selected):
        # Sonar-sized two-class data: the prepared path stores the
        # standardized rows per fold, so one evaluation only gathers the
        # mask's columns of them and allocates less than scoring the mask
        # from scratch, which standardizes every fold's rows anew.
        dataset = make_blobs(
            n_per_class=104, n_features=60, informative=tuple(range(12)),
            separation=0.7, seed=0,
        )
        protocol = t.FitnessProtocol(folds=5)
        evaluate = t.make_evaluator(dataset, protocol)
        plan = t.stratified_folds(dataset, 5, 0)
        mask = np.zeros(60, dtype=np.uint8)
        mask[:n_selected] = 1

        def peak(score):
            score()  # warm: the first call may allocate once-only state
            tracemalloc.start()
            try:
                value = score()
                return tracemalloc.get_traced_memory()[1], value
            finally:
                tracemalloc.stop()

        ours, value = peak(lambda: evaluate(mask))
        theirs, expected = peak(
            lambda: reference_kfold_accuracy(dataset, mask, protocol, plan)
        )
        assert value == expected
        assert ours <= theirs


def _standardized_from_scratch(dataset, folds):
    """Every fold's training rows and test rows, each fold standardized on
    its own training rows column by column, concatenated in fold order."""
    plan = t.stratified_folds(dataset, folds, 0)
    blocks = [
        standardize(
            dataset.instances[plan.train_indices(fold)],
            dataset.instances[plan.test_indices(fold)],
        )
        for fold in range(plan.k)
    ]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _stack_from_columns(train, pairs, columns):
    """The solver's stack for one mask, built from its standardized columns."""
    train = np.take(train, columns, axis=1)
    Z = np.take(np.column_stack((train, np.ones(len(train)))), pairs.rows, axis=0)
    Z[pairs.signs == 0.0] = 0.0
    return Z


class TestPreparedStack:
    """The linear SVM's pair-machine stack, built once per evaluator."""

    def test_read_only_with_zero_padding_and_a_bias_of_one(self):
        # 43 rows per class split 5 ways: the folds' training sets differ in
        # size, so the shorter machines are padded.
        dataset = make_blobs(n_per_class=43, n_features=7, n_classes=3, seed=5)
        folds = fitness.Evaluator(dataset, t.FitnessProtocol(folds=5))
        stack, signs = folds.stack, folds.pairs.signs
        assert stack.shape == (*signs.shape, 8)
        assert not stack.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 0] = 1.0
        padding = signs == 0.0
        assert padding.any()
        assert not stack[padding].any()
        assert np.all(stack[~padding][:, -1] == 1.0)

    @pytest.mark.parametrize("n_classes", [2, 3, 4])
    def test_gathered_stack_equals_one_built_from_the_columns(
        self, n_classes, monkeypatch
    ):
        dataset = make_blobs(
            n_per_class=23, n_features=9, informative=(0, 1, 2),
            separation=1.0, seed=40 + n_classes, n_classes=n_classes,
        )
        folds = fitness.Evaluator(dataset, t.FitnessProtocol(folds=5))
        train, _ = _standardized_from_scratch(dataset, folds=5)
        solved = []
        solve = fitness._solve_squared_hinge
        monkeypatch.setattr(
            fitness, "_solve_squared_hinge",
            lambda Z, y, C, max_iter: solved.append(Z) or solve(Z, y, C, max_iter),
        )
        rng = np.random.default_rng(n_classes)
        for _ in range(12):
            mask = (rng.random(9) < rng.uniform(0.1, 0.9)).astype(np.uint8)
            mask[rng.integers(9)] = 1
            folds.accuracy(mask)
            Z = solved.pop()
            expected = _stack_from_columns(train, folds.pairs, np.flatnonzero(mask))
            assert Z.flags.c_contiguous
            assert Z.shape == expected.shape
            assert Z.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_the_stack_is_the_only_copy_of_the_training_rows(self, n_classes):
        dataset = make_blobs(n_per_class=30, n_features=10, n_classes=n_classes, seed=7)
        folds = fitness.Evaluator(dataset, t.FitnessProtocol(folds=5))
        assert not hasattr(folds, "train")
        held = [
            array.nbytes
            for array in vars(folds).values()
            if isinstance(array, np.ndarray) and array.dtype == np.float64
        ]
        assert sum(held) == folds.stack.nbytes + folds.test.nbytes

    def test_rescoring_gives_the_same_bits_and_leaves_the_stack(self):
        dataset = make_blobs(n_per_class=30, n_features=10, n_classes=3, seed=6)
        folds = fitness.Evaluator(dataset, t.FitnessProtocol(folds=5))
        before = folds.stack.tobytes()
        rng = np.random.default_rng(6)
        masks = [
            (rng.random(10) < 0.5).astype(np.uint8) | informative_mask(10)
            for _ in range(6)
        ]
        first = [np.float64(folds.accuracy(mask)).tobytes() for mask in masks]
        again = [np.float64(folds.accuracy(mask)).tobytes() for mask in masks]
        assert again == first
        assert folds.stack.tobytes() == before


class TestKfoldAccuracy:
    def test_separable_data_scores_perfect(self):
        dataset = make_blobs(separation=10.0)
        acc = t.kfold_accuracy(dataset, np.ones(8, dtype=np.uint8))
        assert acc == 100.0

    def test_frozen_regression_values(self):
        dataset = make_blobs()
        mask = informative_mask()
        for kind, expected in [
            ("linear-svm", 97.5),
            ("nearest-centroid", 97.5),
        ]:
            acc = t.kfold_accuracy(
                dataset, mask, t.FitnessProtocol(classifier=kind, folds=5)
            )
            assert acc == pytest.approx(expected, abs=1e-9)
        full = t.kfold_accuracy(
            dataset, np.ones(8, dtype=np.uint8), t.FitnessProtocol(folds=5)
        )
        assert full == pytest.approx(93.75, abs=1e-9)

    def test_permuted_labels_score_near_chance(self):
        accs = []
        for seed in range(20):
            dataset = make_blobs(seed=0)
            rng = np.random.default_rng(seed)
            shuffled = t.dataset_from_arrays(
                "shuffled", dataset.instances, rng.permutation(dataset.labels)
            )
            accs.append(
                t.kfold_accuracy(
                    shuffled, informative_mask(), t.FitnessProtocol(folds=5)
                )
            )
        assert 40.0 <= float(np.mean(accs)) <= 60.0

    def test_column_scaling_is_neutralized(self):
        # Per-fold standardization makes affine column rescaling a no-op.
        dataset = make_blobs(seed=2)
        scaled = dataset.instances.copy()
        scaled[:, 0] *= 1000.0
        scaled[:, 1] = scaled[:, 1] * 0.001 + 7.0
        rescaled = t.dataset_from_arrays("scaled", scaled, dataset.labels)
        mask = informative_mask()
        protocol = t.FitnessProtocol(folds=5)
        assert t.kfold_accuracy(dataset, mask, protocol) == pytest.approx(
            t.kfold_accuracy(rescaled, mask, protocol), abs=1e-9
        )

    def test_unselected_columns_cannot_influence_score(self):
        dataset = make_blobs(seed=3)
        rng = np.random.default_rng(9)
        widened = np.hstack([dataset.instances, rng.normal(size=(dataset.n_instances, 4))])
        wider = t.dataset_from_arrays("wider", widened, dataset.labels)
        protocol = t.FitnessProtocol(folds=5)
        narrow = t.kfold_accuracy(dataset, informative_mask(8), protocol)
        wide = t.kfold_accuracy(wider, informative_mask(12), protocol)
        assert narrow == wide

    def test_constant_column_is_harmless(self):
        dataset = make_blobs(seed=4)
        padded = dataset.instances.copy()
        padded[:, 7] = 3.14
        flat = t.dataset_from_arrays("flat", padded, dataset.labels)
        acc = t.kfold_accuracy(flat, np.ones(8, dtype=np.uint8), t.FitnessProtocol(folds=5))
        assert np.isfinite(acc)

    def test_fold_count_reduced_with_warning(self):
        dataset = make_blobs(n_per_class=3, seed=6)
        with pytest.warns(UserWarning, match="folds"):
            acc = t.kfold_accuracy(
                dataset, informative_mask(), t.FitnessProtocol(folds=10)
            )
        assert np.isfinite(acc)

    def test_accepts_individual_or_vector(self, blob_dataset):
        mask = informative_mask()
        as_vector = t.kfold_accuracy(blob_dataset, mask, t.FitnessProtocol(folds=5))
        as_individual = t.kfold_accuracy(
            blob_dataset, t.Individual(mask), t.FitnessProtocol(folds=5)
        )
        assert as_vector == as_individual

    def test_rejects_bad_masks(self, blob_dataset):
        with pytest.raises(ValueError, match="shape"):
            t.kfold_accuracy(blob_dataset, np.ones(5, dtype=np.uint8))
        with pytest.raises(ValueError, match="empty"):
            t.kfold_accuracy(blob_dataset, np.zeros(8, dtype=np.uint8))


class TestNonConvergenceWarning:
    def test_capped_solver_warns(self, blob_dataset, monkeypatch):
        monkeypatch.setattr(fitness, "_MAX_ITER", 1)
        evaluate = t.make_evaluator(blob_dataset, t.FitnessProtocol(folds=5))
        with pytest.warns(RuntimeWarning, match="before converging"):
            evaluate(t.Individual(np.ones(8, dtype=np.uint8)))

    def test_converged_eval_is_silent(self, blob_dataset):
        evaluate = t.make_evaluator(blob_dataset, t.FitnessProtocol(folds=5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluate(t.Individual(np.ones(8, dtype=np.uint8)))

    def test_capped_solver_counts_one_evaluation(self, blob_dataset, monkeypatch):
        # One count per evaluation, however many of its pair machines stop.
        monkeypatch.setattr(fitness, "_MAX_ITER", 1)
        evaluate = t.make_evaluator(blob_dataset, t.FitnessProtocol(folds=5))
        assert isinstance(evaluate, t.Evaluator)
        assert evaluate.nonconverged == 0
        with pytest.warns(RuntimeWarning, match="before converging"):
            evaluate(t.Individual(np.ones(8, dtype=np.uint8)))
        assert evaluate.nonconverged == 1

    def test_converged_eval_is_not_counted(self, blob_dataset):
        evaluate = t.make_evaluator(blob_dataset, t.FitnessProtocol(folds=5))
        evaluate(t.Individual(np.ones(8, dtype=np.uint8)))
        assert evaluate.nonconverged == 0


class TestMakeEvaluator:
    def test_cache_and_direct_paths_agree(self, blob_dataset):
        protocol = t.FitnessProtocol(folds=5)
        cache = t.FitnessCache()
        cached_eval = t.make_evaluator(blob_dataset, protocol, cache)
        plain_eval = t.make_evaluator(blob_dataset, protocol)
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            ind = t.sample_individual(8, m, rng)
            assert cached_eval(ind) == plain_eval(ind)

    def test_without_a_cache_a_repeated_mask_is_solved_once(
        self, blob_dataset, monkeypatch
    ):
        solves = []
        solve = fitness._solve_squared_hinge
        monkeypatch.setattr(
            fitness, "_solve_squared_hinge",
            lambda Z, y, C, max_iter: solves.append(Z) or solve(Z, y, C, max_iter),
        )
        evaluate = t.make_evaluator(blob_dataset, t.FitnessProtocol(folds=5))
        mask = informative_mask()
        first = evaluate(mask)
        assert evaluate(t.Individual(mask)) == evaluate(mask.tolist()) == first
        assert len(solves) == 1
        assert (evaluate.cache.lookups, evaluate.cache.misses) == (3, 1)

    def test_cache_hit_skips_recomputation(self, blob_dataset):
        cache = t.FitnessCache()
        evaluate = t.make_evaluator(blob_dataset, t.FitnessProtocol(folds=5), cache)
        ind = t.Individual(informative_mask())
        first = evaluate(ind)
        assert (cache.lookups, cache.misses) == (1, 1)
        second = evaluate(ind)
        assert (cache.lookups, cache.misses) == (2, 1)
        assert first == second
        assert len(cache) == 1

    def test_non_binary_vector_is_rejected_uncached(self, blob_dataset):
        # A 2 used to be scored as a 1 under its own cache key.
        cache = t.FitnessCache()
        evaluate = t.make_evaluator(blob_dataset, t.FitnessProtocol(folds=5), cache)
        mask = informative_mask()
        mask[0] = 2
        for vector in (mask, mask.tolist()):
            with pytest.raises(ValueError, match="0 or 1"):
                evaluate(vector)
            with pytest.raises(ValueError, match="0 or 1"):
                t.kfold_accuracy(blob_dataset, vector)
        assert len(cache) == 0

    def test_caller_mask_stays_writable(self, blob_dataset):
        # The evaluator validates a copy, so the caller may reuse its buffer.
        evaluate = t.make_evaluator(blob_dataset, t.FitnessProtocol(folds=5))
        mask = informative_mask()
        evaluate(mask)
        assert mask.flags.writeable

    def test_cache_keys_are_packed_masks(self):
        # At 2000 features a packed key is 250 bytes, not the mask's 2000.
        dataset = make_blobs(n_per_class=6, n_features=2000, seed=2)
        cache = t.FitnessCache()
        evaluate = t.make_evaluator(
            dataset, t.FitnessProtocol(classifier="nearest-centroid", folds=3), cache
        )
        rng = np.random.default_rng(0)
        masks = [t.sample_individual(2000, int(m), rng) for m in (1, 7, 1000, 2000)]
        for ind in masks:
            evaluate(ind)
        assert len(cache) == 4
        for ind in masks:
            key = np.packbits(ind.mask).tobytes()
            assert len(key) == 250
            assert key in cache and ind.key() == key

    def test_errors_leave_no_cache_entry(self, blob_dataset):
        cache = t.FitnessCache()
        evaluate = t.make_evaluator(blob_dataset, t.FitnessProtocol(folds=5), cache)
        with pytest.raises(ValueError, match="shape"):
            evaluate(t.Individual(np.ones(4, dtype=np.uint8)))
        assert len(cache) == 0


def test_evaluation_leaves_numpy_ma_unloaded():
    # np.unique consults numpy.ma (NumPy 2.4), about 1 MiB loaded per process.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, numpy as np, tribefs as t\n"
        "rng = np.random.default_rng(0)\n"
        "y = np.repeat([0, 1, 2], 20)\n"
        "X = rng.normal(size=(60, 6)) + y[:, None]\n"
        "evaluate = t.make_evaluator(t.dataset_from_arrays('blobs', X, y))\n"
        "evaluate(t.Individual(np.array([1, 1, 0, 0, 1, 0], dtype=np.uint8)))\n"
        "print('numpy.ma' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "False"


_THREAD_PROBE = """
import hashlib, json, numpy as np, tribefs as t
from tribefs import fitness
solve, digest = fitness._solve_squared_hinge, hashlib.sha256()
def hashed(Z, y, C, max_iter):
    solutions, converged = solve(Z, y, C, max_iter)
    digest.update(solutions.tobytes())
    return solutions, converged
fitness._solve_squared_hinge = hashed
rng = np.random.default_rng(4)
y = np.repeat([0, 1, 2], 60)
X = rng.normal(size=(y.size, 160)) + 0.4 * y[:, None] * (np.arange(160) < 40)
dataset = t.dataset_from_arrays("wide", X, y)
evaluate = t.make_evaluator(dataset, t.FitnessProtocol(folds=5))
masks = [np.zeros(160, np.uint8) for _ in range(4)]
for mask in masks:
    mask[rng.choice(160, 120, replace=False)] = 1
accuracies = [evaluate(mask) for mask in masks]
print(json.dumps({"accuracies": accuracies, "solutions": digest.hexdigest()}))
"""


def test_accuracies_do_not_depend_on_blas_threads():
    # Pair machines of 120 columns, where the solver's bits already move
    # between one and two OpenBLAS threads. The variable only takes effect
    # before NumPy loads, hence one process per thread count.
    src = Path(__file__).resolve().parent.parent / "src"
    outcomes = []
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE],
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        outcomes.append(json.loads(done.stdout))
    one, two = outcomes
    same_bits = one["solutions"] == two["solutions"]
    print(f"solution bytes agree across 1 and 2 BLAS threads: {same_bits}")
    assert one["accuracies"] == two["accuracies"]
