"""Reference fitness pipeline: every mask scored from scratch, fold by fold.

This is the k-fold pipeline the prepared-fold path replaced, kept verbatim
but for one rule: slice the mask's columns, standardize each fold from its
own training rows (each column by its own mean and spread, reduced alone),
assemble the pair stack machine by machine, solve, and count votes with a
loop over the class pairs. The parity tests require the engine's fitness to
equal it exactly.
"""

import itertools

import numpy as np

from tribefs.data import stratified_folds
from tribefs.fitness import (
    _MAX_ITER,
    LinearSVM,
    _NearestCentroid,
    _solve_squared_hinge,
    resolve_mask,
)


def loop_predict(model: LinearSVM, X: np.ndarray) -> np.ndarray:
    """``LinearSVM.predict`` with one vote pass per class pair."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    votes = np.zeros((X.shape[0], model.classes.size), dtype=np.int64)
    decisions = X @ model.weights.T + model.biases
    for p, (a, b) in enumerate(model.pairs):
        column = decisions[:, p]
        votes[column >= 0.0, a] += 1  # a < b, so boundary ties go low
        votes[column < 0.0, b] += 1
    return model.classes[np.argmax(votes, axis=1)]


def standardize(train, test):
    center = np.array([column.mean() for column in train.T])
    scale = np.array([column.std() for column in train.T])
    scale[scale == 0.0] = 1.0  # constant columns pass through centered
    return (train - center) / scale, (test - center) / scale


def fit_linear_svms(problems, C, max_iter):
    layout = []
    pair_rows = []  # (X, y, rows of the pair, the pair's +1 class)
    for X, y in problems:
        classes = np.unique(y)
        if classes.size < 2:
            raise ValueError("training data must contain at least two classes")
        pairs = tuple(itertools.combinations(range(classes.size), 2))
        for a, b in pairs:
            chosen = (y == classes[a]) | (y == classes[b])
            pair_rows.append((X, y, chosen, classes[a]))
        layout.append((classes, pairs))

    n_rows = max(int(chosen.sum()) for _, _, chosen, _ in pair_rows)
    Z = np.zeros((len(pair_rows), n_rows, problems[0][0].shape[1] + 1))
    y_signed = np.zeros((len(pair_rows), n_rows))
    for p, (X, y, chosen, positive) in enumerate(pair_rows):
        n = int(chosen.sum())
        Z[p, :n, :-1] = X[chosen]
        Z[p, :n, -1] = 1.0
        y_signed[p, :n] = np.where(y[chosen] == positive, 1.0, -1.0)
    solutions, converged = _solve_squared_hinge(Z, y_signed, C, max_iter)

    models = []
    start = 0
    for classes, pairs in layout:
        stop = start + len(pairs)
        models.append(
            LinearSVM(
                classes=classes,
                pairs=pairs,
                weights=solutions[start:stop, :-1],
                biases=solutions[start:stop, -1],
                converged=bool(converged[start:stop].all()),
            )
        )
        start = stop
    return models


def fit_all(protocol, problems):
    if protocol.classifier == "linear-svm":
        return fit_linear_svms(problems, protocol.regularization, _MAX_ITER)
    return [_NearestCentroid(X, y) for X, y in problems]


def predict(model, X):
    if isinstance(model, LinearSVM):
        return loop_predict(model, X)
    return model.predict(X)


def reference_kfold_accuracy(dataset, mask, protocol, fold_plan=None):
    """``kfold_accuracy`` as it was before the folds were prepared once."""
    mask = resolve_mask(mask, dataset.n_features).mask
    if fold_plan is None:
        fold_plan = stratified_folds(dataset, protocol.folds, protocol.fold_seed)
    columns = np.flatnonzero(mask)
    X = dataset.instances[:, columns]
    y = dataset.labels
    training, testing = [], []
    for fold in range(fold_plan.k):
        train_idx = fold_plan.train_indices(fold)
        test_idx = fold_plan.test_indices(fold)
        X_train, X_test = standardize(X[train_idx], X[test_idx])
        training.append((X_train, y[train_idx]))
        testing.append((X_test, y[test_idx]))
    models = fit_all(protocol, training)
    percents = [
        100.0 * float(np.mean(predict(model, X_test) == y_test))
        for model, (X_test, y_test) in zip(models, testing)
    ]
    return float(np.mean(percents))
