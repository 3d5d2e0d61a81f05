"""Wrapper fitness: cross-validated accuracy on the selected features.

An individual's fitness is the mean per-fold accuracy (percent) of a
classifier trained on just its selected columns, under a stratified k-fold
plan that is fixed once per run. Every column is standardized per fold,
from that fold's training rows only, once, when :func:`make_evaluator`
prepares the folds; every classifier takes a mask's columns of those
standardized rows as they are. The linear SVM's pair machines minimize the
squared-hinge primal exactly with a finite Newton method;
:meth:`_PairLayout.fit` gathers all folds' pair machines of one mask into
one stack and solves it, for the evaluator and for :func:`train_linear_svm`
alike. Everything about the folds that does not depend on the mask (their
standardized rows per fold and the pair layout) is prepared once, so
scoring a mask is one gather of its columns, one batched solve and one
vectorized vote per fold. All of it is deterministic given the dataset,
the mask and the protocol, which is what makes the subset-keyed fitness
cache sound.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Individual
from .data import Dataset, stratified_folds

__all__ = [
    "CLASSIFIER_KINDS",
    "FitnessProtocol",
    "FitnessCache",
    "LinearSVM",
    "train_linear_svm",
    "kfold_accuracy",
    "make_evaluator",
]

CLASSIFIER_KINDS = ("linear-svm", "nearest-centroid", "nearest-neighbor")


@dataclass(frozen=True)
class FitnessProtocol:
    """Everything that defines one fitness value besides the mask itself.

    ``subsample`` optionally keeps only that fraction of each class's
    training rows per fold (at least one row per class), which trades
    fidelity for speed on large datasets; the rows kept are derived from
    ``fold_seed``, so the protocol stays deterministic.
    """

    classifier: str = "linear-svm"
    folds: int = 10
    fold_seed: int = 0
    regularization: float = 1.0
    subsample: float | None = None

    def __post_init__(self):
        if self.classifier not in CLASSIFIER_KINDS:
            raise ValueError(
                f"unknown classifier {self.classifier!r}; options: {CLASSIFIER_KINDS}"
            )
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        if not 0.0 < self.regularization < float("inf"):
            raise ValueError("regularization must be positive and finite")
        if self.subsample is not None and not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must lie in (0, 1]")


class FitnessCache:
    """Memo from packed mask to fitness, filled by :func:`make_evaluator`.

    ``lookups`` and ``misses`` make cache behaviour observable for telemetry
    and tests.
    """

    def __init__(self):
        self._values: dict[bytes, float] = {}
        self.lookups = 0
        self.misses = 0

    def get(self, key: bytes) -> float | None:
        self.lookups += 1
        value = self._values.get(key)
        if value is None:
            self.misses += 1
        return value

    def put(self, key: bytes, value: float) -> None:
        self._values[key] = value

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: bytes) -> bool:
        return key in self._values


@dataclass(eq=False)
class LinearSVM:
    """One-vs-one linear classifier with squared-hinge pair machines."""

    classes: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    weights: np.ndarray  # (n_pairs, n_features)
    biases: np.ndarray  # (n_pairs,)
    converged: bool

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        decisions = X @ self.weights.T + self.biases
        swing, base = _ballot(self.pairs, self.classes.size)
        votes = (decisions >= 0.0) @ swing + base  # boundaries go to the first class
        return self.classes[np.argmax(votes, axis=1)]  # vote ties go low too


@functools.lru_cache(maxsize=32)
def _ballot(pairs: tuple[tuple[int, int], ...], n_classes: int):
    """A row's class votes are ``(decisions >= 0) @ swing + base``.

    ``base`` counts each machine's vote for its second class, and ``swing``
    moves it to the first. The votes are small integers, so they are exact.
    """
    first, second = np.eye(n_classes)[np.array(pairs).T]  # (P, n_classes) one-hots
    swing, base = first - second, second.sum(axis=0)
    swing.flags.writeable = base.flags.writeable = False
    return swing, base


_MAX_ITER = 1000
_ARMIJO = 1e-4  # sufficient-decrease fraction of the line search
_HALVINGS = 50  # backtracking steps before a problem counts as stalled


def _objective(w: np.ndarray, gap: np.ndarray, C: float) -> np.ndarray:
    hinge = np.maximum(gap, 0.0)
    return 0.5 * np.einsum("bi,bi->b", w, w) + C * np.einsum("bi,bi->b", hinge, hinge)


def _piece_minimizers(
    Z: np.ndarray,
    y: np.ndarray,
    active: np.ndarray,
    v: np.ndarray,
    C: float,
    ridge: np.ndarray,
) -> np.ndarray:
    """Minimize each problem's objective restricted to its active rows.

    Solves (R + 2C Z_A^T Z_A) v = 2C Z_A^T y_A for the whole stack, where R
    is the identity on w and 0 on the bias; ``ridge`` is that (d, d)
    identity. With no active row the bias has no curvature and keeps its
    value from ``v``.
    """
    Z_active = Z * active.astype(np.float64)[:, :, None]
    Z_active_t = Z_active.transpose(0, 2, 1)
    lhs = Z_active_t @ Z
    lhs *= 2.0 * C
    lhs[:, :-1, :-1] += ridge
    rhs = Z_active_t @ y[:, :, None]
    rhs *= 2.0 * C
    has_active = active.any(axis=1)
    if not has_active.all():
        idle = ~has_active
        lhs[idle, -1, -1] = 1.0
        rhs[idle, -1, 0] = v[idle, -1]
    try:
        return np.linalg.solve(lhs, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        # The system is positive definite in exact arithmetic, but a huge C
        # with a constant or duplicated column can round it to singular.
        return (np.linalg.pinv(lhs) @ rhs)[:, :, 0]


def _solve_squared_hinge(
    Z: np.ndarray, y: np.ndarray, C: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize the squared-hinge primal of every problem in a padded stack.

    The primal is 0.5 ||w||^2 + C * sum(max(0, 1 - y (Z (w, b)))^2), with
    the bias b unregularized. ``Z`` is (B, n, d + 1): each problem's rows
    with a trailing bias column, zero-padded to a common n. ``y`` is (B, n)
    with labels +1/-1, and 0 on padding rows. Returns the (B, d + 1)
    solutions (w, b) and a per-problem converged flag.

    Modified finite Newton (Keerthi & DeCoste, JMLR 2005): the objective is a
    convex piecewise quadratic with one piece per active set (rows whose
    margin is below 1). Each iteration jumps to the minimizer of the current
    active set's piece and backtracks from that full step until the
    objective decreases enough. A problem stops, converged, when the full
    step leaves its active set unchanged: the piece's minimizer is then a
    stationary point of the whole objective, so the optimum is exact. It
    stops unconverged when the line search finds no decrease or when
    ``max_iter`` runs out. Starting from zero makes the result deterministic.

    The full step is tried on every running problem at once, and when all
    of them accept it (almost every iteration) each simply moves to its
    piece minimizer; only otherwise do the rejected problems backtrack.
    A problem's solution is written out when it leaves the running stack
    (converged or stalled) and, for the problems still running, once when
    ``max_iter`` runs out.
    """
    n_problems, _, width = Z.shape
    ridge = np.eye(width - 1)
    solutions = np.zeros((n_problems, width))
    converged = np.zeros(n_problems, dtype=bool)
    # Z, y, v and gap hold only the problems still running, in this order:
    running = np.arange(n_problems)
    v = solutions.copy()
    gap = y * y  # 1 - y * margin at v = 0; y * y is 0 on padding rows
    for _ in range(max_iter):
        if running.size == 0:
            break
        active = gap > 0.0
        target = _piece_minimizers(Z, y, active, v, C, ridge)
        gap_target = y * (y - np.einsum("bnk,bk->bn", Z, target))
        finished = ((gap_target > 0.0) == active).all(axis=1)

        step = target - v
        drop = gap - gap_target  # the gap falls linearly along the step
        w = v[:, :-1]
        hinge = np.maximum(gap, 0.0)
        value = 0.5 * np.einsum("bi,bi->b", w, w)
        value += C * np.einsum("bi,bi->b", hinge, hinge)
        slope = np.einsum("bi,bi->b", w, step[:, :-1])
        slope -= 2.0 * C * np.einsum("bi,bi->b", hinge, drop)
        # The full step, tried on all problems; finished ones accept it anyway.
        trial = _objective(w + step[:, :-1], gap - drop, C)
        accepted = finished | (trial <= value + _ARMIJO * slope)
        if accepted.all():
            v, gap = target, gap_target
        else:
            # The rejecting problems backtrack from half the step; the full
            # step was the first of their _HALVINGS trials.
            t = np.where(accepted, 1.0, 0.5)
            for _ in range(_HALVINGS - 1):
                pending = np.flatnonzero(~accepted)
                if pending.size == 0:
                    break
                tp = t[pending, None]
                trial = _objective(
                    v[pending, :-1] + tp * step[pending, :-1],
                    gap[pending] - tp * drop[pending],
                    C,
                )
                ok = trial <= value[pending] + _ARMIJO * t[pending] * slope[pending]
                accepted[pending[ok]] = True
                t[pending[~ok]] *= 0.5
            # Stalled: no step of this direction decreases the objective.
            t[~accepted] = 0.0

            full = (t == 1.0)[:, None]  # finished problems never halve their step
            v = np.where(full, target, v + t[:, None] * step)
            gap = np.where(full, gap_target, gap - t[:, None] * drop)
        keep = accepted & ~finished
        if not keep.all():
            solutions[running[~keep]] = v[~keep]
            converged[running[finished]] = True
            running, Z, y, v, gap = (a[keep] for a in (running, Z, y, v, gap))
    solutions[running] = v
    return solutions, converged


@dataclass(frozen=True, eq=False)
class _PairLayout:
    """Where the rows of every pair machine of some training sets come from.

    It depends on the labels alone. Machine p takes the rows ``rows[p]``, in
    order, zero-padded to the longest machine: ``signs`` is +1 for the
    pair's first class, -1 for its second and 0 on padding. ``models`` holds
    each training set's (classes, pairs), in the order of its machines.
    :func:`_pair_layout` numbers the rows in the training sets'
    concatenation, the row order that :meth:`fit` takes.
    """

    rows: np.ndarray  # (B, n) int
    signs: np.ndarray  # (B, n)
    models: tuple[tuple[np.ndarray, tuple[tuple[int, int], ...]], ...]

    def fit(self, X: np.ndarray, C: float, max_iter: int) -> list[LinearSVM]:
        """Train every machine on its rows of ``X`` in one solve.

        ``X`` holds the training sets' rows, concatenated in order. The
        solver's (B, n, d + 1) stack gathers each machine's rows of ``X``
        with a trailing bias column of ones, and zeroes its padding rows.
        Returns one LinearSVM per training set.
        """
        Z = np.take(np.column_stack((X, np.ones(len(X)))), self.rows, axis=0)
        if not self.signs.all():
            Z[self.signs == 0.0] = 0.0  # whatever was gathered for the padding rows
        solutions, converged = _solve_squared_hinge(Z, self.signs, C, max_iter)
        models = []
        start = 0
        for classes, pairs in self.models:
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


def _classes(y: np.ndarray) -> np.ndarray:
    """The distinct labels in ascending order, as ``np.unique`` returns them.

    A sort and a neighbour comparison: ``np.unique`` asks ``numpy.ma``
    whether its input is masked (NumPy 2.4), which would load that module
    into every process on its first evaluation.
    """
    ordered = np.sort(y)
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def _pair_layout(labels: list[np.ndarray]) -> _PairLayout:
    machines = []  # (rows in the concatenation, signed labels)
    models = []
    offset = 0
    for y in labels:
        classes = _classes(y)
        if classes.size < 2:
            raise ValueError("training data must contain at least two classes")
        pairs = tuple(itertools.combinations(range(classes.size), 2))
        for a, b in pairs:
            chosen = np.flatnonzero((y == classes[a]) | (y == classes[b]))
            signs = np.where(y[chosen] == classes[a], 1.0, -1.0)
            machines.append((offset + chosen, signs))
        models.append((classes, pairs))
        offset += y.size
    shape = (len(machines), max(rows.size for rows, _ in machines))
    layout = _PairLayout(
        rows=np.zeros(shape, dtype=np.intp),
        signs=np.zeros(shape),
        models=tuple(models),
    )
    for p, (rows, signs) in enumerate(machines):
        layout.rows[p, : rows.size] = rows
        layout.signs[p, : rows.size] = signs
    return layout


def train_linear_svm(
    X: np.ndarray, y: np.ndarray, C: float = 1.0, max_iter: int = _MAX_ITER
) -> LinearSVM:
    """Train one pair machine per class pair; multiclass is majority vote.

    Each pair machine minimizes the squared-hinge primal
    0.5 ||w||^2 + C * sum(max(0, 1 - y (Xw + b))^2) exactly, by the batched
    finite Newton solver that the fitness evaluator also uses; ``converged``
    is False when any pair machine hit ``max_iter`` or stalled. Vote ties
    resolve to the lower class index, as does a test point exactly on a
    pair boundary.
    """
    X = np.asarray(X, dtype=np.float64)
    return _pair_layout([np.asarray(y)]).fit(X, C, max_iter)[0]


class _NearestCentroid:
    def __init__(self, X, y):
        self.classes = _classes(y)
        self.centroids = np.stack([X[y == c].mean(axis=0) for c in self.classes])

    def predict(self, X):
        d2 = ((X[:, None, :] - self.centroids[None, :, :]) ** 2).sum(axis=2)
        return self.classes[np.argmin(d2, axis=1)]  # argmin ties go low


class _NearestNeighbor:
    def __init__(self, X, y):
        self.X = X
        self.y = y

    def predict(self, X):
        # ||a-b||^2 expanded; ties resolve to the earliest training row.
        d2 = (
            (X**2).sum(axis=1)[:, None]
            - 2.0 * X @ self.X.T
            + (self.X**2).sum(axis=1)[None, :]
        )
        return self.y[np.argmin(d2, axis=1)]


def _standardize(train: np.ndarray, test: np.ndarray) -> None:
    """Standardize both blocks in place by ``train``'s column means and spreads.

    Each column is reduced on its own, along the contiguous axis of the
    transposed block: NumPy sums that pairwise, as it sums a lone column,
    but it sums the columns of a wider row-major block row by row.
    """
    columns = np.ascontiguousarray(train.T)
    center = columns.mean(axis=1)
    scale = columns.std(axis=1)
    scale[scale == 0.0] = 1.0  # constant columns pass through centered
    for block in (train, test):
        block -= center
        block /= scale


def _subsample_rows(
    train_idx: np.ndarray,
    labels: np.ndarray,
    fraction: float,
    fold_seed: int,
    fold: int,
) -> np.ndarray:
    rng = np.random.default_rng([fold_seed, fold])
    kept = []
    for c in _classes(labels[train_idx]):
        members = train_idx[labels[train_idx] == c]
        take = max(1, int(round(fraction * members.size)))
        kept.append(rng.choice(members, size=take, replace=False))
    return np.sort(np.concatenate(kept))


def resolve_mask(mask, n_features: int) -> Individual:
    """Accept an Individual or any 0/1 vector; return it as a validated Individual."""
    if not isinstance(mask, Individual):
        mask = Individual(mask)
    if mask.n_features != n_features:
        raise ValueError(
            f"mask has shape ({mask.n_features},), dataset has {n_features} features"
        )
    return mask


class _PreparedFolds:
    """Everything about the protocol's fold plan that does not depend on the mask.

    It stores the standardized rows per fold: each fold's training rows
    (after ``subsample``) and test rows, every column standardized by that
    column's own mean and spread over the fold's training rows, and, for
    the linear SVM, the pair layout over the folds' training rows in order.
    Standardization is per column and elementwise, so a mask's columns of
    these rows are exactly that mask's folds standardized from scratch, and
    scoring a mask only gathers its columns and fits all folds at once.
    """

    def __init__(self, dataset: Dataset, protocol: FitnessProtocol):
        plan = stratified_folds(dataset, protocol.folds, protocol.fold_seed)
        self.protocol = protocol
        instances, labels = dataset.instances, dataset.labels
        train = [plan.train_indices(fold) for fold in range(plan.k)]
        if protocol.subsample is not None:
            train = [
                _subsample_rows(rows, labels, protocol.subsample, plan.seed, fold)
                for fold, rows in enumerate(train)
            ]
        test = [plan.test_indices(fold) for fold in range(plan.k)]
        self.train = instances[np.concatenate(train)]
        self.test = instances[np.concatenate(test)]
        self.train_cuts = np.cumsum([rows.size for rows in train])[:-1]
        self.test_cuts = np.cumsum([rows.size for rows in test])[:-1]
        for fold_train, fold_test in zip(
            np.split(self.train, self.train_cuts), np.split(self.test, self.test_cuts)
        ):
            _standardize(fold_train, fold_test)
        self.train_labels = [labels[rows] for rows in train]
        self.test_labels = [labels[rows] for rows in test]
        if protocol.classifier == "linear-svm":
            self.pairs = _pair_layout(self.train_labels)

    def accuracy(self, mask: np.ndarray) -> float:
        """Mean per-fold accuracy (percent) of a validated mask."""
        columns = np.flatnonzero(mask)
        train = np.take(self.train, columns, axis=1)
        protocol = self.protocol
        if protocol.classifier == "linear-svm":
            models = self.pairs.fit(train, protocol.regularization, _MAX_ITER)
            if not all(model.converged for model in models):
                # One constant message: the default filter shows it once per process.
                warnings.warn(
                    "linear-SVM solver stopped before converging; fitness is inexact",
                    RuntimeWarning,
                )
        else:
            model_type = (
                _NearestCentroid
                if protocol.classifier == "nearest-centroid"
                else _NearestNeighbor
            )
            models = [
                model_type(block, y)
                for block, y in zip(np.split(train, self.train_cuts), self.train_labels)
            ]
        # Gathered after the fit, so that no test row is held during the solve.
        test = np.take(self.test, columns, axis=1)
        blocks = np.split(test, self.test_cuts)
        percents = [
            100.0 * (np.count_nonzero(model.predict(block) == y) / y.size)
            for model, block, y in zip(models, blocks, self.test_labels)
        ]
        return float(np.mean(percents))


def kfold_accuracy(
    dataset: Dataset, mask, protocol: FitnessProtocol = FitnessProtocol()
) -> float:
    """Mean cross-validated accuracy (percent) of the masked feature set.

    The folds (their standardized rows per fold) are prepared for this one
    mask; to score many, build the fitness function once with
    :func:`make_evaluator`, which prepares them once and gives every mask
    the same value.
    """
    return make_evaluator(dataset, protocol)(mask)


def make_evaluator(
    dataset: Dataset,
    protocol: FitnessProtocol = FitnessProtocol(),
    cache: FitnessCache | None = None,
):
    """Build the fitness function the engine calls on individuals.

    The stratified fold plan and everything about the folds that does not
    depend on the mask (the standardized rows per fold, the pair machines'
    layout) are prepared once here and shared by every evaluation, and
    results are memoized in ``cache`` when one is given, keyed on
    :meth:`Individual.key`, the mask's ``np.packbits`` bytes.
    Evaluation errors propagate and leave no cache entry behind.
    """
    folds = _PreparedFolds(dataset, protocol)

    def evaluate(individual) -> float:
        individual = resolve_mask(individual, dataset.n_features)
        if cache is None:
            return folds.accuracy(individual.mask)
        key = individual.key()
        hit = cache.get(key)
        if hit is not None:
            return hit
        value = folds.accuracy(individual.mask)
        cache.put(key, value)
        return value

    return evaluate
