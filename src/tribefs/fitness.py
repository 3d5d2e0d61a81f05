"""Wrapper fitness: cross-validated accuracy on the selected features.

An individual's fitness is the mean per-fold accuracy (percent) of a
classifier trained on just its selected columns, under a stratified k-fold
plan that is fixed once per run. ``make_evaluator``, the other name of
:class:`Evaluator`, returns the one fitness function. It prepares once
everything about the folds that does not depend on the mask (every column
standardized per fold from that fold's training rows only, the pair layout
and, for the linear SVM, the stack at full width), so scoring a mask is
one gather of its columns, one fit of all folds and one pass that
classifies every fold's test rows, each by its own fold's model. Every
evaluator memoizes its values and counts the evaluations whose solve did
not converge. The linear SVM's pair machines minimize the squared-hinge
primal exactly with a finite Newton method, in one solve of one stack;
:meth:`_PairLayout.stack` builds that stack, for the evaluator and for
:func:`train_linear_svm` alike. All of it is deterministic given the
dataset, the mask and the protocol, which is what makes the memo sound.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Individual
from .data import Dataset, stratified_folds

__all__ = [
    "CLASSIFIER_KINDS",
    "Evaluator",
    "FitnessProtocol",
    "FitnessCache",
    "LinearSVM",
    "train_linear_svm",
    "kfold_accuracy",
    "make_evaluator",
]

CLASSIFIER_KINDS = ("linear-svm", "nearest-centroid")


@dataclass(frozen=True)
class FitnessProtocol:
    """Everything that defines one fitness value besides the mask itself."""

    classifier: str = "linear-svm"
    folds: int = 10
    fold_seed: int = 0
    regularization: float = 1.0

    def __post_init__(self):
        if self.classifier not in CLASSIFIER_KINDS:
            raise ValueError(
                f"unknown classifier {self.classifier!r}; options: {CLASSIFIER_KINDS}"
            )
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        if self.fold_seed < 0:
            raise ValueError("fold_seed must be non-negative")
        if not 0.0 < self.regularization < float("inf"):
            raise ValueError("regularization must be positive and finite")


class FitnessCache:
    """Memo from packed mask to fitness, filled by an :class:`Evaluator`.

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
        return self.classes[_vote(decisions, self.pairs, self.classes.size)]


def _vote(decisions: np.ndarray, pairs: tuple, n_classes: int) -> np.ndarray:
    """Each row's one-vs-one majority winner, as an index into the classes.

    A decision >= 0 votes for the pair's first (lower) class, and vote ties
    go low too. The votes are small integers, so they are exact.
    """
    first, second = np.eye(n_classes)[np.array(pairs).T]  # (P, n_classes) one-hots
    wins = decisions >= 0.0
    return np.argmax(wins @ first + ~wins @ second, axis=1)


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

    It depends on the labels alone. The training sets hold the same
    ``classes``, and each has one machine per class pair, in the order of
    ``pairs``; the sets' machines follow one another in the sets' order.
    Machine p takes the rows ``rows[p]`` of the training sets'
    concatenation, in order, zero-padded to the longest machine: ``signs``
    is +1 for the pair's first class, -1 for its second and 0 on padding.
    """

    classes: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    rows: np.ndarray  # (B, n) int
    signs: np.ndarray  # (B, n)

    def stack(self, X: np.ndarray) -> np.ndarray:
        """The solver's read-only (B, n, d + 1) stack of every machine's rows.

        ``X`` holds the training sets' rows, concatenated in order. Machine
        p's slice holds its rows of ``X`` with a trailing bias column of
        ones, then zeroed padding rows.
        """
        Z = np.take(np.column_stack((X, np.ones(len(X)))), self.rows, axis=0)
        Z[self.signs == 0.0] = 0.0  # whatever was gathered for the padding rows
        Z.flags.writeable = False
        return Z


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
    classes = _classes(labels[0])
    if classes.size < 2:
        raise ValueError("training data must contain at least two classes")
    pairs = tuple(itertools.combinations(range(classes.size), 2))
    machines = []  # (rows in the concatenation, signed labels)
    offset = 0
    for y in labels:
        if not np.array_equal(_classes(y), classes):
            raise ValueError("every training set must hold the same classes")
        for a, b in pairs:
            chosen = np.flatnonzero((y == classes[a]) | (y == classes[b]))
            signs = np.where(y[chosen] == classes[a], 1.0, -1.0)
            machines.append((offset + chosen, signs))
        offset += y.size
    shape = (len(machines), max(rows.size for rows, _ in machines))
    layout = _PairLayout(
        classes=classes,
        pairs=pairs,
        rows=np.zeros(shape, dtype=np.intp),
        signs=np.zeros(shape),
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
    y = np.asarray(y)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D (rows, features), got shape {X.shape}")
    if y.ndim != 1 or y.size != len(X):
        raise ValueError(
            f"X has {len(X)} rows but y has shape {y.shape}: need one label per row"
        )
    if not np.isfinite(X).all():
        raise ValueError("X contains NaN or infinite values")
    if not 0.0 < C < float("inf"):
        raise ValueError(f"C must be positive and finite, not {C!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, not {max_iter!r}")
    layout = _pair_layout([y])
    solutions, converged = _solve_squared_hinge(
        layout.stack(X), layout.signs, C, max_iter
    )
    w, b = solutions[:, :-1], solutions[:, -1]
    return LinearSVM(layout.classes, layout.pairs, w, b, bool(converged.all()))


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


def resolve_mask(mask, n_features: int) -> Individual:
    """Accept an Individual or any 0/1 vector; return it as a validated Individual."""
    if not isinstance(mask, Individual):
        mask = Individual(mask)
    if mask.n_features != n_features:
        raise ValueError(
            f"mask has shape ({mask.n_features},), dataset has {n_features} features"
        )
    return mask


class Evaluator:
    """The fitness function: calling it scores one mask, memoized.

    A call validates the mask (an Individual or any 0/1 vector), looks its
    :meth:`Individual.key` up in ``cache`` (a private :class:`FitnessCache`
    when none is given) and, on a miss, scores it with :meth:`accuracy` and
    stores the value. Errors propagate and leave no cache entry behind.
    ``nonconverged`` counts the evaluations whose solve did not converge.

    Each fold's training and test rows are standardized once, every column
    by its own mean and spread over the fold's training rows, so a mask's
    columns of them are exactly its folds standardized from scratch. Every
    classifier keeps the test rows; nearest-centroid keeps the training
    rows, and the linear SVM only the pair layout and the solver's read-only
    stack of them at full width, of which scoring gathers the mask's columns
    and the bias column. The stack holds each training row once per pair
    machine of its class, k - 1 times for k classes, plus padding to the
    longest machine: at most 1.3 MB for the bundled descriptors (wdbc, 10
    folds), 9 MB at 62 x 2000 with 2 classes, and 52 MB at 452 x 279 with
    13 classes (2 folds). Every fold trains on every class, so one pass
    classifies all folds' test rows, each by its own fold's model: the
    linear SVM's decisions against every fold's machines come from one
    product, and nearest-centroid's (rows, classes, columns) distances span
    all folds (traced peak of one evaluation with every column: 15.3 MB at
    452 x 279, 12.3 MB at 62 x 2000 with 10 folds). One ``np.bincount``
    over the rows' folds counts each fold's hits.
    """

    def __init__(
        self,
        dataset: Dataset,
        protocol: FitnessProtocol = FitnessProtocol(),
        cache: FitnessCache | None = None,
    ):
        plan = stratified_folds(dataset, protocol.folds, protocol.fold_seed)
        self.protocol = protocol
        self.n_features = dataset.n_features
        self.cache = FitnessCache() if cache is None else cache
        self.nonconverged = 0
        instances, labels = dataset.instances, dataset.labels
        train = [plan.train_indices(fold) for fold in range(plan.k)]
        test = np.concatenate([plan.test_indices(fold) for fold in range(plan.k)])
        train_rows = instances[np.concatenate(train)]
        train_cuts = np.cumsum([rows.size for rows in train])[:-1]
        train_labels = [labels[rows] for rows in train]
        self.test = instances[test]
        self.test_labels = labels[test]
        self.test_folds = plan.assignment[test]  # ascending: fold by fold
        self.fold_sizes = np.bincount(self.test_folds)
        test_cuts = np.cumsum(self.fold_sizes)[:-1]
        for fold_train, fold_test in zip(
            np.split(train_rows, train_cuts), np.split(self.test, test_cuts)
        ):
            _standardize(fold_train, fold_test)
        if protocol.classifier == "linear-svm":
            self.pairs = _pair_layout(train_labels)
            self.stack = self.pairs.stack(train_rows)
        else:
            self.train = train_rows
            self.groups = [  # each fold's training rows of each class
                start + np.flatnonzero(y == c)
                for start, y in zip(np.append(0, train_cuts), train_labels)
                for c in range(dataset.n_classes)
            ]

    def __call__(self, individual) -> float:
        individual = resolve_mask(individual, self.n_features)
        key = individual.key()
        value = self.cache.get(key)
        if value is None:
            value = self.accuracy(individual.mask)
            self.cache.put(key, value)
        return value

    def accuracy(self, mask: np.ndarray) -> float:
        """Mean per-fold accuracy (percent) of a validated mask."""
        columns = np.flatnonzero(mask)
        if self.protocol.classifier == "linear-svm":
            # The mask's columns of the stack, then its bias column.
            Z = np.take(self.stack, np.append(columns, mask.size), axis=2)
            solutions, converged = _solve_squared_hinge(
                Z, self.pairs.signs, self.protocol.regularization, _MAX_ITER
            )
            if not converged.all():
                self.nonconverged += 1
                # One constant message: the default filter shows it once per process.
                warnings.warn(
                    "linear-SVM solver stopped before converging; fitness is inexact",
                    RuntimeWarning,
                )
            # Gathered after the fit, so that no test row is held during the solve.
            test = np.take(self.test, columns, axis=1)
            decisions = test @ solutions[:, :-1].T + solutions[:, -1]
            # The machines come fold by fold; each row keeps its own fold's.
            decisions = decisions.reshape(len(test), self.fold_sizes.size, -1)
            own = decisions[np.arange(len(test)), self.test_folds]
            predicted = _vote(own, self.pairs.pairs, self.pairs.classes.size)
        else:
            train = np.take(self.train, columns, axis=1)
            centroids = np.stack([train[rows].mean(axis=0) for rows in self.groups])
            test = np.take(self.test, columns, axis=1)
            gaps = centroids.reshape(self.fold_sizes.size, -1, columns.size)
            gaps = gaps[self.test_folds]  # each row's own fold's centroids
            gaps -= test[:, None, :]
            distances = np.square(gaps, out=gaps).sum(axis=2)
            predicted = np.argmin(distances, axis=1)  # argmin ties go low
        # Labels are the class codes 0..n-1, so a predicted index is a label.
        hits = np.bincount(self.test_folds, weights=predicted == self.test_labels)
        return float(np.mean(100.0 * (hits / self.fold_sizes)))


make_evaluator = Evaluator  # the name every caller builds its fitness function by


def kfold_accuracy(
    dataset: Dataset, mask, protocol: FitnessProtocol = FitnessProtocol()
) -> float:
    """Mean cross-validated accuracy (percent) of the masked feature set.

    The folds are prepared for this one mask; to score many, build one
    :class:`Evaluator` and call it on each.
    """
    return Evaluator(dataset, protocol)(mask)

