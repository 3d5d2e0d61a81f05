"""Reference pair solvers for the engine's batched finite Newton solver.

``_solve_margin`` is scipy's L-BFGS on the squared-hinge primal: it
minimizes the same objective by an independent quasi-Newton method, so the
parity tests can compare fold accuracies and objectives against it.

``_solve_squared_hinge`` (with ``_piece_minimizers`` and ``_objective``) is
the finite Newton solver as it was before its per-iteration call overhead
was cut, kept verbatim: the engine's solver must return the same bits.
"""

import itertools

import numpy as np
from scipy.optimize import minimize

import tribefs as t


def _solve_margin(
    X: np.ndarray, y_signed: np.ndarray, C: float, max_iter: int = 1000
) -> tuple[np.ndarray, float, bool]:
    """Minimize 0.5 ||w||^2 + C * sum(max(0, 1 - y (Xw + b))^2).

    Deterministic: starts from zero and uses a quasi-Newton minimizer on the
    smooth squared-hinge objective; stops on relative objective change below
    1e-12 or the iteration cap, whichever first.
    """
    d = X.shape[1]

    def objective(v):
        w, b = v[:d], v[d]
        gap = 1.0 - y_signed * (X @ w + b)
        active = np.maximum(gap, 0.0)
        value = 0.5 * float(w @ w) + C * float(active @ active)
        pull = -2.0 * C * (active * y_signed)
        grad = np.empty(d + 1)
        grad[:d] = w + X.T @ pull
        grad[d] = pull.sum()
        return value, grad

    result = minimize(
        objective,
        np.zeros(d + 1),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "ftol": 1e-12, "gtol": 1e-8},
    )
    return result.x[:d], float(result.x[d]), bool(result.success)


def margin_objective(X, y_signed, C, w, b):
    """The squared-hinge primal both solvers minimize."""
    gap = np.maximum(1.0 - y_signed * (X @ w + b), 0.0)
    return 0.5 * float(w @ w) + C * float(gap @ gap)


def pair_problems(X, y):
    """Yield (X rows, signed labels) of each one-vs-one pair machine, in model order."""
    classes = np.unique(y)
    for a, b in itertools.combinations(range(classes.size), 2):
        chosen = (y == classes[a]) | (y == classes[b])
        yield X[chosen], np.where(y[chosen] == classes[a], 1.0, -1.0)


def reference_linear_svm(X, y, C=1.0):
    """``train_linear_svm`` built from the L-BFGS pair solver."""
    classes = np.unique(y)
    pairs = tuple(itertools.combinations(range(classes.size), 2))
    solved = [_solve_margin(rows, signs, C) for rows, signs in pair_problems(X, y)]
    return t.LinearSVM(
        classes=classes,
        pairs=pairs,
        weights=np.array([w for w, _, _ in solved]),
        biases=np.array([b for _, b, _ in solved]),
        converged=all(ok for _, _, ok in solved),
    )


# The finite Newton solver before its call-overhead cuts, verbatim.

_ARMIJO = 1e-4  # sufficient-decrease fraction of the line search
_HALVINGS = 50  # backtracking steps before a problem counts as stalled


def _objective(w: np.ndarray, gap: np.ndarray, C: float) -> np.ndarray:
    hinge = np.maximum(gap, 0.0)
    return 0.5 * np.einsum("bi,bi->b", w, w) + C * np.einsum("bi,bi->b", hinge, hinge)


def _piece_minimizers(
    Z: np.ndarray, y: np.ndarray, active: np.ndarray, v: np.ndarray, C: float
) -> np.ndarray:
    """Minimize each problem's objective restricted to its active rows.

    Solves (R + 2C Z_A^T Z_A) v = 2C Z_A^T y_A for the whole stack, where R
    is the identity on w and 0 on the bias. With no active row the bias has
    no curvature and keeps its value from ``v``.
    """
    Z_active = Z * active[:, :, None]
    Z_active_t = Z_active.transpose(0, 2, 1)
    lhs = 2.0 * C * (Z_active_t @ Z)
    lhs[:, :-1, :-1] += np.eye(Z.shape[2] - 1)
    rhs = 2.0 * C * (Z_active_t @ y[:, :, None])
    idle = ~active.any(axis=1)
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
    """
    n_problems, _, width = Z.shape
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
        target = _piece_minimizers(Z, y, active, v, C)
        gap_target = y * (y - np.einsum("bnk,bk->bn", Z, target))
        finished = ((gap_target > 0.0) == active).all(axis=1)

        step = target - v
        drop = gap - gap_target  # the gap falls linearly along the step
        value = _objective(v[:, :-1], gap, C)
        slope = np.einsum("bi,bi->b", v[:, :-1], step[:, :-1])
        slope -= 2.0 * C * np.einsum("bi,bi->b", np.maximum(gap, 0.0), drop)
        t = np.ones(running.size)
        accepted = finished.copy()
        for _ in range(_HALVINGS):
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
        t[~accepted] = 0.0  # stalled: no step of this direction decreases the objective

        full = (t == 1.0)[:, None]  # finished problems never halve their step
        v = np.where(full, target, v + t[:, None] * step)
        gap = np.where(full, gap_target, gap - t[:, None] * drop)
        solutions[running] = v
        converged[running[finished]] = True
        keep = accepted & ~finished
        if not keep.all():
            running, Z, y, v, gap = (a[keep] for a in (running, Z, y, v, gap))
    return solutions, converged
