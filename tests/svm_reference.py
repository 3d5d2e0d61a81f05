"""Reference pair solver: scipy's L-BFGS on the squared-hinge primal.

It minimizes the same objective as the engine's batched finite Newton
solver, by an independent quasi-Newton method, so the parity tests can
compare fold accuracies and objectives against it.
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
