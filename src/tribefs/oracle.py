"""Exhaustive reference search the engine is checked against.

The exhaustive search scores every non-empty feature subset under the exact
evaluation protocol the engine uses, so engine results can be compared for
strict equality rather than proximity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import Individual, rank_key
from .data import Dataset
from .fitness import FitnessCache, FitnessProtocol, make_evaluator

__all__ = ["OracleResult", "exhaustive_best_subset"]


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an exhaustive subset search."""

    best_mask: np.ndarray
    best_accuracy: float
    evaluations: int
    wall_time: float


def exhaustive_best_subset(
    dataset: Dataset,
    protocol: FitnessProtocol = FitnessProtocol(),
    max_features: int = 20,
    cache: FitnessCache | None = None,
) -> OracleResult:
    """Score all 2^N - 1 subsets and return the best.

    Ties resolve exactly as the engine's population best resolves them:
    :func:`~tribefs.core.rank_key` (higher accuracy, then fewer selected
    features), then the lexicographically smallest mask.
    Refuses feature counts above ``max_features``; raise it knowingly for
    bigger searches. When a cache is supplied every subset's score lands in
    it, which lets an engine run replay the same numbers verbatim.
    """
    n = dataset.n_features
    if n > max_features:
        raise ValueError(
            f"exhaustive search over {n} features means 2^{n}-1 evaluations; "
            f"pass max_features={n} to insist"
        )
    evaluate = make_evaluator(dataset, protocol, cache)  # the folds are prepared once
    start = time.perf_counter()

    def scored():
        for code in range(1, 1 << n):
            subset = Individual(np.array([(code >> i) & 1 for i in range(n)], np.uint8))
            subset.fitness = evaluate(subset)
            yield subset

    best = min(scored(), key=lambda subset: (rank_key(subset), subset.key()))
    return OracleResult(
        best_mask=best.mask,
        best_accuracy=best.fitness,
        evaluations=(1 << n) - 1,
        wall_time=time.perf_counter() - start,
    )
