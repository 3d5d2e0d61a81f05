"""Population initialization.

Each tribe's size is split across cardinality bins by a discrete Gaussian
profile, rounded to integers with a largest-remainder repair so the bin
counts always sum to the exact tribe size. Individuals are then drawn
uniformly from the subsets of each bin's cardinality. Competition resizes
a tribe with the same :func:`allocate_counts`, its ``keep`` holding a seat
for the best individual; there is no separate resize target.
:func:`validate_plan` checks a plan against these allocations and returns
human-readable diagnostics instead of raising, so callers can decide
whether to proceed.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CountHistogram, Individual, Population, Tribe
from .params import MIN_SIGMA, SIGMA_CAP_COEFF, TribePlan, derive_sigma

__all__ = [
    "allocate_counts",
    "sample_individual",
    "sample_counts",
    "validate_plan",
    "init_population",
    "InfeasiblePlanError",
]


class InfeasiblePlanError(ValueError):
    """Raised when a plan fails validation and overrides were not requested."""


def _gaussian_quotas(n_features: int, mu: float, sigma: float, size: int) -> np.ndarray:
    """Fractional per-bin targets; index m-1 holds the quota of cardinality m."""
    m = np.arange(1, n_features + 1, dtype=float)
    weights = np.exp(-((m - mu) ** 2) / (2.0 * sigma * sigma))
    total = weights.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError("degenerate profile: no cardinality receives weight")
    return size * weights / total


def allocate_counts(
    n_features: int, mu: float, sigma: float, size: int, keep: int | None = None
) -> CountHistogram:
    """Split ``size`` individuals over cardinalities 1..n_features.

    The Gaussian profile is normalized over the valid cardinality range,
    each bin's quota is rounded to the nearest integer, and the leftover
    (at most a handful of individuals either way) is repaired one step at a
    time: surpluses go to the most under-rounded bin, deficits come out of
    the most over-rounded bin that still has members. Ties prefer the bin
    closer to the mean for additions and farther from it for removals, then
    the lower / higher cardinality respectively, so the result is unique.
    When ``keep``'s bin ends up empty, the bin the deficit rule picks gives
    it one seat. Returns the histogram, zero bins omitted.
    """
    if size < 1:
        raise ValueError("size must be positive")
    if not 1 <= mu <= n_features:
        raise ValueError("mu must lie within [1, n_features]")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if keep is not None and not 1 <= keep <= n_features:
        raise ValueError("keep must lie within [1, n_features]")
    quotas = _gaussian_quotas(n_features, mu, sigma, size)
    base = np.floor(quotas + 0.5).astype(np.int64)
    m_values = np.arange(1, n_features + 1)
    distance = np.abs(m_values - mu)

    def donor() -> int:
        # Most over-rounded bin first; empty bins never donate.
        order = np.lexsort((-m_values, -distance, quotas - base))
        return int(order[base[order] > 0][0])

    residue = size - int(base.sum())
    while residue > 0:
        order = np.lexsort((m_values, distance, -(quotas - base)))
        base[order[0]] += 1
        residue -= 1
    for _ in range(-residue):
        base[donor()] -= 1
    if keep is not None and base[keep - 1] == 0:
        base[donor()] -= 1
        base[keep - 1] = 1
    return {int(m): int(c) for m, c in zip(m_values, base) if c > 0}


def sample_individual(
    n_features: int, cardinality: int, rng: np.random.Generator
) -> Individual:
    """Draw one subset uniformly from all subsets of the given cardinality."""
    if not 1 <= cardinality <= n_features:
        raise ValueError("cardinality must lie within [1, n_features]")
    mask = np.zeros(n_features, dtype=np.uint8)
    positions = rng.choice(n_features, size=cardinality, replace=False)
    mask[positions] = 1
    return Individual(mask)


def sample_counts(
    n_features: int, counts: CountHistogram, rng: np.random.Generator
) -> list[Individual]:
    """Draw ``counts[m]`` individuals of each cardinality m, bins in ascending order."""
    return [
        sample_individual(n_features, m, rng)
        for m in sorted(counts)
        for _ in range(counts[m])
    ]


def validate_plan(plan: TribePlan) -> list[str]:
    """Numerically check a plan; return diagnostics, empty when feasible.

    Three families of checks: the spread must stay between the coverage
    lower bound and the per-member cap, it must not degenerate below
    :data:`MIN_SIGMA`, and every tribe's edge bins (one mean-gap out from
    its mean, clamped to the valid cardinality range) must receive at least
    one individual under the actual integer allocation.
    """
    diagnostics: list[str] = []
    lower = derive_sigma(plan.n_features, plan.n_tribes)
    cap = SIGMA_CAP_COEFF * plan.tribe_size
    if plan.sigma < lower - 1e-9:
        diagnostics.append(
            f"sigma {plan.sigma:.4f} is below the coverage lower bound {lower:.4f}; "
            f"tribes no longer half-overlap and some cardinalities go unsearched"
        )
    if plan.sigma > cap + 1e-9:
        diagnostics.append(
            f"sigma {plan.sigma:.4f} exceeds the per-member cap {cap:.4f} "
            f"for tribe_size {plan.tribe_size}; edge bins round to zero"
        )
    if plan.sigma < MIN_SIGMA:
        diagnostics.append(
            f"sigma {plan.sigma:.4f} is below {MIN_SIGMA}; the discrete profile "
            f"degenerates to a single cardinality bin"
        )
    span = plan.n_features / (plan.n_tribes + 1)
    for k, mu in enumerate(plan.means):
        counts = allocate_counts(plan.n_features, mu, plan.sigma, plan.tribe_size)
        # Outermost bins inside the tribe's scope, clamped to the valid range.
        low = min(max(int(math.ceil(mu - span)), 1), plan.n_features)
        high = min(max(int(math.floor(mu + span)), 1), plan.n_features)
        for bin_m in {low, high}:
            if counts.get(bin_m, 0) < 1:
                diagnostics.append(
                    f"tribe {k} (mean {mu}): edge cardinality {bin_m} receives no "
                    f"individuals at tribe_size {plan.tribe_size}"
                )
    return diagnostics


def init_population(plan: TribePlan, rng: np.random.Generator) -> Population:
    """Build the full starting population for a plan.

    The plan is validated first; diagnostics raise unless the plan opts into
    ``allow_infeasible``. Each tribe draws from its own child generator so a
    tribe's contents do not depend on how many tribes precede it.
    """
    diagnostics = validate_plan(plan)
    if diagnostics and not plan.allow_infeasible:
        raise InfeasiblePlanError("; ".join(diagnostics))
    streams = rng.spawn(plan.n_tribes)
    tribes = []
    for mu, stream in zip(plan.means, streams):
        counts = allocate_counts(plan.n_features, mu, plan.sigma, plan.tribe_size)
        individuals = sample_counts(plan.n_features, counts, stream)
        tribes.append(Tribe(individuals=individuals, mu=mu, sigma=plan.sigma))
    return Population(tribes=tribes)
