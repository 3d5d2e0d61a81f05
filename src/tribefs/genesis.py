"""The tribe layout: its closed-form sizing, its check, and the draws.

Tribe means are spread evenly over the cardinality range, the common spread
``sigma`` is tied to the gap between neighbouring means so adjacent tribes
half-overlap, and the tribe count is chosen so that even the outermost
cardinality bins of every tribe are populated at the configured tribe size.
Each tribe's size is split across cardinality bins by a discrete Gaussian
profile, rounded to integers with a largest-remainder repair so the bin
counts always sum to the exact tribe size; competition resizes a tribe with
the same :func:`allocate_counts`, its ``keep`` holding a seat for the best
individual. A :class:`TribePlan` checks itself against these allocations
with :func:`validate_plan` when it is built and raises
:class:`InfeasiblePlanError` unless it opts into ``allow_infeasible``, so
:func:`init_population` only draws: individuals are drawn uniformly from
the subsets of each bin's cardinality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CountHistogram, Individual, Population, Tribe

__all__ = [
    "SIGMA_CAP_COEFF",
    "TRIBE_COUNT_COEFF",
    "MIN_SIGMA",
    "derive_sigma",
    "derive_tribe_count",
    "place_means",
    "TribePlan",
    "InfeasiblePlanError",
    "allocate_counts",
    "sample_individual",
    "sample_counts",
    "validate_plan",
    "init_population",
]


class InfeasiblePlanError(ValueError):
    """Raised when a plan that fails validation is built without ``allow_infeasible``."""


# Largest admissible sigma per tribe member: with means one 3*sigma-span apart,
# a bin 3*sigma from the mean holds at least one individual only while
# sigma <= SIGMA_CAP_COEFF * tribe_size.
SIGMA_CAP_COEFF = (2.0 / math.sqrt(2.0 * math.pi)) * math.exp(-4.5)

# Members-per-feature ratio behind the tribe-count rule; equals
# 1 / (3 * SIGMA_CAP_COEFF), kept as its own closed form for clarity.
TRIBE_COUNT_COEFF = math.sqrt(2.0 * math.pi) / (6.0 * math.exp(-4.5))

# Below this spread the discrete Gaussian degenerates to a single bin and the
# normalization bound used above stops holding.
MIN_SIGMA = 0.7


def derive_sigma(n_features: int, n_tribes: int) -> float:
    """Smallest spread under which neighbouring tribes still half-overlap.

    Means sit ``n_features / (n_tribes + 1)`` apart and each tribe covers
    3*sigma to either side, so the tightest admissible spread is a third of
    the gap between means.
    """
    if n_features < 1 or n_tribes < 1:
        raise ValueError("n_features and n_tribes must be positive")
    return n_features / (3.0 * (n_tribes + 1))


def derive_tribe_count(n_features: int, tribe_size: int) -> int:
    """Tribe count keeping the derived sigma within the per-member cap.

    Solves ``derive_sigma(N, n_tribes) <= SIGMA_CAP_COEFF * tribe_size`` for
    the smallest integer tribe count and clamps it to at least 3 so the
    cardinality range is always covered by more than a token pair of tribes.
    """
    if n_features < 1 or tribe_size < 1:
        raise ValueError("n_features and tribe_size must be positive")
    suggested = math.ceil(TRIBE_COUNT_COEFF * n_features / tribe_size - 1.0)
    return max(3, suggested)


def place_means(n_features: int, n_tribes: int) -> tuple[int, ...]:
    """Evenly spaced integer tribe means over the cardinality range.

    Tribe k (1-based) gets ``round(k * n_features / (n_tribes + 1))`` with
    half-values rounded up. Means must come out strictly increasing; they
    always do for n_tribes <= n_features.
    """
    if n_tribes < 1:
        raise ValueError("n_tribes must be positive")
    means = tuple(
        int(math.floor(k * n_features / (n_tribes + 1) + 0.5))
        for k in range(1, n_tribes + 1)
    )
    if any(b <= a for a, b in zip(means, means[1:])):
        raise ValueError(
            f"means {means} are not strictly increasing; "
            f"{n_tribes} tribes do not fit {n_features} features"
        )
    return means


@dataclass(frozen=True)
class TribePlan:
    """A fully resolved tribe layout for one run.

    Normally built with :meth:`derive`, which fills every field from the
    dataset's feature count and the requested tribe size. Explicit ``means``
    or ``sigma`` overrides are first-class: some published layouts place
    means off the rounding grid, and sweeps need to force tribe counts.
    A plan that fails :func:`validate_plan` raises
    :class:`InfeasiblePlanError` when it is built, unless it sets
    ``allow_infeasible``.
    """

    n_features: int
    n_tribes: int
    tribe_size: int
    means: tuple[int, ...]
    sigma: float
    allow_infeasible: bool = False

    def __post_init__(self):
        if self.n_features < 1:
            raise ValueError("n_features must be positive")
        if self.tribe_size < 1:
            raise ValueError("tribe_size must be positive")
        if self.n_tribes != len(self.means):
            raise ValueError("means must list one value per tribe")
        if any(not 1 <= m <= self.n_features for m in self.means):
            raise ValueError("every mean must lie in [1, n_features]")
        if any(b <= a for a, b in zip(self.means, self.means[1:])):
            raise ValueError("means must be strictly increasing")
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if not self.allow_infeasible:
            diagnostics = validate_plan(self)
            if diagnostics:
                raise InfeasiblePlanError(
                    "infeasible tribe layout: " + "; ".join(diagnostics)
                )

    @property
    def population_size(self) -> int:
        return self.n_tribes * self.tribe_size

    @classmethod
    def derive(
        cls,
        n_features: int,
        tribe_size: int,
        n_tribes: int | None = None,
        means: tuple[int, ...] | None = None,
        sigma: float | None = None,
        allow_infeasible: bool = False,
    ) -> "TribePlan":
        """Build a plan, deriving every field not given explicitly."""
        if n_tribes is None:
            n_tribes = len(means) if means is not None else derive_tribe_count(
                n_features, tribe_size
            )
        if means is None:
            means = place_means(n_features, n_tribes)
        if sigma is None:
            sigma = derive_sigma(n_features, n_tribes)
        return cls(
            n_features=n_features,
            n_tribes=n_tribes,
            tribe_size=tribe_size,
            means=tuple(means),
            sigma=float(sigma),
            allow_infeasible=allow_infeasible,
        )


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
    return Individual.from_key(np.packbits(mask).tobytes(), n_features)


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

    The plan was checked when it was built, so this only draws. Each tribe
    draws from its own child generator so a tribe's contents do not depend
    on how many tribes precede it.
    """
    streams = rng.spawn(plan.n_tribes)
    tribes = []
    for mu, stream in zip(plan.means, streams):
        counts = allocate_counts(plan.n_features, mu, plan.sigma, plan.tribe_size)
        individuals = sample_counts(plan.n_features, counts, stream)
        tribes.append(Tribe(individuals=individuals, mu=mu, sigma=plan.sigma))
    return Population(tribes=tribes)
