"""Closed-form sizing of the tribe layout.

Tribe means are spread evenly over the cardinality range, the common spread
``sigma`` is tied to the gap between neighbouring means so adjacent tribes
half-overlap, and the tribe count is chosen so that even the outermost
cardinality bins of every tribe are populated at the configured tribe size.
All derivations are deterministic closed forms; ``genesis.validate_plan``
checks a concrete plan numerically against the allocation it would get.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SIGMA_CAP_COEFF",
    "TRIBE_COUNT_COEFF",
    "MIN_SIGMA",
    "derive_sigma",
    "derive_tribe_count",
    "place_means",
    "TribePlan",
]

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


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def place_means(n_features: int, n_tribes: int) -> tuple[int, ...]:
    """Evenly spaced integer tribe means over the cardinality range.

    Tribe k (1-based) gets ``round(k * n_features / (n_tribes + 1))`` with
    half-values rounded away from zero. Means must come out strictly
    increasing; they always do for n_tribes <= n_features.
    """
    if n_tribes < 1:
        raise ValueError("n_tribes must be positive")
    means = tuple(
        _round_half_away(k * n_features / (n_tribes + 1)) for k in range(1, n_tribes + 1)
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
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def population_size(self) -> int:
        return self.n_tribes * self.tribe_size

    @classmethod
    def derive(
        cls,
        n_features: int,
        tribe_size: int = 600,
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
