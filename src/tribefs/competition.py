"""Inter-tribe competition.

Every few generations the tribes are ranked by their best individual's
fitness; the top tribe gains ``stake`` individuals and the weakest tribe that
can still afford the loss gives up the same ``stake``, so the population
total is conserved. A resized tribe's histogram is ``allocate_counts`` of
the new size with ``keep`` set to its best individual's cardinality; there
is no separate resize target. The weakest other members of over-full bins
leave and fresh individuals fill under-full ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import Population, Tribe, best_index, best_individual, rank_key, score, weakest
from .genesis import allocate_counts, sample_counts

__all__ = [
    "CompetitionConfig",
    "rank_tribes",
    "apply_competition",
]


@dataclass(frozen=True)
class CompetitionConfig:
    """Timing and stake of the inter-tribe contest; a stake of 0 disables it."""

    interval: int = 2
    stake: int = 1
    min_tribe_size: int = 2

    def __post_init__(self):
        if self.interval < 1:
            raise ValueError("interval must be at least 1 generation")
        if self.stake < 0:
            raise ValueError("stake must be non-negative")
        if self.min_tribe_size < 1:
            raise ValueError("min_tribe_size must be positive")


def rank_tribes(population: Population) -> list[int]:
    """Tribe indices from strongest to weakest.

    A tribe's strength is its best individual's :func:`rank_key`; the sort
    is stable, so full ties keep the lower tribe index first.
    """
    tribes = population.tribes
    return sorted(
        range(len(tribes)), key=lambda idx: rank_key(best_individual(tribes[idx]))
    )


def _resize_tribe(
    tribe: Tribe,
    new_size: int,
    fitness_fn,
    rng: np.random.Generator,
) -> Tribe:
    """Grow or shrink a tribe to ``new_size`` while keeping its best member."""
    individuals = tribe.individuals
    elite_idx = best_index(tribe)
    keep = individuals[elite_idx].count
    target = Counter(
        allocate_counts(tribe.n_features, tribe.mu, tribe.sigma, new_size, keep)
    )
    current = Counter(ind.count for ind in individuals)
    doomed: set[int] = set()
    # A Counter difference keeps the positive bins: the over-full ones here.
    for m, surplus in (current - target).items():
        # The weakest of the bin leave, the tribe's best never.
        peers = [
            i for i, ind in enumerate(individuals) if ind.count == m and i != elite_idx
        ]
        doomed.update(weakest(individuals, peers, surplus))
    newcomers = sample_counts(tribe.n_features, target - current, rng)
    score(newcomers, fitness_fn)
    survivors = [ind for idx, ind in enumerate(individuals) if idx not in doomed]
    return Tribe(individuals=survivors + newcomers, mu=tribe.mu, sigma=tribe.sigma)


def apply_competition(
    population: Population,
    config: CompetitionConfig,
    fitness_fn,
    rng: np.random.Generator,
) -> tuple[Population, tuple[int, int] | None]:
    """Run one contest; return the new population and ``(winner, loser)``.

    The strongest tribe gains ``stake`` members and the weakest tribe that
    would not fall below ``min_tribe_size`` gives up the same number; both
    are tribe indices. When the stake is zero, or no tribe can afford it,
    the population is returned unchanged with ``None``.
    """
    if config.stake == 0:
        return population, None
    order = rank_tribes(population)
    winner = order[0]
    tribes = list(population.tribes)
    floor = config.min_tribe_size + config.stake
    loser = next((i for i in reversed(order[1:]) if tribes[i].size >= floor), None)
    if loser is None:
        return population, None
    tribes[winner] = _resize_tribe(
        tribes[winner], tribes[winner].size + config.stake, fitness_fn, rng
    )
    tribes[loser] = _resize_tribe(
        tribes[loser], tribes[loser].size - config.stake, fitness_fn, rng
    )
    return Population(tribes=tribes), (winner, loser)
