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

from dataclasses import dataclass

import numpy as np

from .core import (
    Population,
    Tribe,
    best_index,
    best_individual,
    count_selected,
    histogram,
    rank_key,
)
from .genesis import allocate_counts, sample_counts

__all__ = [
    "CompetitionConfig",
    "CompetitionRecord",
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


@dataclass(frozen=True)
class CompetitionRecord:
    """Telemetry for one applied contest."""

    winner: int
    loser: int
    sizes: tuple[int, ...]


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
    elite_idx = best_index(tribe)
    keep = count_selected(tribe.individuals[elite_idx])
    target = allocate_counts(tribe.n_features, tribe.mu, tribe.sigma, new_size, keep)
    current = histogram(tribe)
    doomed: set[int] = set()
    for m, have in current.items():
        surplus = have - target.get(m, 0)
        if surplus > 0:
            # Weakest members of the bin leave; the tribe's best never does.
            members = sorted(
                (ind.fitness, idx)
                for idx, ind in enumerate(tribe.individuals)
                if idx != elite_idx and count_selected(ind) == m
            )
            doomed.update(idx for _, idx in members[:surplus])
    missing = {
        m: want - current.get(m, 0)
        for m, want in target.items()
        if want > current.get(m, 0)
    }
    newcomers = sample_counts(tribe.n_features, missing, rng)
    for ind in newcomers:
        ind.fitness = fitness_fn(ind)
    survivors = [
        ind for idx, ind in enumerate(tribe.individuals) if idx not in doomed
    ]
    return Tribe(individuals=survivors + newcomers, mu=tribe.mu, sigma=tribe.sigma)


def apply_competition(
    population: Population,
    config: CompetitionConfig,
    fitness_fn,
    rng: np.random.Generator,
) -> tuple[Population, CompetitionRecord | None]:
    """Run one contest; return the new population and its record.

    The strongest tribe gains ``stake`` members and the weakest tribe that
    would not fall below ``min_tribe_size`` gives up the same number. When
    the stake is zero, or no tribe can afford it, the population is
    returned unchanged with no record.
    """
    if config.stake == 0:
        return population, None
    order = rank_tribes(population)
    winner = order[0]
    loser = None
    for idx in reversed(order):
        if idx == winner:
            continue
        if population.tribes[idx].size - config.stake >= config.min_tribe_size:
            loser = idx
            break
    if loser is None:
        return population, None
    tribes = list(population.tribes)
    tribes[winner] = _resize_tribe(
        tribes[winner], tribes[winner].size + config.stake, fitness_fn, rng
    )
    tribes[loser] = _resize_tribe(
        tribes[loser], tribes[loser].size - config.stake, fitness_fn, rng
    )
    resized = Population(tribes=tribes)
    record = CompetitionRecord(
        winner=winner, loser=loser, sizes=tuple(t.size for t in resized.tribes)
    )
    return resized, record
