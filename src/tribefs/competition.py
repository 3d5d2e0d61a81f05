"""Inter-tribe competition.

Every few generations the tribes are ranked by their best individual's
fitness; the top tribe gains ``stake`` individuals and the weakest tribe that
can still afford the loss gives up the same ``stake``, so the population
total is conserved. Resizing reshapes a tribe's cardinality histogram with
the same allocation rule used at initialization, removing the weakest
members of over-full bins and sampling fresh individuals into under-full
ones. A tribe's best individual always survives its own tribe's shrinkage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CountHistogram,
    Population,
    Tribe,
    best_index,
    best_individual,
    count_selected,
    histogram,
    rank_key,
)
from .genesis import Allocation, allocate_counts, sample_individual

__all__ = [
    "CompetitionConfig",
    "CompetitionRecord",
    "rank_tribes",
    "resize_counts",
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


def resize_counts(
    current: CountHistogram,
    n_features: int,
    mu: float,
    sigma: float,
    new_size: int,
) -> tuple[CountHistogram, dict[int, int]]:
    """Target histogram for a resized tribe plus per-bin deltas.

    The target is the same allocation a fresh tribe of ``new_size`` would
    get, so resizing is a fixed point when the size does not change. Deltas
    map cardinality to the signed member change; zero entries are omitted.
    """
    allocation = allocate_counts(n_features, mu, sigma, new_size)
    target = dict(allocation.counts)
    deltas = {
        m: target.get(m, 0) - current.get(m, 0)
        for m in sorted(set(current) | set(target))
        if target.get(m, 0) != current.get(m, 0)
    }
    return target, deltas


def _reserve_best_seat(
    target: CountHistogram, allocation: Allocation, elite_class: int
) -> CountHistogram:
    """Keep one seat in the best individual's bin when the target drops it.

    The seat is taken from the most over-allocated occupied bin (smallest
    quota minus count; ties prefer the bin farther from the mean, then the
    higher cardinality), so the total stays intact.
    """
    if target.get(elite_class, 0) >= 1:
        return target
    adjusted = dict(target)
    donors = [m for m in adjusted if m != elite_class and adjusted[m] > 0]
    donor = min(
        donors,
        key=lambda m: (
            float(allocation.quotas[m - 1]) - adjusted[m],
            -abs(m - allocation.mu),
            -m,
        ),
    )
    adjusted[donor] -= 1
    if adjusted[donor] == 0:
        del adjusted[donor]
    adjusted[elite_class] = 1
    return adjusted


def _resize_tribe(
    tribe: Tribe,
    new_size: int,
    fitness_fn,
    rng: np.random.Generator,
) -> Tribe:
    """Grow or shrink a tribe to ``new_size`` while keeping its best member."""
    n_features = tribe.n_features
    allocation = allocate_counts(n_features, tribe.mu, tribe.sigma, new_size)
    elite_idx = best_index(tribe)
    elite_class = count_selected(tribe.individuals[elite_idx])
    target = _reserve_best_seat(dict(allocation.counts), allocation, elite_class)

    current = histogram(tribe)
    doomed: set[int] = set()
    newcomers = []
    for m in sorted(set(current) | set(target)):
        delta = target.get(m, 0) - current.get(m, 0)
        if delta < 0:
            # Weakest members of the bin leave; the tribe's best never does.
            members = [
                (ind.fitness, idx)
                for idx, ind in enumerate(tribe.individuals)
                if idx != elite_idx and count_selected(ind) == m
            ]
            members.sort()
            doomed.update(idx for _, idx in members[: -delta])
        elif delta > 0:
            for _ in range(delta):
                newcomers.append(sample_individual(n_features, m, rng))
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
