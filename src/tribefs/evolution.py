"""Intra-tribe generation step.

Every operator here preserves the tribe's selected-count histogram exactly:
selection resamples individuals, crossover pairs parents of one cardinality
and keeps it via a union-and-repair construction, and mutation only
moves an individual between adjacent cardinality classes by simultaneously
moving a partner the opposite way. Crossover builds only the child it keeps
but still takes the mirror child's repair draw, so the random stream is
that of building both. Children are built with integer operations on
their parents' packed keys (:meth:`Individual.key`, eight features per
byte); a mask is unpacked only where NumPy lists positions for a draw: a
repair's unset positions and a mutation partner's candidate positions. A
generation is rank selection, matched crossover, paired mutation,
evaluation, and elitist inheritance, in that order.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from .core import Individual, Tribe, best_index, count_selected

__all__ = [
    "EvolutionConfig",
    "selection_probabilities",
    "rank_selection",
    "count_preserving_crossover",
    "paired_mutation",
    "evolve_generation",
]


@dataclass(frozen=True)
class EvolutionConfig:
    """Knobs of the per-generation operators."""

    crossover_rate: float = 0.9
    mutation_rate: float = 0.1
    selection_pressure: float = 1.8

    def __post_init__(self):
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must lie in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must lie in [0, 1]")
        if not 1.0 < self.selection_pressure <= 2.0:
            raise ValueError("selection_pressure must lie in (1, 2]")


def selection_probabilities(fitnesses: np.ndarray, pressure: float) -> np.ndarray:
    """Linear ranking probabilities, worst rank 1 through best rank n.

    Tied fitnesses share the average of their ranks, so a tribe with all
    fitnesses equal selects uniformly. With pressure s, rank r of n maps to
    ``(2 - s + 2 (s - 1) (r - 1) / (n - 1)) / n``; the best individual is
    selected s times as often as the average one.
    """
    fitnesses = np.asarray(fitnesses, dtype=float)
    n = fitnesses.size
    if n == 0:
        raise ValueError("cannot rank an empty tribe")
    if n == 1:
        return np.ones(1)
    # A value with L smaller and R no larger entries shares ranks L + 1 .. R.
    ordered = np.sort(fitnesses)
    lower = np.searchsorted(ordered, fitnesses, "left")
    ranks = (lower + np.searchsorted(ordered, fitnesses, "right") + 1) / 2.0
    probs = (2.0 - pressure + 2.0 * (pressure - 1.0) * (ranks - 1.0) / (n - 1.0)) / n
    return probs


def rank_selection(
    tribe: Tribe, config: EvolutionConfig, rng: np.random.Generator
) -> list[Individual]:
    """Draw ``tribe.size`` individuals with replacement by rank.

    The tribe's best individual is guaranteed to appear at least once: when
    the draw misses it, it replaces one uniformly chosen slot.
    """
    return _draw_by_rank(tribe, best_index(tribe), config, rng)


def _draw_by_rank(
    tribe: Tribe, elite: int, config: EvolutionConfig, rng: np.random.Generator
) -> list[Individual]:
    """:func:`rank_selection` for a caller that has ranked the tribe already."""
    fitnesses = np.array([ind.fitness for ind in tribe.individuals])
    probs = selection_probabilities(fitnesses, config.selection_pressure)
    n = tribe.size
    drawn = rng.choice(n, size=n, p=probs)
    if elite not in drawn:
        drawn[int(rng.integers(n))] = elite
    return [tribe.individuals[i] for i in drawn]


def count_preserving_crossover(
    parent_i: Individual,
    parent_j: Individual,
    cut_i: int,
    rng: np.random.Generator,
) -> Individual:
    """Single-point crossover child of two parents of one cardinality.

    The cut in the second parent is not free: it is the shortest prefix of
    ``parent_j`` containing exactly as many set bits as ``parent_i`` has
    before ``cut_i``, which equal counts always provide. The child is the
    union of ``parent_j``'s prefix with ``parent_i``'s suffix; positions
    present in both halves collapse, so any deficit is repaired by setting
    uniformly chosen unset bits until the child's count is its parents'
    again. Parents of unequal cardinality, which :func:`evolve_generation`
    never pairs, raise a ValueError before any draw.

    The mirror child (``parent_i``'s prefix with ``parent_j``'s suffix) is
    not built, but its repair draw is still taken, so the generator's stream
    is that of building both. Call the bits both parents set between the
    two cuts "doubled": the child whose halves overlap there loses them.
    That is this child when ``cut_i`` is the lower cut, and the mirror child
    otherwise, which would then choose its ``doubled`` bits among
    ``n - count + doubled`` unset ones.
    """
    n = parent_i.n_features
    if parent_j.n_features != n:
        raise ValueError("parents must share one feature count")
    if parent_j.count != parent_i.count:
        raise ValueError("parents must share one cardinality")
    if not 1 <= cut_i <= n - 1:
        raise ValueError(f"cut must lie in [1, {n - 1}]")
    key_i = parent_i.key()
    width = 8 * len(key_i)
    # Feature p is bit width - 1 - p, so a prefix of the mask is the integer's high end.
    bits_i = int.from_bytes(key_i, "big")
    bits_j = int.from_bytes(parent_j.key(), "big")
    prefix_count = (bits_i >> (width - cut_i)).bit_count()
    cut_j = _prefix_end(bits_j, width, prefix_count)
    low, high = sorted((cut_i, cut_j))
    window = (1 << (width - low)) - (1 << (width - high))
    doubled = (bits_i & bits_j & window).bit_count()
    # Between the cuts the child holds both parents' bits if cut_i is lower, else none.
    middle = (bits_i | bits_j) & window if cut_i < cut_j else 0
    prefix = (bits_j >> (width - low)) << (width - low)
    child = prefix | middle | (bits_i & ((1 << (width - high)) - 1))
    if doubled and cut_i < cut_j:
        packed = np.frombuffer(child.to_bytes(width // 8, "big"), np.uint8)
        unset = np.flatnonzero(np.unpackbits(packed, count=n) == 0)
        for position in rng.choice(unset, size=doubled, replace=False).tolist():
            child |= 1 << (width - 1 - position)
    elif doubled:
        rng.choice(n - parent_j.count + doubled, size=doubled, replace=False)
    return Individual.from_key(child.to_bytes(width // 8, "big"), n)


def _prefix_end(bits: int, width: int, count: int) -> int:
    """Length of the shortest mask prefix holding ``count`` set bits.

    ``bits`` is a key read as a big-endian integer ``width`` bits wide, so
    the prefix of length ``end`` is ``bits >> (width - end)``. Its count
    grows with ``end``, so a binary search finds the length, with no unpack.
    """
    low, high = 0, width
    while low < high:
        end = (low + high) // 2
        if (bits >> (width - end)).bit_count() < count:
            low = end + 1
        else:
            high = end
    return low


def paired_mutation(
    tribe: Tribe, config: EvolutionConfig, rng: np.random.Generator
) -> Tribe:
    """Flip one bit per mutating individual, balanced by a partner flip.

    Each individual mutates with probability ``mutation_rate``. The primary
    flip targets a uniformly chosen position; its direction follows the
    current bit value. A partner is drawn from the cardinality class the
    primary individual is about to leave towards (pre-flip counts; the
    mutant itself is never in that class) and flips one bit the opposite
    way, so the class sizes are unchanged. The mutation is cancelled when no
    partner exists or when losing a bit would empty the subset.

    Partners are looked up in per-class lists of slots, built once from
    the individuals' cached counts and kept in ascending slot order; a
    paired flip moves mutant and partner into each other's class. So the
    candidates are those of a scan of the whole tribe, in the same order,
    and every draw matches.
    """
    individuals = list(tribe.individuals)
    slots: dict[int, list[int]] = defaultdict(list)
    for i, ind in enumerate(individuals):
        slots[ind.count].append(i)
    n_features = tribe.n_features
    for i in range(len(individuals)):
        if rng.random() >= config.mutation_rate:
            continue
        position = int(rng.integers(n_features))
        mutant = individuals[i]
        m = mutant.count
        gaining = not mutant.key()[position // 8] >> (7 - position % 8) & 1
        if not gaining and m == 1:
            continue  # losing the only set bit would empty the subset
        partner_class = m + 1 if gaining else m - 1
        partners = slots.get(partner_class)
        if not partners:
            continue
        k = int(rng.integers(len(partners)))
        j = partners[k]
        partner_positions = (individuals[j].mask == gaining).nonzero()[0]
        partner_position = int(partner_positions[rng.integers(partner_positions.size)])
        individuals[i] = _flipped(mutant, position)
        individuals[j] = _flipped(individuals[j], partner_position)
        del partners[k]
        insort(partners, i)
        own = slots[m]
        del own[bisect_left(own, i)]
        insort(own, j)
    return Tribe(individuals=individuals, mu=tribe.mu, sigma=tribe.sigma)


def _flipped(ind: Individual, position: int) -> Individual:
    key = ind.key()
    width = 8 * len(key)
    bits = int.from_bytes(key, "big") ^ (1 << (width - 1 - position))
    return Individual.from_key(bits.to_bytes(len(key), "big"), ind.n_features)


def evolve_generation(
    tribe: Tribe,
    config: EvolutionConfig,
    fitness_fn,
    rng: np.random.Generator,
) -> Tribe:
    """Run one full generation and return the successor tribe.

    Rank selection draws a pool of partners; each slot of the tribe is then
    matched with a not-yet-consumed partner of the same cardinality (slots in
    index order, partners in draw order). A matched slot is replaced either
    by its crossover child with the partner, which keeps the slot's own
    cardinality (probability ``crossover_rate``), or by the partner itself;
    unmatched slots keep their current individual. Paired mutation follows,
    new individuals are evaluated with ``fitness_fn``, and finally the
    previous generation's best individual replaces the weakest individual of
    its own cardinality class, so the best fitness never decreases and the
    histogram never changes.
    """
    elite = best_index(tribe)  # raises on an unevaluated tribe
    previous_best = tribe.individuals[elite]
    n_features = tribe.n_features

    selected = _draw_by_rank(tribe, elite, config, rng)
    pools: dict[int, deque[Individual]] = defaultdict(deque)
    for ind in selected:
        pools[count_selected(ind)].append(ind)

    successors = list(tribe.individuals)
    for i, original in enumerate(tribe.individuals):
        pool = pools.get(count_selected(original))
        if not pool:
            continue
        partner = pool.popleft()
        if n_features >= 2 and rng.random() < config.crossover_rate:
            # Partners share the slot's cardinality, so the cut always aligns.
            cut = int(rng.integers(1, n_features))
            successors[i] = count_preserving_crossover(original, partner, cut, rng)
        else:
            successors[i] = partner

    mutated = paired_mutation(
        Tribe(individuals=successors, mu=tribe.mu, sigma=tribe.sigma), config, rng
    )
    for ind in mutated.individuals:
        if ind.fitness is None:
            ind.fitness = fitness_fn(ind)

    elite_class = count_selected(previous_best)
    candidates = [
        i
        for i, ind in enumerate(mutated.individuals)
        if count_selected(ind) == elite_class
    ]
    weakest = min(candidates, key=lambda i: (mutated.individuals[i].fitness, i))
    mutated.individuals[weakest] = previous_best
    return mutated
