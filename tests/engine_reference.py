"""Reference engine operators the library is checked against.

``paired_mutation`` is the original quadratic partner scan: for every
mutant it recounts the mask of every slot of the tribe. It makes the same
random draws as the library's count-vector lookup, so the parity tests can
demand identical tribes and identical generator states. ``count_selected``
is the original mask popcount it scans with, so the reference does not
rely on the count an ``Individual`` caches.

``brute_force_histogram`` recounts a tribe's selected-count histogram with
plain Python loops over ``mask.tolist()``; property tests use it to catch
vectorization mistakes and a wrong cached count alike.
"""

import numpy as np

import tribefs as t


def count_selected(individual: t.Individual) -> int:
    """Number of features the individual selects (popcount of the mask)."""
    return int(individual.mask.sum())


def paired_mutation(
    tribe: t.Tribe, config: t.EvolutionConfig, rng: np.random.Generator
) -> t.Tribe:
    """Flip one bit per mutating individual, balanced by a partner flip.

    Each individual mutates with probability ``mutation_rate``. The primary
    flip targets a uniformly chosen position; its direction follows the
    current bit value. A partner is drawn from the cardinality class the
    primary individual is about to leave towards (pre-flip counts, partner
    distinct from the mutant) and flips one bit the opposite way, so the
    class sizes are unchanged. The mutation is cancelled when no partner
    exists or when losing a bit would empty the subset.
    """
    individuals = list(tribe.individuals)
    n = len(individuals)
    n_features = tribe.n_features
    for i in range(n):
        if rng.random() >= config.mutation_rate:
            continue
        position = int(rng.integers(n_features))
        mask_i = individuals[i].mask
        m = int(mask_i.sum())
        gaining = mask_i[position] == 0
        if not gaining and m == 1:
            continue  # losing the only set bit would empty the subset
        partner_class = m + 1 if gaining else m - 1
        partners = [
            j
            for j in range(n)
            if j != i and count_selected(individuals[j]) == partner_class
        ]
        if not partners:
            continue
        j = partners[int(rng.integers(len(partners)))]
        mask_j = individuals[j].mask
        if gaining:
            partner_positions = np.flatnonzero(mask_j == 1)
        else:
            partner_positions = np.flatnonzero(mask_j == 0)
        partner_position = int(partner_positions[rng.integers(partner_positions.size)])
        individuals[i] = _flipped(individuals[i], position)
        individuals[j] = _flipped(individuals[j], partner_position)
    return t.Tribe(individuals=individuals, mu=tribe.mu, sigma=tribe.sigma)


def _flipped(ind: t.Individual, position: int) -> t.Individual:
    mask = ind.mask.copy()
    mask[position] ^= 1
    return t.Individual(mask)


def brute_force_histogram(tribe: t.Tribe) -> t.CountHistogram:
    """Recount a tribe's selected-count histogram without numpy."""
    counts: t.CountHistogram = {}
    for individual in tribe.individuals:
        selected = 0
        for bit in individual.mask.tolist():
            if bit:
                selected += 1
        counts[selected] = counts.get(selected, 0) + 1
    return counts
