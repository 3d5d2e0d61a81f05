"""Reference engine operators the library is checked against.

``paired_mutation`` is the original quadratic partner scan: for every
mutant it recounts the mask of every slot of the tribe. It makes the same
random draws as the library's per-class slot lists, so the parity tests can
demand identical tribes and identical generator states. ``count_selected``
is the original mask popcount it scans with, so the reference does not
rely on the count an ``Individual`` caches.

``count_preserving_crossover`` is the original two-child crossover, kept
verbatim with its own ``CrossoverAlignmentError``: it also crossed parents
of unequal cardinality, which the library now refuses. It builds, repairs
and returns both children. The library builds only the first and takes the
second's repair draw without building it, so ``crossover_with_mirror``
demands the same first child and the same generator state, and hands tests
the mirror child to check as well.

``two_branch_crossover`` is the library's crossover as it was before its
repair draw became one: a child that needs the repair draws from its unset
positions, and a mirror that would need it draws as many indices without
using them. It is kept verbatim, so the tests can demand the same child and
the same generator state from the one-draw form.

``weakest_by_max`` and ``weakest_by_sort`` are the two ways the library
once picked a bin's weakest members: elitism's ``max`` over the class and
the contest's reversed stable sort. Both take slots in ascending order.

``brute_force_histogram`` recounts a tribe's selected-count histogram with
plain Python loops over ``mask.tolist()``; property tests use it to catch
vectorization mistakes and a wrong cached count alike.
"""

import copy

import numpy as np

import tribefs as t
from tribefs.core import Individual
from tribefs.evolution import _prefix_end


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


class CrossoverAlignmentError(ValueError):
    """No cut in the second parent matches the first parent's prefix count."""


def count_preserving_crossover(
    parent_i: t.Individual,
    parent_j: t.Individual,
    cut_i: int,
    rng: np.random.Generator,
) -> tuple[t.Individual, t.Individual]:
    """Single-point crossover that keeps each child at its parent's cardinality.

    The cut in the second parent is not free: it is the shortest prefix of
    ``parent_j`` containing exactly as many set bits as ``parent_i`` has
    before ``cut_i``. Each child is the union of the other parent's prefix
    with its own parent's suffix; positions present in both halves collapse,
    so any deficit is repaired by setting uniformly chosen unset bits until
    the child's count matches its parent's again.

    Raises :class:`CrossoverAlignmentError` when ``parent_j`` has fewer set
    bits in total than the required prefix count. Parents of equal
    cardinality, the only ones :func:`evolve_generation` pairs, always align.
    """
    n = parent_i.n_features
    if parent_j.n_features != n:
        raise ValueError("parents must share one feature count")
    if not 1 <= cut_i <= n - 1:
        raise ValueError(f"cut must lie in [1, {n - 1}]")
    prefix_count = int(parent_i.mask[:cut_i].sum())
    if prefix_count == 0:
        cut_j = 0
    else:
        cumulative = np.cumsum(parent_j.mask)
        if int(cumulative[-1]) < prefix_count:
            raise CrossoverAlignmentError(
                f"second parent holds {int(cumulative[-1])} set bits, "
                f"fewer than the required prefix count {prefix_count}"
            )
        cut_j = int(np.searchsorted(cumulative, prefix_count, side="left")) + 1
    child_i = _splice(parent_j.mask, cut_j, parent_i.mask, cut_i)
    child_j = _splice(parent_i.mask, cut_i, parent_j.mask, cut_j)
    _repair(child_i, count_selected(parent_i), rng)
    _repair(child_j, count_selected(parent_j), rng)
    return t.Individual(child_i), t.Individual(child_j)


def _splice(
    prefix_mask: np.ndarray, prefix_cut: int, suffix_mask: np.ndarray, suffix_cut: int
) -> np.ndarray:
    """Union of one parent's prefix with the other parent's suffix."""
    child = np.zeros(prefix_mask.size, dtype=np.uint8)
    child[:prefix_cut] = prefix_mask[:prefix_cut]
    np.maximum(child[suffix_cut:], suffix_mask[suffix_cut:], out=child[suffix_cut:])
    return child


def _repair(mask: np.ndarray, target: int, rng: np.random.Generator) -> None:
    """Set uniformly chosen unset bits until popcount reaches the target."""
    deficit = target - int(mask.sum())
    if deficit > 0:
        unset = np.flatnonzero(mask == 0)
        mask[rng.choice(unset, size=deficit, replace=False)] = 1


def crossover_with_mirror(
    parent_i: t.Individual,
    parent_j: t.Individual,
    cut_i: int,
    rng: np.random.Generator,
) -> tuple[t.Individual, t.Individual]:
    """The library's crossover child and the reference's mirror child.

    The parents share one cardinality, as the library requires. The
    reference runs on a copy of ``rng``. The library's child must equal the
    reference's first child, and the two generators must end in one state.
    """
    twin = copy.deepcopy(rng)
    child = t.count_preserving_crossover(parent_i, parent_j, cut_i, rng)
    want_i, want_j = count_preserving_crossover(parent_i, parent_j, cut_i, twin)
    assert child.key() == want_i.key()
    assert rng.bit_generator.state == twin.bit_generator.state
    return child, want_j


def two_branch_crossover(
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


def weakest_by_max(individuals: list[t.Individual], slots: list[int]) -> int:
    """Elitism's pick: the last slot in rank_key order, max keeping the lowest."""
    return max(slots, key=lambda i: t.rank_key(individuals[i]))


def weakest_by_sort(
    individuals: list[t.Individual], slots: list[int], k: int
) -> list[int]:
    """A contest's eviction: the reversed stable sort's first ``k`` slots."""
    peers = list(slots)
    peers.sort(key=lambda i: t.rank_key(individuals[i]), reverse=True)
    return peers[:k]


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
