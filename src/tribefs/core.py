"""Core domain types for tribe-based feature selection.

An individual is a fixed-length binary mask over the feature set: bit i set
means feature i is part of the candidate subset. A tribe is an ordered list
of individuals whose selected-feature counts cluster around a target
cardinality, and a population is the full collection of tribes. Everything
here is a container or a pure query; the genetic operators that mutate state
live in :mod:`tribefs.evolution` and :mod:`tribefs.competition`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CountHistogram",
    "Individual",
    "Tribe",
    "Population",
    "count_selected",
    "histogram",
    "rank_key",
    "best_index",
    "best_individual",
    "mask_from_string",
    "mask_to_string",
]

# Sparse by convention: cardinality -> number of individuals, zero bins omitted.
CountHistogram = dict[int, int]


@dataclass(eq=False)
class Individual:
    """One candidate feature subset plus its cached fitness.

    The mask is stored as a read-only uint8 copy so individuals can be
    shared freely between tribes and selection draws; operators produce new
    individuals instead of editing masks in place. ``count`` is the number
    of selected features, computed once here; the mask cannot change, so it
    never goes stale. ``fitness`` is the cross-validated accuracy in
    percent, ``None`` until evaluated.
    """

    mask: np.ndarray
    fitness: float | None = None
    count: int = field(init=False, repr=False)

    def __post_init__(self):
        mask = np.asarray(self.mask)
        if mask.ndim != 1 or mask.size == 0:
            raise ValueError("mask must be a non-empty 1-D bit vector")
        # Checked before the cast, which would turn 0.6 into 0 and 257 into 1.
        if (
            mask.max() > 1
            if mask.dtype == np.uint8
            else not np.isin(mask, (0, 1)).all()
        ):
            raise ValueError("mask entries must be 0 or 1")
        # A copy, so freezing it below leaves the caller's buffer writable.
        mask = np.array(mask, dtype=np.uint8)
        count = int(np.count_nonzero(mask))
        if count == 0:
            raise ValueError("the empty feature subset is not admissible")
        mask.flags.writeable = False
        self.mask = mask
        self.count = count

    @property
    def n_features(self) -> int:
        return int(self.mask.size)

    def key(self) -> bytes:
        """Hashable identity of the subset (fitness-cache key)."""
        return self.mask.tobytes()

    def __repr__(self):  # pragma: no cover - debugging aid
        fit = "?" if self.fitness is None else f"{self.fitness:.2f}"
        return f"Individual({mask_to_string(self.mask)}, fitness={fit})"


@dataclass(eq=False)
class Tribe:
    """An ordered group of individuals with a shared cardinality profile.

    ``mu`` and ``sigma`` describe the Gaussian profile the tribe's
    selected-count histogram is shaped by; they stay fixed for the life of
    the tribe while its size may change through competition.
    """

    individuals: list[Individual]
    mu: float
    sigma: float

    def __post_init__(self):
        if not self.individuals:
            raise ValueError("a tribe must contain at least one individual")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        sizes = {ind.n_features for ind in self.individuals}
        if len(sizes) != 1:
            raise ValueError("all individuals in a tribe must share one feature count")

    @property
    def size(self) -> int:
        return len(self.individuals)

    @property
    def n_features(self) -> int:
        return self.individuals[0].n_features


@dataclass(eq=False)
class Population:
    """All tribes of one run, in fixed index order."""

    tribes: list[Tribe]

    def __post_init__(self):
        if not self.tribes:
            raise ValueError("a population must contain at least one tribe")

    @property
    def size(self) -> int:
        return sum(t.size for t in self.tribes)

    @property
    def n_features(self) -> int:
        return self.tribes[0].n_features


def count_selected(individual: Individual) -> int:
    """Number of features the individual selects (popcount of the mask).

    O(1): the count is taken once, when the individual is built.
    """
    return individual.count


def histogram(tribe: Tribe) -> CountHistogram:
    """Selected-count histogram of a tribe, zero bins omitted."""
    return dict(Counter(count_selected(ind) for ind in tribe.individuals))


def rank_key(individual: Individual) -> tuple[float, int]:
    """Sort key of the one ranking order: higher fitness, then fewer features.

    Callers add their own final tie-break: among tribe members and among
    tribes the first in order wins, while the population best and the
    exhaustive oracle append :meth:`Individual.key`.
    """
    return (-individual.fitness, individual.count)


def best_index(tribe: Tribe) -> int:
    """Index of the tribe's best individual.

    Ordering: :func:`rank_key`, then lower index. Raises if any individual
    is unevaluated, because a half-evaluated tribe has no well-defined best.
    """
    individuals = tribe.individuals
    for idx, ind in enumerate(individuals):
        if ind.fitness is None:
            raise ValueError(f"individual {idx} has no fitness; evaluate before ranking")
    keys = [rank_key(ind) for ind in individuals]
    return keys.index(min(keys))


def best_individual(tribe: Tribe) -> Individual:
    """The tribe's best individual under the :func:`best_index` ordering."""
    return tribe.individuals[best_index(tribe)]


def mask_from_string(bits: str) -> np.ndarray:
    """Parse a bit string like ``"1011001100"`` into a mask array."""
    if not bits or set(bits) - {"0", "1"}:
        raise ValueError(f"not a bit string: {bits!r}")
    return np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")


def mask_to_string(mask: np.ndarray) -> str:
    """Render a mask as a compact bit string."""
    return "".join("1" if b else "0" for b in np.asarray(mask).tolist())
