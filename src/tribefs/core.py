"""Core domain types for tribe-based feature selection.

An individual is a fixed-length binary mask over the feature set: bit i set
means feature i is part of the candidate subset. It is held packed, eight
features per byte, and those bytes are its one key: its storage, its
fitness-cache key and its tie-break order. A tribe is an ordered list
of individuals whose selected-feature counts cluster around a target
cardinality, and a population is the full collection of tribes. Everything
here is a container or a pure query; the genetic operators that mutate state
live in :mod:`tribefs.evolution` and :mod:`tribefs.competition`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

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


class Individual:
    """One candidate feature subset plus its cached fitness.

    The subset is held packed, eight features per byte: feature i is bit
    ``7 - i % 8`` of byte ``i // 8`` (``np.packbits``' big bit order), and
    the pad bits past ``n_features`` are clear. Those bytes are the only
    copy of the mask and are :meth:`key`: the fitness cache's key and the
    final tie-break order. ``mask`` unpacks a fresh read-only array on each
    access, so no caller can change the subset, and operators produce new
    individuals instead of editing masks in place. Individuals can therefore
    be shared freely between tribes and selection draws. ``count`` is the
    number of selected features, taken once here. ``fitness`` is the
    cross-validated accuracy in percent, ``None`` until evaluated.
    """

    __slots__ = ("_packed", "n_features", "count", "fitness")

    def __init__(self, mask, fitness: float | None = None):
        mask = np.asarray(mask)
        if mask.ndim != 1 or mask.size == 0:
            raise ValueError("mask must be a non-empty 1-D bit vector")
        if mask.dtype != np.uint8:
            # Checked before the cast, which would turn 0.6 into 0 and 257 into 1.
            if not np.isin(mask, (0, 1)).all():
                raise ValueError("mask entries must be 0 or 1")
            mask = mask.astype(np.uint8)
        # Checked before packing, which would turn a 2 into a 1.
        elif mask.tobytes().translate(None, b"\x00\x01"):
            raise ValueError("mask entries must be 0 or 1")
        self._seal(np.packbits(mask).tobytes(), mask.size)
        self.fitness = fitness

    @classmethod
    def from_key(cls, key: bytes, n_features: int) -> "Individual":
        """The individual whose :meth:`key` is ``key``, at ``n_features`` wide.

        Operators build children this way, from integer operations on their
        parents' keys; the key's length, its pad bits and its count are
        checked as for a mask.
        """
        key = bytes(key)
        if n_features < 1 or len(key) != (n_features + 7) // 8:
            raise ValueError(
                f"a key of {len(key)} bytes is not {n_features} features wide"
            )
        if key[-1] & (0xFF >> ((n_features - 1) % 8 + 1)):
            raise ValueError("a key must leave the bits past its width clear")
        individual = cls.__new__(cls)
        individual._seal(key, n_features)
        individual.fitness = None
        return individual

    def _seal(self, key: bytes, n_features: int) -> None:
        count = int.from_bytes(key, "big").bit_count()
        if count == 0:
            raise ValueError("the empty feature subset is not admissible")
        self._packed = key
        self.n_features = n_features
        self.count = count

    @property
    def mask(self) -> np.ndarray:
        """A fresh read-only uint8 0/1 array; writing to it cannot reach the subset."""
        packed = np.frombuffer(self._packed, np.uint8)
        mask = np.unpackbits(packed, count=self.n_features)
        mask.setflags(write=False)
        return mask

    def key(self) -> bytes:
        """The packed mask: the fitness cache's key and the order that breaks ties.

        At one width, keys order as the masks do lexicographically, so the
        smallest key is the subset whose first differing feature is unset.
        """
        return self._packed

    def __repr__(self) -> str:
        return f"Individual({mask_to_string(self.mask)!r}, fitness={self.fitness!r})"


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
