import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tribefs as t

import engine_reference
from conftest import make_tribe, surrogate_fitness


def bit_vectors(max_n=30):
    return (
        st.integers(min_value=1, max_value=max_n)
        .flatmap(lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n))
        .filter(any)
        .map(lambda bits: np.array(bits, dtype=np.uint8))
    )


class TestIndividual:
    def test_counts_match_known_masks(self):
        assert t.count_selected(t.Individual(t.mask_from_string("1011001100"))) == 5
        assert t.count_selected(t.Individual(t.mask_from_string("0100110000"))) == 3

    def test_mask_is_read_only(self):
        ind = t.Individual(np.array([1, 0, 1], dtype=np.uint8))
        with pytest.raises(ValueError):
            ind.mask[0] = 0

    def test_leaves_callers_buffer_writable(self):
        buf = np.array([1, 0, 1], dtype=np.uint8)
        ind = t.Individual(buf)
        assert buf.flags.writeable
        buf[1] = 1
        assert ind.mask.tolist() == [1, 0, 1]

    def test_rejects_empty_subset(self):
        with pytest.raises(ValueError, match="empty"):
            t.Individual(np.zeros(5, dtype=np.uint8))

    def test_rejects_empty_vector(self):
        with pytest.raises(ValueError):
            t.Individual(np.array([], dtype=np.uint8))

    def test_rejects_non_binary_values(self):
        with pytest.raises(ValueError, match="0 or 1"):
            t.Individual(np.array([0, 2, 1], dtype=np.uint8))

    @pytest.mark.parametrize(
        "mask",
        [np.array([0.6, 1.0]), np.array([1, 0, 257])],
        ids=["fraction", "wraps-to-one"],
    )
    def test_rejects_values_the_cast_would_hide(self, mask):
        with pytest.raises(ValueError, match="0 or 1"):
            t.Individual(mask)

    def test_accepts_any_dtype_holding_bits(self):
        masks = [
            [1, 0, 1],
            [True, False, True],
            np.array([1.0, 0.0, 1.0]),
            np.frombuffer(bytes([1, 0, 1]), np.bool_),
        ]
        for mask in masks:
            ind = t.Individual(mask)
            assert ind.key() == bytes([0b1010_0000])
            assert ind.mask.dtype == np.uint8 and ind.mask.tolist() == [1, 0, 1]

    @pytest.mark.parametrize(
        "raw,message",
        [(bytes([1, 2, 0]), "0 or 1"), (bytes([0, 0, 0]), "empty")],
        ids=["byte-2", "all-zeros"],
    )
    def test_validates_a_bytes_backed_mask(self, raw, message):
        with pytest.raises(ValueError, match=message):
            t.Individual(np.frombuffer(raw, np.uint8))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            t.Individual(np.ones((2, 2), dtype=np.uint8))

    def test_key_order_is_the_mask_byte_order(self):
        # Ties among equal fitness and count break on key(), as they did on mask bytes.
        rng = np.random.default_rng(45)
        for _ in range(20_000):
            width = int(rng.integers(1, 300))
            density = rng.random()
            masks = [(rng.random(width) < density).astype(np.uint8) for _ in range(2)]
            masks = [mask if mask.any() else 1 - mask for mask in masks]
            a, b = (t.Individual(mask).key() for mask in masks)
            raw_a, raw_b = (mask.tobytes() for mask in masks)
            assert (a > b) - (a < b) == (raw_a > raw_b) - (raw_a < raw_b)

    def test_writing_a_returned_mask_changes_nothing(self):
        ind = t.Individual(t.mask_from_string("1011001100"))
        key, count = ind.key(), ind.count
        mask = ind.mask
        mask.flags.writeable = True  # a fresh array: its owner may unlock it
        mask[:] = 1
        assert ind.key() == key and ind.count == count
        assert t.mask_to_string(ind.mask) == "1011001100"

    def test_individuals_hold_their_masks_packed(self):
        # At 2000 features a byte per feature held about 2.1 MiB for these 1,000.
        rng = np.random.default_rng(46)
        cardinalities = rng.integers(1, 2001, size=1000).tolist()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            held = [t.sample_individual(2000, m, rng) for m in cardinalities]
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(held) == 1000
        assert grown < 0.5 * 2**20

    @pytest.mark.parametrize(
        "key,width,message",
        [
            (bytes([0b1010_0000]), 9, "wide"),
            (bytes([0b1010_0001]), 7, "past its width"),
            (bytes([0, 0]), 16, "empty"),
            (b"", 0, "wide"),
        ],
        ids=["short", "pad-bit", "all-zeros", "no-width"],
    )
    def test_from_key_validates(self, key, width, message):
        with pytest.raises(ValueError, match=message):
            t.Individual.from_key(key, width)

    def test_from_key_round_trips(self):
        ind = t.Individual(t.mask_from_string("1011001100"))
        again = t.Individual.from_key(ind.key(), ind.n_features)
        assert again.key() == ind.key() and again.count == ind.count == 5
        assert again.fitness is None

    def test_key_identifies_subset(self):
        a = t.Individual(t.mask_from_string("101"))
        b = t.Individual(t.mask_from_string("101"))
        c = t.Individual(t.mask_from_string("110"))
        assert a.key() == b.key()
        assert a.key() != c.key()

    def test_cached_count_matches_mask_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            width = int(rng.integers(1, 300))
            mask = (rng.random(width) < rng.random()).astype(np.uint8)
            if mask.any():
                assert t.Individual(mask).count == int(mask.sum())
            else:
                with pytest.raises(ValueError, match="empty"):
                    t.Individual(mask)
        with pytest.raises(ValueError, match="empty"):
            t.Individual(np.zeros(279, dtype=np.uint8))

    def test_count_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            t.Individual(np.array([1, 0, 1], dtype=np.uint8), count=5)

    @given(bit_vectors())
    def test_count_matches_python_popcount(self, mask):
        expected = sum(int(b) for b in mask.tolist())
        assert t.count_selected(t.Individual(mask)) == expected


def assert_sealed(ind):
    """The mask is a read-only unpacking of the packed key, and its count holds."""
    mask = ind.mask
    assert mask.dtype == np.uint8 and not mask.flags.writeable
    assert mask.size == ind.n_features
    key = ind.key()
    # packbits pads with zeros, so this also demands clear pad bits.
    assert type(key) is bytes and key == np.packbits(mask).tobytes()
    assert ind.count == engine_reference.count_selected(ind)


class TestOperatorMasks:
    """Every operator hands out sealed masks and leaves its inputs as they were."""

    def test_sampled_individuals(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            n = int(rng.integers(1, 300))
            ind = t.sample_individual(n, int(rng.integers(1, n + 1)), rng)
            assert_sealed(ind)

    def test_crossover_children(self):
        rng = np.random.default_rng(42)
        for _ in range(600):
            n = int(rng.integers(2, 300))
            count = int(rng.integers(1, n + 1))
            parents = [t.sample_individual(n, count, rng) for _ in range(2)]
            before = [parent.key() for parent in parents]
            child = t.count_preserving_crossover(*parents, int(rng.integers(1, n)), rng)
            assert_sealed(child)
            assert [parent.key() for parent in parents] == before

    def test_mutants(self):
        config = t.EvolutionConfig(mutation_rate=0.5)
        mutants = 0
        for seed in range(40):
            rng = np.random.default_rng([43, seed])
            n = int(rng.integers(4, 60))
            low = int(rng.integers(1, n - 2))
            counts = {m: 3 for m in range(low, low + 4)}
            tribe = make_tribe(counts, n_features=n, seed=seed)
            before = [ind.key() for ind in tribe.individuals]
            mutated = t.paired_mutation(tribe, config, rng)
            for new, old in zip(mutated.individuals, tribe.individuals):
                assert_sealed(new)
                mutants += new is not old
            assert [ind.key() for ind in tribe.individuals] == before
        assert mutants >= 100

    def test_competition_newcomers(self):
        config = t.CompetitionConfig(interval=1, stake=3)
        for seed in range(20):
            tribes = [
                make_tribe({3: 3, 4: 4, 5: 3}, seed=10 * seed + k) for k in range(3)
            ]
            population = t.Population(tribes=tribes)
            members = [ind for tribe in tribes for ind in tribe.individuals]
            before = [ind.key() for ind in members]
            resized, record = t.apply_competition(
                population, config, surrogate_fitness, np.random.default_rng([44, seed])
            )
            assert record is not None
            newcomers = [
                ind
                for tribe in resized.tribes
                for ind in tribe.individuals
                if not any(ind is member for member in members)
            ]
            assert newcomers
            for ind in newcomers:
                assert_sealed(ind)
            assert [ind.key() for ind in members] == before


class TestMaskStrings:
    def test_round_trip(self):
        text = "100101"
        assert t.mask_to_string(t.mask_from_string(text)) == text

    def test_rejects_non_binary_text(self):
        with pytest.raises(ValueError):
            t.mask_from_string("10a1")
        with pytest.raises(ValueError):
            t.mask_from_string("")


class TestTribe:
    def test_histogram(self):
        tribe = make_tribe({3: 2, 5: 4, 7: 1})
        assert t.histogram(tribe) == {3: 2, 5: 4, 7: 1}

    def test_rejects_empty_tribe(self):
        with pytest.raises(ValueError):
            t.Tribe(individuals=[], mu=3.0, sigma=1.0)

    def test_rejects_mixed_feature_counts(self):
        a = t.Individual(t.mask_from_string("101"))
        b = t.Individual(t.mask_from_string("1001"))
        with pytest.raises(ValueError, match="one feature count"):
            t.Tribe(individuals=[a, b], mu=2.0, sigma=1.0)

    def test_rejects_non_positive_sigma(self):
        a = t.Individual(t.mask_from_string("101"))
        with pytest.raises(ValueError):
            t.Tribe(individuals=[a], mu=2.0, sigma=0.0)


class TestBestIndividual:
    def test_highest_fitness_wins(self):
        tribe = make_tribe({4: 3, 5: 3})
        for i, ind in enumerate(tribe.individuals):
            ind.fitness = float(i)
        assert t.best_index(tribe) == len(tribe.individuals) - 1

    def test_fitness_tie_prefers_fewer_features(self):
        wide = t.Individual(t.mask_from_string("111100"), fitness=90.0)
        slim = t.Individual(t.mask_from_string("110000"), fitness=90.0)
        tribe = t.Tribe(individuals=[wide, slim], mu=3.0, sigma=1.0)
        assert t.best_individual(tribe) is slim

    def test_full_tie_prefers_lower_index(self):
        first = t.Individual(t.mask_from_string("110000"), fitness=90.0)
        second = t.Individual(t.mask_from_string("001100"), fitness=90.0)
        tribe = t.Tribe(individuals=[first, second], mu=2.0, sigma=1.0)
        assert t.best_index(tribe) == 0

    def test_rank_key_orders_fitness_then_count(self):
        slim_low = t.Individual(t.mask_from_string("100000"), fitness=80.0)
        wide_high = t.Individual(t.mask_from_string("111100"), fitness=90.0)
        slim_high = t.Individual(t.mask_from_string("001000"), fitness=90.0)
        ranked = sorted([slim_low, wide_high, slim_high], key=t.rank_key)
        assert ranked == [slim_high, wide_high, slim_low]

    def test_unevaluated_tribe_raises(self):
        tribe = make_tribe({4: 2}, evaluated=False)
        with pytest.raises(ValueError, match="no fitness"):
            t.best_index(tribe)


class TestPopulation:
    def test_size_sums_tribes(self):
        tribes = [make_tribe({4: 3}, seed=s) for s in range(3)]
        assert t.Population(tribes=tribes).size == 9

    def test_n_features_is_the_mask_width(self):
        # The benchmark's operator micro-measurements read it.
        tribes = [make_tribe({4: 3}, n_features=12, seed=s) for s in range(2)]
        assert t.Population(tribes=tribes).n_features == 12

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            t.Population(tribes=[])
