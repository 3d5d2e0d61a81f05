import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tribefs as t

from conftest import make_tribe


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
        for mask in ([1, 0, 1], [True, False, True], np.array([1.0, 0.0, 1.0])):
            assert t.Individual(mask).key() == bytes([1, 0, 1])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            t.Individual(np.ones((2, 2), dtype=np.uint8))

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

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            t.Population(tribes=[])
