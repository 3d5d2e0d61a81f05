import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tribefs as t
from tribefs import evolution

import engine_reference
from conftest import make_tribe, surrogate_fitness


def evaluate_all(tribe):
    for ind in tribe.individuals:
        if ind.fitness is None:
            ind.fitness = surrogate_fitness(ind)
    return tribe


class TestEvolutionConfig:
    def test_defaults(self):
        config = t.EvolutionConfig()
        assert config.crossover_rate == 0.9
        assert config.mutation_rate == 0.1
        assert config.selection_pressure == 1.8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crossover_rate": -0.1},
            {"crossover_rate": 1.1},
            {"mutation_rate": 2.0},
            {"selection_pressure": 1.0},
            {"selection_pressure": 2.5},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            t.EvolutionConfig(**kwargs)


class TestSelectionProbabilities:
    def test_full_pressure_endpoints(self):
        # s = 2: the worst individual is never drawn, the best twice the mean.
        fitnesses = np.arange(100, dtype=float)
        probs = t.selection_probabilities(fitnesses, 2.0)
        assert probs[0] == pytest.approx(0.0, abs=1e-15)
        assert probs[-1] == pytest.approx(2.0 / 100)

    def test_known_values_pressure_18(self):
        # (2 - s + 2 (s - 1) (r - 1) / (n - 1)) / n with s = 1.8, n = 5.
        probs = t.selection_probabilities([10.0, 20.0, 30.0, 40.0, 50.0], 1.8)
        assert probs == pytest.approx([0.04, 0.12, 0.20, 0.28, 0.36])

    def test_ties_share_average_rank(self):
        probs = t.selection_probabilities([70.0, 70.0, 90.0], 1.8)
        assert probs[0] == probs[1]
        assert probs[2] > probs[0]
        assert probs.sum() == pytest.approx(1.0)

    def test_ranks_equal_scipy_average_ranks(self):
        rankdata = pytest.importorskip("scipy.stats").rankdata
        rng = np.random.default_rng(0)
        pressure = 1.8
        for _ in range(500):
            n = int(rng.integers(2, 60))
            # Few distinct values: most draws hold ties, some of them long runs.
            fitnesses = rng.integers(0, int(rng.integers(1, 8)), size=n) * 12.5
            ranks = rankdata(fitnesses, method="average")
            expected = (
                2.0 - pressure + 2.0 * (pressure - 1.0) * (ranks - 1.0) / (n - 1.0)
            ) / n
            probs = t.selection_probabilities(fitnesses, pressure)
            assert probs.dtype == expected.dtype
            assert np.array_equal(probs, expected)

    def test_all_tied_is_uniform(self):
        probs = t.selection_probabilities([80.0] * 7, 2.0)
        assert probs == pytest.approx(np.full(7, 1.0 / 7))

    def test_single_individual(self):
        assert t.selection_probabilities([55.0], 1.8) == pytest.approx([1.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            t.selection_probabilities([], 1.8)

    @given(
        fitnesses=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=2,
            max_size=40,
        ),
        pressure=st.floats(min_value=1.01, max_value=2.0),
    )
    @settings(max_examples=100)
    def test_distribution_properties(self, fitnesses, pressure):
        probs = t.selection_probabilities(fitnesses, pressure)
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= -1e-12).all()
        order = np.argsort(fitnesses)
        assert (np.diff(probs[order]) >= -1e-12).all()


class TestRankSelection:
    def test_draws_tribe_size_individuals(self):
        tribe = make_tribe({3: 4, 5: 6})
        selected = t.rank_selection(
            tribe, t.EvolutionConfig(), np.random.default_rng(0)
        )
        assert len(selected) == tribe.size
        assert all(ind in tribe.individuals for ind in selected)

    def test_best_always_present(self):
        # Near-flat fitnesses make the elite easy to miss in the raw draw.
        tribe = make_tribe({4: 12})
        for ind in tribe.individuals:
            ind.fitness = 50.0
        tribe.individuals[7].fitness = 51.0
        config = t.EvolutionConfig()
        for seed in range(300):
            selected = t.rank_selection(tribe, config, np.random.default_rng(seed))
            assert tribe.individuals[7] in selected

    def test_empirical_frequencies_track_probabilities(self):
        tribe = make_tribe({4: 6}, seed=3)
        config = t.EvolutionConfig(selection_pressure=1.8)
        rng = np.random.default_rng(11)
        counts = np.zeros(6)
        draws = 3000
        index_of = {id(ind): i for i, ind in enumerate(tribe.individuals)}
        for _ in range(draws):
            for ind in t.rank_selection(tribe, config, rng):
                counts[index_of[id(ind)]] += 1
        freq = counts / (draws * 6)
        probs = t.selection_probabilities(
            [ind.fitness for ind in tribe.individuals], 1.8
        )
        # The elitist guarantee overwrites one uniform slot whenever the raw
        # draw misses the best individual; adjust the expectation for that.
        elite = int(np.argmax(probs))
        miss = (1.0 - probs[elite]) ** 6
        expected = probs - miss * probs / (6 * (1.0 - probs[elite]))
        expected[elite] = probs[elite] + miss / 6
        assert freq == pytest.approx(expected, abs=0.012)

    def test_unevaluated_tribe_raises(self):
        tribe = make_tribe({3: 3}, evaluated=False)
        with pytest.raises(ValueError, match="no fitness"):
            t.rank_selection(tribe, t.EvolutionConfig(), np.random.default_rng(0))


class TestCountPreservingCrossover:
    def test_worked_example(self):
        # Both parents select 5 of 10. parent_i holds 2 set bits before cut 3,
        # and parent_j's second set bit is at 4, so its cut is 5. The child is
        # parent_j's "010" and parent_i's "1001100" with both parents' bits
        # between the cuts, "11"; nothing doubles there, so nothing is repaired.
        parent_i = t.Individual(t.mask_from_string("1011001100"))
        parent_j = t.Individual(t.mask_from_string("0100110011"))
        child_i, child_j = engine_reference.crossover_with_mirror(
            parent_i, parent_j, 3, np.random.default_rng(0)
        )
        assert t.mask_to_string(child_i.mask) == "0101101100"
        assert t.mask_to_string(child_j.mask) == "1010010011"
        # parent_j's cut is 5, just past its second set bit, and parent_i's
        # second set bit ends at 3: swapping the parents builds the mirror.
        swapped = t.count_preserving_crossover(
            parent_j, parent_i, 5, np.random.default_rng(0)
        )
        assert t.mask_to_string(swapped.mask) == "1010010011"

    def test_children_keep_parent_counts(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(1, n + 1))
            parent_i = t.sample_individual(n, m, rng)
            parent_j = t.sample_individual(n, m, rng)
            cut = int(rng.integers(1, n))
            child_i, child_j = engine_reference.crossover_with_mirror(
                parent_i, parent_j, cut, rng
            )
            assert t.count_selected(child_i) == m
            assert t.count_selected(child_j) == m

    def test_equal_counts_never_misalign(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(1, n + 1))
            parent_i = t.sample_individual(n, m, rng)
            parent_j = t.sample_individual(n, m, rng)
            cut = int(rng.integers(1, n))
            child_i, child_j = engine_reference.crossover_with_mirror(
                parent_i, parent_j, cut, rng
            )
            assert t.count_selected(child_i) == m
            assert t.count_selected(child_j) == m

    def test_unequal_cardinalities_raise_before_any_draw(self):
        # A sparser and a denser second parent, in either order, at every cut.
        parent = t.Individual(t.mask_from_string("1110"))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for other in (t.Individual(t.mask_from_string(s)) for s in ("1000", "1111")):
            for first, second in ((parent, other), (other, parent)):
                for cut in (1, 2, 3):
                    with pytest.raises(ValueError, match="share one cardinality"):
                        t.count_preserving_crossover(first, second, cut, rng)
        assert rng.bit_generator.state == before

    def test_empty_prefix_cut(self):
        # parent_i sets nothing before the cut, so parent_j's cut is 0: the
        # child is parent_i itself and the mirror is parent_j.
        parent_i = t.Individual(t.mask_from_string("0011"))
        parent_j = t.Individual(t.mask_from_string("1100"))
        child_i, child_j = engine_reference.crossover_with_mirror(
            parent_i, parent_j, 2, np.random.default_rng(0)
        )
        assert child_i.key() == parent_i.key()
        assert child_j.key() == parent_j.key()

    def test_rejects_bad_cut(self):
        parent = t.Individual(t.mask_from_string("1010"))
        other = t.Individual(t.mask_from_string("0101"))
        for cut in (0, 4, 7):
            with pytest.raises(ValueError, match="cut"):
                t.count_preserving_crossover(parent, other, cut, np.random.default_rng(0))

    def test_rejects_mismatched_feature_counts(self):
        parent = t.Individual(t.mask_from_string("1010"))
        other = t.Individual(t.mask_from_string("01010"))
        with pytest.raises(ValueError, match="feature count"):
            t.count_preserving_crossover(parent, other, 2, np.random.default_rng(0))

    def test_parents_unmodified(self):
        rng = np.random.default_rng(3)
        parent_i = t.sample_individual(12, 5, rng)
        parent_j = t.sample_individual(12, 5, rng)
        before_i = parent_i.mask.copy()
        before_j = parent_j.mask.copy()
        t.count_preserving_crossover(parent_i, parent_j, 6, rng)
        assert np.array_equal(parent_i.mask, before_i)
        assert np.array_equal(parent_j.mask, before_j)


def _crossover_case(rng):
    """Seeded parents of one cardinality and a cut, at either end a third of the time."""
    n = int(rng.integers(2, 301))
    m = int(rng.integers(1, n + 1))
    parent_i = t.sample_individual(n, m, rng)
    parent_j = t.sample_individual(n, m, rng)
    cut = int(rng.choice([1, n - 1, int(rng.integers(1, n))]))
    return parent_i, parent_j, cut


class TestCrossoverMatchesReference:
    """One child, built or not, draws exactly as the two-child original."""

    def test_stream_parity_over_seeded_pairs(self):
        rng = np.random.default_rng(20240612)
        seen = dict.fromkeys(
            [
                "equal counts",
                "empty prefix",
                "cut 1",
                "cut n - 1",
                "cut_j below cut_i",
                "cut_j above cut_i",
                "cut_j at cut_i",
                "child repaired",
                "mirror repaired",
            ],
            0,
        )
        for _ in range(6000):
            parent_i, parent_j, cut = _crossover_case(rng)
            n, mask_i, mask_j = parent_i.n_features, parent_i.mask, parent_j.mask
            prefix = int(mask_i[:cut].sum())
            seen["equal counts"] += parent_i.count == parent_j.count
            seen["empty prefix"] += prefix == 0
            seen["cut 1"] += cut == 1
            seen["cut n - 1"] += cut == n - 1
            child, mirror = engine_reference.crossover_with_mirror(
                parent_i, parent_j, cut, rng
            )
            cut_j = int(np.flatnonzero(mask_j)[prefix - 1]) + 1 if prefix else 0
            low, high = sorted((cut, cut_j))
            doubled = int((mask_i[low:high] & mask_j[low:high]).sum())
            seen["cut_j below cut_i"] += cut_j < cut
            seen["cut_j above cut_i"] += cut_j > cut
            seen["cut_j at cut_i"] += cut_j == cut
            seen["child repaired"] += cut < cut_j and doubled > 0
            seen["mirror repaired"] += cut > cut_j and doubled > 0
            assert child.count == parent_i.count
            assert mirror.count == parent_j.count
        assert min(seen.values()) >= 50, seen


class TestPairedMutation:
    def test_histogram_preserved(self):
        rng = np.random.default_rng(0)
        for seed in range(50):
            tribe = make_tribe({2: 3, 3: 5, 4: 2}, seed=seed)
            before = t.histogram(tribe)
            config = t.EvolutionConfig(mutation_rate=1.0)
            mutated = t.paired_mutation(tribe, config, rng)
            assert t.histogram(mutated) == before

    def test_zero_rate_is_identity(self):
        tribe = make_tribe({3: 4})
        config = t.EvolutionConfig(mutation_rate=0.0)
        mutated = t.paired_mutation(tribe, config, np.random.default_rng(0))
        assert mutated.individuals == tribe.individuals

    def test_input_tribe_unmodified(self):
        tribe = make_tribe({2: 4, 3: 4}, seed=1)
        before = [ind.mask.copy() for ind in tribe.individuals]
        config = t.EvolutionConfig(mutation_rate=1.0)
        t.paired_mutation(tribe, config, np.random.default_rng(5))
        for ind, mask in zip(tribe.individuals, before):
            assert np.array_equal(ind.mask, mask)

    def test_cancelled_without_partner_class(self):
        # A single cardinality class offers no partners, so nothing moves.
        tribe = make_tribe({4: 8}, seed=2)
        config = t.EvolutionConfig(mutation_rate=1.0)
        for seed in range(20):
            mutated = t.paired_mutation(tribe, config, np.random.default_rng(seed))
            for ind, original in zip(mutated.individuals, tribe.individuals):
                assert np.array_equal(ind.mask, original.mask)

    def test_never_empties_a_subset(self):
        # Individuals at one selected bit may only gain; empties would raise
        # inside the Individual constructor.
        tribe = make_tribe({1: 4, 2: 4}, n_features=6, seed=7)
        config = t.EvolutionConfig(mutation_rate=1.0)
        for seed in range(50):
            mutated = t.paired_mutation(tribe, config, np.random.default_rng(seed))
            assert t.histogram(mutated) == {1: 4, 2: 4}

    def test_some_masks_actually_change(self):
        tribe = make_tribe({2: 5, 3: 5}, seed=4)
        config = t.EvolutionConfig(mutation_rate=1.0)
        mutated = t.paired_mutation(tribe, config, np.random.default_rng(1))
        changed = sum(
            not np.array_equal(a.mask, b.mask)
            for a, b in zip(mutated.individuals, tribe.individuals)
        )
        assert changed >= 2

    def test_mutated_individuals_lose_fitness(self):
        # A changed mask invalidates the stored fitness; new objects carry None.
        tribe = make_tribe({2: 5, 3: 5}, seed=4)
        config = t.EvolutionConfig(mutation_rate=1.0)
        mutated = t.paired_mutation(tribe, config, np.random.default_rng(1))
        for ind, original in zip(mutated.individuals, tribe.individuals):
            if not np.array_equal(ind.mask, original.mask):
                assert ind.fitness is None


def _random_tribe(n_features, size, center, spread, seed):
    """Evaluated tribe whose counts spread around ``center``."""
    rng = np.random.default_rng(seed)
    offsets = rng.integers(-spread, spread + 1, size=size)
    individuals = []
    for m in np.clip(center + offsets, 1, n_features):
        ind = t.sample_individual(n_features, int(m), rng)
        ind.fitness = float(rng.uniform(50.0, 100.0))
        individuals.append(ind)
    return t.Tribe(individuals=individuals, mu=float(center), sigma=1.0)


def _assert_matches_reference(tribe, mutation_rate, seed):
    config = t.EvolutionConfig(mutation_rate=mutation_rate)
    rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    got = t.paired_mutation(tribe, config, rng)
    want = engine_reference.paired_mutation(tribe, config, reference_rng)
    assert [(ind.key(), ind.fitness) for ind in got.individuals] == [
        (ind.key(), ind.fitness) for ind in want.individuals
    ]
    assert all(ind.count == int(ind.mask.sum()) for ind in got.individuals)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestPairedMutationMatchesReference:
    """The per-class slot lists draw exactly as the quadratic partner scan."""

    @settings(max_examples=50, deadline=None)
    @given(
        n_features=st.integers(6, 279),
        size=st.integers(1, 300),
        center_share=st.floats(0.0, 1.0),
        spread=st.integers(0, 3),
        mutation_rate=st.sampled_from([0.1, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_tribes(
        self, n_features, size, center_share, spread, mutation_rate, seed
    ):
        center = 1 + int(center_share * (n_features - 1))
        tribe = _random_tribe(n_features, size, center, spread, seed)
        _assert_matches_reference(tribe, mutation_rate, seed + 1)

    def test_empty_partner_classes(self):
        # One class, then two classes three apart: no mutant ever finds a
        # partner, yet both versions must consume the same draws.
        for counts in ({4: 8}, {2: 5, 5: 5}):
            tribe = make_tribe(counts, n_features=12, seed=3)
            for seed in range(20):
                _assert_matches_reference(tribe, 1.0, seed)

    def test_one_bit_individual_losing_its_bit(self):
        tribe = make_tribe({1: 4, 2: 4}, n_features=6, seed=7)
        first = tribe.individuals[0]
        hits = 0
        for seed in range(30):
            probe = np.random.default_rng(seed)
            probe.random()
            hits += int(first.mask[int(probe.integers(6))])
            _assert_matches_reference(tribe, 1.0, seed)
        assert hits > 0  # slot 0 drew its own set bit at least once


class TestEvolveGeneration:
    def run_generation(self, tribe, seed=0, **config_kwargs):
        config = t.EvolutionConfig(**config_kwargs)
        return t.evolve_generation(
            tribe, config, surrogate_fitness, np.random.default_rng(seed)
        )

    def test_histogram_conserved(self):
        for seed in range(30):
            tribe = evaluate_all(make_tribe({2: 4, 3: 8, 4: 4}, seed=seed))
            before = t.histogram(tribe)
            successor = self.run_generation(tribe, seed=seed)
            assert t.histogram(successor) == before

    def test_best_fitness_never_decreases(self):
        tribe = evaluate_all(make_tribe({3: 6, 4: 6}, seed=1))
        rng = np.random.default_rng(2)
        config = t.EvolutionConfig()
        best = t.best_individual(tribe).fitness
        for _ in range(40):
            tribe = t.evolve_generation(tribe, config, surrogate_fitness, rng)
            current = t.best_individual(tribe).fitness
            assert current >= best
            best = current

    def test_elite_replaces_the_lowest_slot_of_a_tie(self, monkeypatch):
        # The successors are fixed here: slots 0-2 hold 3 features and 3-7
        # hold 4, the elite's class. Slots 4, 6 and 7 tie on that class's
        # lowest fitness, so the elite lands on slot 4. Slot 0 scores lower
        # still but holds another cardinality.
        tribe = make_tribe({3: 3, 4: 5}, seed=10)
        for ind, fitness in zip(tribe.individuals, [20, 60, 60, 70, 40, 90, 40, 40]):
            ind.fitness = float(fitness)
        elite = tribe.individuals[5]
        successors = make_tribe({3: 3, 4: 5}, seed=11)
        for ind, fitness in zip(successors.individuals, [10, 60, 60, 70, 40, 80, 40, 40]):
            ind.fitness = float(fitness)
        expected = list(successors.individuals)
        expected[4] = elite
        monkeypatch.setattr(evolution, "paired_mutation", lambda *args: successors)
        result = self.run_generation(tribe)
        assert all(a is b for a, b in zip(result.individuals, expected, strict=True))

    def test_previous_best_survives_verbatim(self):
        tribe = evaluate_all(make_tribe({3: 10}, seed=3))
        elite = t.best_individual(tribe)
        successor = self.run_generation(tribe, seed=9)
        assert any(
            np.array_equal(ind.mask, elite.mask) and ind.fitness == elite.fitness
            for ind in successor.individuals
        )

    def test_without_crossover_or_mutation_resamples_existing(self):
        tribe = evaluate_all(make_tribe({2: 5, 4: 5}, seed=5))
        originals = {ind.key() for ind in tribe.individuals}
        successor = self.run_generation(
            tribe, seed=4, crossover_rate=0.0, mutation_rate=0.0
        )
        assert {ind.key() for ind in successor.individuals} <= originals

    def test_no_evaluations_when_nothing_new(self):
        tribe = evaluate_all(make_tribe({3: 8}, seed=6))
        calls = []

        def counting_fitness(ind):
            calls.append(ind)
            return surrogate_fitness(ind)

        config = t.EvolutionConfig(crossover_rate=0.0, mutation_rate=0.0)
        t.evolve_generation(tribe, config, counting_fitness, np.random.default_rng(0))
        assert calls == []

    def test_all_successors_evaluated(self):
        tribe = evaluate_all(make_tribe({2: 6, 3: 6}, seed=7))
        successor = self.run_generation(tribe, seed=8)
        assert all(ind.fitness is not None for ind in successor.individuals)

    def test_deterministic_under_seed(self):
        tribe = evaluate_all(make_tribe({2: 5, 3: 7}, seed=8))
        a = self.run_generation(tribe, seed=13)
        b = self.run_generation(tribe, seed=13)
        assert [ind.key() for ind in a.individuals] == [
            ind.key() for ind in b.individuals
        ]
        assert [ind.fitness for ind in a.individuals] == [
            ind.fitness for ind in b.individuals
        ]

    def test_unevaluated_input_raises(self):
        tribe = make_tribe({3: 4}, evaluated=False)
        with pytest.raises(ValueError, match="no fitness"):
            self.run_generation(tribe)

    def test_input_tribe_unmodified(self):
        tribe = evaluate_all(make_tribe({2: 4, 3: 4}, seed=9))
        masks = [ind.mask.copy() for ind in tribe.individuals]
        fits = [ind.fitness for ind in tribe.individuals]
        self.run_generation(tribe, seed=21)
        for ind, mask, fit in zip(tribe.individuals, masks, fits):
            assert np.array_equal(ind.mask, mask)
            assert ind.fitness == fit
