import numpy as np
import pytest

import tribefs as t
from tribefs.competition import _resize_tribe

from conftest import make_tribe, surrogate_fitness


def make_population(best_fitnesses, counts=None, n_features=10, mu=5.0, sigma=1.5):
    """One tribe per entry; each tribe's best fitness is pinned explicitly."""
    counts = counts or {4: 3, 5: 4, 6: 3}
    tribes = []
    for k, best in enumerate(best_fitnesses):
        tribe = make_tribe(counts, n_features=n_features, mu=mu, sigma=sigma, seed=k)
        for ind in tribe.individuals:
            ind.fitness = min(ind.fitness, best - 1.0)
        tribe.individuals[0].fitness = best
        tribes.append(tribe)
    return t.Population(tribes=tribes)


class TestCompetitionConfig:
    def test_defaults(self):
        config = t.CompetitionConfig()
        assert (config.interval, config.stake) == (2, 1)
        assert config.min_tribe_size == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval": 0},
            {"stake": -1},
            {"min_tribe_size": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            t.CompetitionConfig(**kwargs)


class TestRankTribes:
    def test_orders_by_best_fitness(self):
        population = make_population([91.2, 95.0, 89.1])
        assert t.rank_tribes(population) == [1, 0, 2]

    def test_all_equal_falls_back_to_index(self):
        population = make_population([90.0, 90.0, 90.0, 90.0])
        # Equal fitness and equal best-cardinality: lower index ranks first.
        for tribe in population.tribes:
            best = tribe.individuals[t.best_index(tribe)]
            assert t.count_selected(best) == t.count_selected(
                population.tribes[0].individuals[t.best_index(population.tribes[0])]
            )
        assert t.rank_tribes(population) == [0, 1, 2, 3]

    def test_fitness_tie_prefers_fewer_features(self):
        sparse = make_tribe({3: 5}, seed=0)
        dense = make_tribe({7: 5}, seed=1)
        for tribe in (sparse, dense):
            for ind in tribe.individuals:
                ind.fitness = 80.0
        population = t.Population(tribes=[dense, sparse])
        assert t.rank_tribes(population) == [1, 0]


class TestApplyCompetition:
    def test_zero_stakes_is_identity(self):
        population = make_population([90.0, 85.0, 80.0])
        config = t.CompetitionConfig(stake=0)
        result, record = t.apply_competition(
            population, config, surrogate_fitness, np.random.default_rng(0)
        )
        assert result is population
        assert record is None

    def test_winner_gains_loser_pays(self):
        population = make_population([90.0, 95.0, 80.0])
        sizes = [tribe.size for tribe in population.tribes]
        config = t.CompetitionConfig()
        result, record = t.apply_competition(
            population, config, surrogate_fitness, np.random.default_rng(1)
        )
        assert record == (1, 2)
        assert result.tribes[1].size == sizes[1] + 1
        assert result.tribes[2].size == sizes[2] - 1
        assert result.tribes[0].size == sizes[0]

    def test_population_total_conserved(self):
        population = make_population([88.0, 92.0, 85.0, 90.0])
        total = sum(tribe.size for tribe in population.tribes)
        config = t.CompetitionConfig(stake=2)
        rng = np.random.default_rng(2)
        for _ in range(10):
            population, record = t.apply_competition(
                population, config, surrogate_fitness, rng
            )
            assert sum(tribe.size for tribe in population.tribes) == total

    def test_loser_respects_floor_and_falls_back(self):
        # The weakest tribe sits at the floor; the next-weakest pays instead.
        population = make_population([95.0, 85.0, 80.0], counts={4: 3, 5: 4, 6: 3})
        tiny = make_tribe({5: 2}, seed=9)
        for ind in tiny.individuals:
            ind.fitness = 10.0
        population = t.Population(tribes=list(population.tribes) + [tiny])
        config = t.CompetitionConfig(min_tribe_size=2)
        result, record = t.apply_competition(
            population, config, surrogate_fitness, np.random.default_rng(3)
        )
        assert record == (0, 2)
        assert result.tribes[3].size == 2

    def test_no_affordable_loser_is_identity(self):
        tribes = []
        for k, best in enumerate([90.0, 80.0]):
            tribe = make_tribe({5: 2}, seed=k)
            for ind in tribe.individuals:
                ind.fitness = best
            tribes.append(tribe)
        population = t.Population(tribes=tribes)
        config = t.CompetitionConfig(min_tribe_size=2)
        result, record = t.apply_competition(
            population, config, surrogate_fitness, np.random.default_rng(4)
        )
        assert result is population
        assert record is None

    def test_winner_never_pays(self):
        # Even when the winner is the only tribe above the floor.
        big = make_tribe({4: 4, 5: 6, 6: 4}, seed=0)
        for ind in big.individuals:
            ind.fitness = 99.0
        small = make_tribe({5: 2}, seed=1)
        for ind in small.individuals:
            ind.fitness = 50.0
        population = t.Population(tribes=[big, small])
        config = t.CompetitionConfig(min_tribe_size=2)
        result, record = t.apply_competition(
            population, config, surrogate_fitness, np.random.default_rng(5)
        )
        assert record is None
        assert result is population

    def test_resized_tribes_match_allocation(self):
        population = make_population([85.0, 95.0, 75.0])
        config = t.CompetitionConfig()
        result, record = t.apply_competition(
            population, config, surrogate_fitness, np.random.default_rng(6)
        )
        for idx in record:
            before = population.tribes[idx]
            tribe = result.tribes[idx]
            elite = before.individuals[t.best_index(before)]
            assert t.histogram(tribe) == t.allocate_counts(
                tribe.n_features, tribe.mu, tribe.sigma, tribe.size, keep=elite.count
            )

    def test_best_individual_survives_shrink(self):
        rng = np.random.default_rng(7)
        for seed in range(20):
            population = make_population([80.0 + seed, 95.0, 70.0])
            loser_idx = t.rank_tribes(population)[-1]
            elite = population.tribes[loser_idx].individuals[
                t.best_index(population.tribes[loser_idx])
            ]
            result, record = t.apply_competition(
                population, t.CompetitionConfig(), surrogate_fitness, rng
            )
            assert record[1] == loser_idx
            survivors = result.tribes[loser_idx].individuals
            assert any(
                np.array_equal(ind.mask, elite.mask) and ind.fitness == elite.fitness
                for ind in survivors
            )

    def test_elite_seat_reserved_when_bin_would_vanish(self):
        # Pin the loser's best inside a bin the target allocation drops.
        tribe = make_tribe({3: 1, 5: 5, 6: 4}, n_features=10, mu=5.0, sigma=0.75, seed=3)
        for ind in tribe.individuals:
            ind.fitness = 60.0
        outlier = [
            i for i, ind in enumerate(tribe.individuals) if t.count_selected(ind) == 3
        ][0]
        tribe.individuals[outlier].fitness = 70.0
        strong = make_tribe({5: 6}, seed=4)
        for ind in strong.individuals:
            ind.fitness = 99.0
        population = t.Population(tribes=[strong, tribe])
        result, record = t.apply_competition(
            population, t.CompetitionConfig(), surrogate_fitness, np.random.default_rng(8)
        )
        assert record[1] == 1
        shrunk = result.tribes[1]
        elite_mask = tribe.individuals[outlier].mask
        assert any(np.array_equal(ind.mask, elite_mask) for ind in shrunk.individuals)
        assert t.histogram(shrunk).get(3, 0) == 1

    def test_shrink_removes_weakest_of_overfull_bins(self):
        population = make_population([95.0, 70.0])
        loser = population.tribes[1]
        result, record = t.apply_competition(
            population, t.CompetitionConfig(), surrogate_fitness, np.random.default_rng(9)
        )
        assert record[1] == 1
        elite = loser.individuals[t.best_index(loser)]
        target = t.allocate_counts(
            loser.n_features, loser.mu, loser.sigma, loser.size - 1, keep=elite.count
        )
        shrunk_bin = next(
            m for m, have in t.histogram(loser).items() if have > target.get(m, 0)
        )
        evicted_pool = sorted(
            (ind.fitness, idx)
            for idx, ind in enumerate(loser.individuals)
            if t.count_selected(ind) == shrunk_bin and idx != t.best_index(loser)
        )
        victim_fitness = evicted_pool[0][0]
        surviving = [ind.fitness for ind in result.tribes[1].individuals]
        assert surviving.count(victim_fitness) == sum(
            1 for ind in loser.individuals if ind.fitness == victim_fitness
        ) - 1

    def test_newcomers_are_evaluated(self):
        population = make_population([70.0, 95.0])
        result, record = t.apply_competition(
            population, t.CompetitionConfig(), surrogate_fitness, np.random.default_rng(10)
        )
        for tribe in result.tribes:
            assert all(ind.fitness is not None for ind in tribe.individuals)

    def test_deterministic_under_seed(self):
        population = make_population([88.0, 92.0, 84.0])
        config = t.CompetitionConfig()
        a, _ = t.apply_competition(
            population, config, surrogate_fitness, np.random.default_rng(11)
        )
        b, _ = t.apply_competition(
            population, config, surrogate_fitness, np.random.default_rng(11)
        )
        for tribe_a, tribe_b in zip(a.tribes, b.tribes):
            assert [ind.key() for ind in tribe_a.individuals] == [
                ind.key() for ind in tribe_b.individuals
            ]


class TestResizeTribe:
    def test_resize_is_fixed_point_at_same_size(self):
        # A tribe already at its allocation keeps every member and draws nothing.
        counts = t.allocate_counts(10, 5.0, 1.5, 30)
        tribe = make_tribe(counts, n_features=10, mu=5.0, sigma=1.5, seed=0)
        resized = _resize_tribe(tribe, 30, surrogate_fitness, np.random.default_rng(0))
        assert [ind.key() for ind in resized.individuals] == [
            ind.key() for ind in tribe.individuals
        ]

    def test_shrink_evicts_the_lowest_slots_of_a_tie(self):
        # Bins 4, 5 and 6 hold slots 0-3, 4-9 and 10-13. Each bin's first slot
        # scores 80 and the rest tie on 50, but for the tribe's best at slot 5.
        # Shrinking to 11 leaves 2, 3 and 2 of them, so every bin evicts some of
        # its tied members and keeps others: the lower slots go first.
        tribe = make_tribe({4: 4, 5: 6, 6: 4}, n_features=10, mu=5.0, sigma=1.5, seed=12)
        for slot, ind in enumerate(tribe.individuals):
            ind.fitness = 80.0 if slot in (0, 4, 10) else 50.0
        tribe.individuals[5].fitness = 95.0
        resized = _resize_tribe(tribe, 11, surrogate_fitness, np.random.default_rng(0))
        kept = {id(ind) for ind in resized.individuals}
        evicted = [
            slot for slot, ind in enumerate(tribe.individuals) if id(ind) not in kept
        ]
        assert evicted == [1, 2, 6, 7, 8, 11, 12]
