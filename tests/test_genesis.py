import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tribefs as t
from tribefs.genesis import _gaussian_quotas


def reference_allocation(n_features, mu, sigma, size, keep=None):
    """Straight-line reimplementation: quotas, nearest-integer, remainder repair.

    With ``keep`` set and its bin empty after the repair, the most
    over-allocated other occupied bin (ties: farther from the mean, then the
    higher cardinality) gives up one seat to it.
    """
    weights = [
        math.exp(-((m - mu) ** 2) / (2.0 * sigma * sigma))
        for m in range(1, n_features + 1)
    ]
    total = sum(weights)
    quotas = [size * w / total for w in weights]
    base = [math.floor(q + 0.5) for q in quotas]
    residue = size - sum(base)
    while residue != 0:
        if residue > 0:
            m = min(
                range(1, n_features + 1),
                key=lambda m: (-(quotas[m - 1] - base[m - 1]), abs(m - mu), m),
            )
            base[m - 1] += 1
            residue -= 1
        else:
            m = min(
                (m for m in range(1, n_features + 1) if base[m - 1] > 0),
                key=lambda m: (quotas[m - 1] - base[m - 1], -abs(m - mu), -m),
            )
            base[m - 1] -= 1
            residue += 1
    if keep is not None and base[keep - 1] == 0:
        donor = min(
            (m for m in range(1, n_features + 1) if m != keep and base[m - 1] > 0),
            key=lambda m: (quotas[m - 1] - base[m - 1], -abs(m - mu), -m),
        )
        base[donor - 1] -= 1
        base[keep - 1] = 1
    return {m: base[m - 1] for m in range(1, n_features + 1) if base[m - 1] > 0}


def bin_deltas(before, after):
    """Signed per-bin change between two histograms; zero entries omitted."""
    return {
        m: after.get(m, 0) - before.get(m, 0)
        for m in set(before) | set(after)
        if after.get(m, 0) != before.get(m, 0)
    }


class TestAllocateCounts:
    def test_frozen_canonical_allocation(self):
        # Values frozen from the reference implementation before coding.
        assert t.allocate_counts(9, 5, 0.75, 600) == {3: 9, 4: 132, 5: 319, 6: 131, 7: 9}

    def test_frozen_neighbour_sizes(self):
        assert t.allocate_counts(9, 5, 0.75, 601) == {
            3: 9, 4: 132, 5: 320, 6: 131, 7: 9,
        }
        assert t.allocate_counts(9, 5, 0.75, 599) == {
            3: 9, 4: 131, 5: 319, 6: 131, 7: 9,
        }

    def test_counts_always_sum_to_size(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            mu = float(rng.uniform(1, n))
            sigma = float(rng.uniform(0.3, n / 2))
            size = int(rng.integers(1, 500))
            counts = t.allocate_counts(n, mu, sigma, size)
            assert sum(counts.values()) == size
            assert all(1 <= m <= n for m in counts)
            assert all(c > 0 for c in counts.values())

    @given(
        st.integers(2, 30),
        st.floats(0.3, 10.0),
        st.integers(1, 400),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_implementation(self, n, sigma, size, data):
        mu = data.draw(st.integers(1, n))
        keep = data.draw(st.none() | st.integers(1, n))
        counts = t.allocate_counts(n, mu, sigma, size, keep=keep)
        assert counts == reference_allocation(n, mu, sigma, size, keep)

    def test_rounding_never_off_by_more_than_one(self):
        quotas = _gaussian_quotas(9, 5, 0.75, 600)
        for m, count in t.allocate_counts(9, 5, 0.75, 600).items():
            assert abs(count - float(quotas[m - 1])) <= 1.0

    def test_frozen_keep_takes_the_most_over_rounded_seat(self):
        # Bin 1 rounds to empty; bin 4 (quota 131.2, count 132) pays for it.
        assert t.allocate_counts(9, 5, 0.75, 600, keep=1) == {
            1: 1, 3: 9, 4: 131, 5: 319, 6: 131, 7: 9,
        }
        # An occupied bin needs no seat, so keep changes nothing.
        assert t.allocate_counts(9, 5, 0.75, 600, keep=3) == t.allocate_counts(
            9, 5, 0.75, 600
        )

    def test_frozen_award_and_penalty_deltas(self):
        # One seat more or less moves exactly one bin by one.
        current = t.allocate_counts(9, 5, 0.75, 600)
        up = t.allocate_counts(9, 5, 0.75, 601)
        down = t.allocate_counts(9, 5, 0.75, 599)
        assert bin_deltas(current, up) == {5: 1}
        assert bin_deltas(current, down) == {4: -1}

    def test_single_step_resizes_stay_small(self):
        # A +/-1 resize nets exactly one individual and moves each bin at most
        # one slot. The total reshuffle is unbounded in general (rounding
        # boundaries for several bins can flip at once), so the per-bin bound
        # is the invariant worth holding.
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(4, 30))
            mu = int(rng.integers(1, n + 1))
            sigma = float(rng.uniform(0.75, 4.0))
            size = int(rng.integers(6, 300))
            current = t.allocate_counts(n, mu, sigma, size)
            for step in (1, -1):
                deltas = bin_deltas(current, t.allocate_counts(n, mu, sigma, size + step))
                assert sum(deltas.values()) == step
                assert all(abs(d) == 1 for d in deltas.values())

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            t.allocate_counts(9, 0.5, 1.0, 10)
        with pytest.raises(ValueError):
            t.allocate_counts(9, 5, 0.0, 10)
        with pytest.raises(ValueError):
            t.allocate_counts(9, 5, 1.0, 0)
        with pytest.raises(ValueError):
            t.allocate_counts(9, 5, 1.0, 10, keep=0)
        with pytest.raises(ValueError):
            t.allocate_counts(9, 5, 1.0, 10, keep=10)
        # Every weight underflows: the nearest bin is half a unit from the mean.
        with pytest.raises(ValueError, match="degenerate profile"):
            t.allocate_counts(9, 4.5, 0.01, 10)

    def test_tiny_sigma_concentrates_on_mean(self):
        assert t.allocate_counts(20, 7, 0.05, 50) == {7: 50}


class TestSampleIndividual:
    def test_exact_cardinality(self):
        rng = np.random.default_rng(0)
        for m in (1, 3, 10):
            ind = t.sample_individual(10, m, rng)
            assert t.count_selected(ind) == m

    def test_rejects_out_of_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            t.sample_individual(10, 0, rng)
        with pytest.raises(ValueError):
            t.sample_individual(10, 11, rng)

    def test_positions_uniform_chi_square(self):
        # 10k singleton draws over 8 positions; fail only beyond the 99.9% point.
        chi2 = pytest.importorskip("scipy.stats").chi2
        rng = np.random.default_rng(42)
        counts = np.zeros(8)
        draws = 10_000
        for _ in range(draws):
            counts += t.sample_individual(8, 1, rng).mask
        expected = draws / 8
        statistic = float(((counts - expected) ** 2 / expected).sum())
        assert statistic < chi2.ppf(0.999, 7)

    def test_pair_combinations_all_reachable(self):
        rng = np.random.default_rng(3)
        seen = {t.sample_individual(4, 2, rng).key() for _ in range(2000)}
        assert len(seen) == 6  # all C(4,2) subsets appear


class TestInitPopulation:
    def test_population_matches_plan(self):
        plan = t.TribePlan.derive(10, tribe_size=100, n_tribes=3)
        population = t.init_population(plan, np.random.default_rng(11))
        assert population.size == plan.population_size
        assert [tribe.mu for tribe in population.tribes] == list(plan.means)
        for tribe in population.tribes:
            expected = t.allocate_counts(10, tribe.mu, plan.sigma, plan.tribe_size)
            assert t.histogram(tribe) == expected
            assert tribe.sigma == plan.sigma

    def test_same_seed_bit_identical(self):
        plan = t.TribePlan.derive(10, tribe_size=100, n_tribes=3)
        a = t.init_population(plan, np.random.default_rng(7))
        b = t.init_population(plan, np.random.default_rng(7))
        for tribe_a, tribe_b in zip(a.tribes, b.tribes):
            for ind_a, ind_b in zip(tribe_a.individuals, tribe_b.individuals):
                assert ind_a.key() == ind_b.key()

    def test_different_seeds_differ(self):
        plan = t.TribePlan.derive(10, tribe_size=100, n_tribes=3)
        a = t.init_population(plan, np.random.default_rng(7))
        b = t.init_population(plan, np.random.default_rng(8))
        assert any(
            ind_a.key() != ind_b.key()
            for tribe_a, tribe_b in zip(a.tribes, b.tribes)
            for ind_a, ind_b in zip(tribe_a.individuals, tribe_b.individuals)
        )

    def test_infeasible_plan_refused_without_override(self):
        with pytest.raises(t.InfeasiblePlanError):
            t.TribePlan.derive(10, tribe_size=4, n_tribes=3)

    def test_infeasible_plan_allowed_with_override(self):
        plan = t.TribePlan.derive(10, tribe_size=4, n_tribes=3, allow_infeasible=True)
        population = t.init_population(plan, np.random.default_rng(0))
        assert population.size == 12
