import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tribefs as t


class TestConstants:
    def test_sigma_cap_closed_form(self):
        assert t.SIGMA_CAP_COEFF == pytest.approx(
            (2.0 / math.sqrt(2.0 * math.pi)) * math.exp(-4.5), abs=0.0
        )
        assert abs(t.SIGMA_CAP_COEFF - 0.008864) < 5e-7

    def test_tribe_count_closed_form(self):
        assert abs(t.TRIBE_COUNT_COEFF - 37.6066) < 5e-4

    def test_coefficients_are_reciprocal(self):
        # One constant is 1 / (3 * the other); they must agree exactly.
        assert t.TRIBE_COUNT_COEFF == pytest.approx(
            1.0 / (3.0 * t.SIGMA_CAP_COEFF), rel=1e-12
        )


class TestDeriveSigma:
    @pytest.mark.parametrize(
        "n_features,n_tribes,expected",
        [(9, 3, 0.75), (60, 3, 5.0), (36, 3, 3.0), (279, 6, 279 / 21)],
    )
    def test_known_values(self, n_features, n_tribes, expected):
        assert t.derive_sigma(n_features, n_tribes) == pytest.approx(expected)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            t.derive_sigma(0, 3)
        with pytest.raises(ValueError):
            t.derive_sigma(9, 0)

    @given(st.integers(1, 3000), st.integers(1, 50))
    def test_positive_and_decreasing_in_tribes(self, n, k):
        assert t.derive_sigma(n, k) > 0
        assert t.derive_sigma(n, k + 1) < t.derive_sigma(n, k)


class TestDeriveTribeCount:
    @pytest.mark.parametrize(
        "n_features,tribe_size,expected",
        [
            (9, 600, 3),  # formula suggests 0; clamped to the floor of 3
            (100, 1000, 3),
            (166, 1000, 6),
            (279, 2000, 5),
            (2000, 6000, 12),
        ],
    )
    def test_known_values(self, n_features, tribe_size, expected):
        assert t.derive_tribe_count(n_features, tribe_size) == expected

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="must be positive"):
            t.derive_tribe_count(0, 600)
        with pytest.raises(ValueError, match="must be positive"):
            t.derive_tribe_count(9, 0)

    @given(st.integers(1, 3000), st.integers(1, 10000))
    def test_count_keeps_sigma_under_cap_or_clamps(self, n, size):
        count = t.derive_tribe_count(n, size)
        assert count >= 3
        # Whenever the formula (not the clamp) chose the count, the derived
        # sigma respects the per-member cap.
        if count > 3:
            assert t.derive_sigma(n, count) <= t.SIGMA_CAP_COEFF * size + 1e-9


class TestPlaceMeans:
    @pytest.mark.parametrize(
        "n_features,n_tribes,expected",
        [
            (9, 3, (2, 5, 7)),
            (36, 3, (9, 18, 27)),
            (60, 3, (15, 30, 45)),
            (16, 3, (4, 8, 12)),
            (33, 3, (8, 17, 25)),
            (56, 3, (14, 28, 42)),
            (100, 3, (25, 50, 75)),
        ],
    )
    def test_known_values(self, n_features, n_tribes, expected):
        assert t.place_means(n_features, n_tribes) == expected

    def test_rejects_overcrowded_range(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            t.place_means(4, 9)

    def test_rejects_non_positive_count(self):
        with pytest.raises(ValueError, match="n_tribes must be positive"):
            t.place_means(9, 0)

    @given(st.integers(4, 500))
    def test_means_stay_inside_range(self, n):
        means = t.place_means(n, 3)
        assert all(1 <= m <= n for m in means)
        assert list(means) == sorted(set(means))


class TestTribePlan:
    def test_derive_fills_everything(self):
        plan = t.TribePlan.derive(9, tribe_size=600)
        assert plan.n_tribes == 3
        assert plan.means == (2, 5, 7)
        assert plan.sigma == pytest.approx(0.75)
        assert plan.population_size == 1800

    def test_explicit_means_override_placement(self):
        plan = t.TribePlan.derive(9, tribe_size=600, means=(2, 5, 8))
        assert plan.means == (2, 5, 8)
        assert plan.n_tribes == 3
        assert plan.sigma == pytest.approx(0.75)

    def test_explicit_sigma_override(self):
        plan = t.TribePlan.derive(9, tribe_size=600, sigma=1.2)
        assert plan.sigma == 1.2

    def test_rejects_means_outside_range(self):
        with pytest.raises(ValueError):
            t.TribePlan.derive(9, tribe_size=600, means=(2, 5, 10))

    def test_rejects_unsorted_means(self):
        with pytest.raises(ValueError):
            t.TribePlan.derive(9, tribe_size=600, means=(5, 2, 8))

    @pytest.mark.parametrize(
        "field,value",
        [("n_features", 0), ("tribe_size", 0), ("sigma", 0.0)],
    )
    def test_rejects_non_positive_field(self, field, value):
        fields = dict(
            n_features=9, n_tribes=3, tribe_size=10, means=(2, 5, 8), sigma=1.0
        )
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            t.TribePlan(**fields)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            t.TribePlan.derive(9, tribe_size=600, sigma=sigma, allow_infeasible=True)

    def test_rejects_mean_count_mismatch(self):
        with pytest.raises(ValueError):
            t.TribePlan(
                n_features=9, n_tribes=2, tribe_size=10, means=(2, 5, 8), sigma=1.0
            )


class TestValidatePlan:
    def test_canonical_plan_is_feasible(self):
        plan = t.TribePlan.derive(9, tribe_size=600)
        assert t.validate_plan(plan) == []

    def test_published_override_means_are_feasible(self):
        plan = t.TribePlan.derive(9, tribe_size=600, means=(2, 5, 8))
        assert t.validate_plan(plan) == []

    def test_degenerate_sigma_flagged(self):
        plan = t.TribePlan.derive(9, tribe_size=600, sigma=0.5, allow_infeasible=True)
        notes = t.validate_plan(plan)
        assert any("0.7" in note for note in notes)

    def test_cap_violation_flagged(self):
        plan = t.TribePlan.derive(
            9, tribe_size=10, n_tribes=3, sigma=1.0, allow_infeasible=True
        )
        notes = t.validate_plan(plan)
        assert any("cap" in note for note in notes)
        # the numeric bound in the message is the per-member cap
        assert any(f"{t.SIGMA_CAP_COEFF * 10:.4f}" in note for note in notes)

    def test_below_lower_bound_flagged(self):
        plan = t.TribePlan.derive(60, tribe_size=600, sigma=2.0, allow_infeasible=True)
        notes = t.validate_plan(plan)
        assert any("lower bound" in note for note in notes)

    def test_empty_edge_bins_flagged(self):
        # A feasible sigma but a tiny tribe: the outer bins round to zero.
        plan = t.TribePlan.derive(
            10, tribe_size=4, n_tribes=3, sigma=0.8333, allow_infeasible=True
        )
        notes = t.validate_plan(plan)
        assert any("edge cardinality" in note for note in notes)

    def test_build_refuses_an_infeasible_plan_with_its_diagnostics(self):
        plan = t.TribePlan.derive(10, tribe_size=4, n_tribes=3, allow_infeasible=True)
        with pytest.raises(t.InfeasiblePlanError) as refusal:
            dataclasses.replace(plan, allow_infeasible=False)
        diagnostics = t.validate_plan(plan)
        assert diagnostics
        assert str(refusal.value) == "infeasible tribe layout: " + "; ".join(diagnostics)
