import json
import math
import sys

import numpy as np
import pytest

import tribefs as t

from conftest import make_blobs


def tiny_config(**overrides):
    base = dict(
        tribe_size=100,
        n_tribes=3,
        classifier="nearest-centroid",
        folds=3,
        max_generations=6,
        patience=0,
        runs=2,
        seed=7,
    )
    base.update(overrides)
    return t.RunConfig(**base)


@pytest.fixture(scope="module")
def small_dataset():
    return make_blobs(n_per_class=20, n_features=10, seed=1)


class TestRunConfig:
    def test_round_trip_through_dict(self):
        config = tiny_config(means=(2, 5, 8), sigma=1.2)
        clone = t.RunConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.means == (2, 5, 8)

    def test_unknown_keys_rejected(self):
        with pytest.raises(t.ConfigError, match="unknown config keys"):
            t.RunConfig.from_dict({"tribal_size": 600})

    @pytest.mark.parametrize(
        "raw",
        [
            {"dataset": 5},
            {"seed": 1.5},
            {"seed": True},
            {"allow_infeasible": 1},
            {"means": [2, 5.5]},
            {"means": "2,5"},
            {"regularization": "1"},
            {"n_tribes": None, "tribe_size": None},
        ],
    )
    def test_wrong_value_types_rejected(self, raw):
        with pytest.raises(t.ConfigError, match="must be"):
            t.RunConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_generations": 2.5}, {"runs": 2.0}, {"means": [1.5]}],
    )
    def test_direct_construction_checks_types(self, kwargs):
        with pytest.raises(t.ConfigError, match="must be"):
            t.RunConfig(**kwargs)
        with pytest.raises(t.ConfigError, match="must be"):
            tiny_config().replace(**kwargs)

    def test_json_numbers_fit_their_fields(self):
        config = t.RunConfig.from_dict(
            {"regularization": 2, "sigma": 1, "means": [2, 5], "n_tribes": None}
        )
        assert (config.regularization, config.sigma, config.means) == (2, 1, (2, 5))

    @pytest.mark.parametrize("field", ["seed", "fold_seed"])
    def test_negative_seeds_are_rejected_by_name(self, field):
        # Caught when the config is built, not later by NumPy's seeding.
        with pytest.raises(t.ConfigError, match=f"^{field} must be non-negative$"):
            t.RunConfig(**{field: -1})
        with pytest.raises(t.ConfigError, match=f"^{field} must be non-negative$"):
            t.RunConfig.from_dict({field: -1})

    @pytest.mark.parametrize("key", ["award", "penalty"])
    def test_retired_stake_keys_name_stake(self, key):
        with pytest.raises(t.ConfigError, match="'stake'"):
            t.RunConfig.from_dict({key: 1})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_generations": -1},
            {"patience": -2},
            {"runs": 0},
            {"crossover_rate": 1.5},
            {"stake": -1},
            {"classifier": "decision-tree"},
            {"folds": 1},
        ],
    )
    def test_bad_settings_fail_fast(self, kwargs):
        with pytest.raises(t.ConfigError):
            t.RunConfig(**kwargs)

    def test_replace_builds_variant(self):
        config = tiny_config()
        variant = config.replace(competition_interval=4)
        assert variant.competition_interval == 4
        assert variant.tribe_size == config.tribe_size

    def test_plan_reflects_overrides(self):
        config = tiny_config(n_tribes=3, sigma=1.5, allow_infeasible=True)
        plan = config.plan(12)
        assert plan.n_tribes == 3
        assert plan.sigma == 1.5

    def test_dataset_required_for_resolution(self):
        with pytest.raises(t.ConfigError, match="no dataset"):
            t.resolve_dataset(tiny_config())


class TestRunExperiment:
    def test_report_shape(self, small_dataset):
        report = t.run_experiment(tiny_config(), small_dataset)
        assert report.dataset_name == small_dataset.name
        assert report.n_features == 10
        assert len(report.results) == 2
        for result in report.results:
            assert result.generations == 6
            assert len(result.history) == 7  # generation 0 plus six steps
            assert 0.0 <= result.best_accuracy <= 100.0
            assert result.best_count == t.mask_from_string(result.best_mask).sum()
            assert result.evaluations > 0
        assert report.accuracy_mean == pytest.approx(
            np.mean([r.best_accuracy for r in report.results])
        )

    def test_fingerprint_reproducible_across_calls(self, small_dataset):
        config = tiny_config()
        a = t.run_experiment(config, small_dataset)
        b = t.run_experiment(config, small_dataset)
        assert a.fingerprint() == b.fingerprint()
        assert a.wall_time != b.wall_time or True  # wall time may differ freely

    def test_fingerprint_changes_with_seed(self, small_dataset):
        a = t.run_experiment(tiny_config(seed=7), small_dataset)
        b = t.run_experiment(tiny_config(seed=8), small_dataset)
        assert a.fingerprint() != b.fingerprint()

    def test_wall_time_excluded_from_canonical_form(self, small_dataset):
        report = t.run_experiment(tiny_config(runs=1), small_dataset)
        canonical = report.canonical_dict()
        assert "wall_time" not in canonical
        assert all("wall_time" not in r for r in canonical["results"])

    def test_best_accuracy_is_monotone_in_history(self, small_dataset):
        report = t.run_experiment(tiny_config(), small_dataset)
        for result in report.results:
            trace = [g.best_accuracy for g in result.history]
            assert trace == sorted(trace)

    def test_population_size_conserved_every_generation(self, small_dataset):
        report = t.run_experiment(tiny_config(), small_dataset)
        for result in report.results:
            totals = {sum(g.tribe_sizes) for g in result.history}
            assert totals == {300}

    def test_competitions_recorded_on_schedule(self, small_dataset):
        report = t.run_experiment(tiny_config(runs=1), small_dataset)
        result = report.results[0]
        events = result.competitions
        assert events, "six generations at interval 2 should hold contests"
        for event in events:
            assert event.generation % 2 == 0
            assert event.winner != event.loser
            assert event.sizes == result.history[event.generation].tribe_sizes

    def test_zero_generations_reports_initial_best(self, small_dataset):
        report = t.run_experiment(tiny_config(max_generations=0, runs=1), small_dataset)
        result = report.results[0]
        assert result.generations == 0
        assert len(result.history) == 1
        assert result.best_accuracy == result.history[0].best_accuracy

    def test_patience_stops_early(self, small_dataset):
        config = tiny_config(runs=1, max_generations=50, patience=3)
        report = t.run_experiment(config, small_dataset)
        result = report.results[0]
        if result.generations < 50:
            trace = [g.best_accuracy for g in result.history]
            tail = trace[-1]
            assert trace[-4:] == [tail] * 4

    def test_run_prefix_stability(self, small_dataset):
        # Run r is bit-identical no matter how many runs follow it.
        two = t.run_experiment(tiny_config(runs=2), small_dataset)
        three = t.run_experiment(tiny_config(runs=3), small_dataset)
        for a, b in zip(two.results, three.results):
            assert a.best_mask == b.best_mask
            assert a.best_accuracy == b.best_accuracy
            assert a.history == b.history

    def test_csv_dataset_resolution(self, tmp_path, small_dataset):
        path = tmp_path / "blobs.csv"
        t.write_csv(small_dataset, path)
        config = tiny_config(dataset=str(path), runs=1, folds=2)
        report = t.run_experiment(config)
        assert report.n_features == 10

    def test_missing_dataset_path_raises(self):
        config = tiny_config(dataset="no-such-file.csv", runs=1)
        with pytest.raises(FileNotFoundError, match="neither a known dataset name"):
            t.run_experiment(config)

    def test_bare_unknown_name_is_not_a_path(self, tmp_path, monkeypatch, small_dataset):
        # A stray file named like a benchmark must not load by accident.
        t.write_csv(small_dataset, tmp_path / "australian")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(t.DataError, match=r"unknown dataset.*'\./australian'"):
            t.run_experiment(tiny_config(dataset="australian", runs=1))
        report = t.run_experiment(tiny_config(dataset="./australian", runs=1, folds=2))
        assert report.n_features == 10


class TestReportSerialization:
    def test_save_writes_report_json_with_fingerprint(self, tmp_path, small_dataset):
        report = t.run_experiment(tiny_config(runs=1), small_dataset)
        report.save(tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["fingerprint"] == report.fingerprint()
        assert payload["config"]["tribe_size"] == 100
        assert len(payload["results"]) == 1

    def test_numpy_numbers_in_the_config_serialize(self, tmp_path, small_dataset):
        config = tiny_config(
            runs=1,
            seed=np.int64(7),
            tribe_size=np.int32(100),
            mutation_rate=np.float32(0.5),
            allow_infeasible=np.True_,
        )
        assert type(config.seed) is int and type(config.mutation_rate) is float
        assert type(config.allow_infeasible) is bool
        report = t.run_experiment(config, small_dataset)
        plain = t.run_experiment(
            tiny_config(runs=1, mutation_rate=0.5, allow_infeasible=True), small_dataset
        )
        assert report.fingerprint() == plain.fingerprint()
        report.save(tmp_path)
        assert json.loads((tmp_path / "report.json").read_text())["config"]["seed"] == 7

    def test_save_writes_three_csvs(self, tmp_path, small_dataset):
        report = t.run_experiment(tiny_config(runs=1), small_dataset)
        report.save(tmp_path)
        for name in ("summary.csv", "trace.csv", "competitions.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert len(lines) >= 1
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("run,best_accuracy")
        assert len(summary) == 2


class TestSweep:
    def test_interval_sweep_runs_each_point(self, small_dataset):
        config = tiny_config(runs=1, max_generations=4)
        points = t.sweep(config, "competition_interval", [1, 2], small_dataset)
        assert [value for value, _ in points] == [1, 2]
        for value, report in points:
            assert report.config["competition_interval"] == value

    def test_rejects_unsweepable_parameter(self, small_dataset):
        with pytest.raises(t.ConfigError, match="can only sweep"):
            t.sweep(tiny_config(), "tribe_size", [100], small_dataset)

    @pytest.mark.parametrize(
        "values, message",
        [
            ([2, 1, 2], r"must differ, not \[2, 1, 2\]"),
            ([2, 2.9], "competition_interval must be int"),  # not truncated to 2
        ],
    )
    def test_bad_values_fail_before_any_run(
        self, values, message, small_dataset, monkeypatch
    ):
        runs = []
        monkeypatch.setattr(t.harness, "run_experiment", lambda *a: runs.append(a))
        with pytest.raises(t.ConfigError, match=message):
            t.sweep(tiny_config(), "competition_interval", values, small_dataset)
        assert runs == []

    def test_n_tribes_sweep_requires_derived_layout(self, small_dataset):
        config = tiny_config(sigma=1.2)
        with pytest.raises(t.ConfigError, match="derived means and sigma"):
            t.sweep(config, "n_tribes", [3, 4], small_dataset)


class TestFriedman:
    @pytest.mark.usefixtures("scipy_stats")
    def test_dominant_method_two_rows(self):
        # One method wins on all 20 datasets: ranks are all 2 vs all 1, so
        # the statistic is exactly n and the p-value follows chi2(1).
        winner = np.full(20, 90.0)
        loser = np.full(20, 80.0)
        result = t.friedman_test(np.vstack([winner, loser]))
        assert result.statistic == pytest.approx(20.0)
        assert result.p_value == pytest.approx(7.744216e-6, rel=1e-5)
        assert result.average_ranks == (2.0, 1.0)

    @pytest.mark.usefixtures("scipy_stats")
    def test_identical_methods_share_ranks(self):
        matrix = np.tile(np.linspace(70, 90, 6), (3, 1))
        result = t.friedman_test(matrix)
        assert result.statistic == pytest.approx(0.0)
        assert result.p_value == pytest.approx(1.0)
        assert result.average_ranks == (2.0, 2.0, 2.0)

    @pytest.mark.usefixtures("scipy_stats")
    def test_matches_brute_force_ranks(self):
        rng = np.random.default_rng(3)
        matrix = rng.uniform(60, 100, size=(5, 12))
        result = t.friedman_test(matrix)
        k, n = matrix.shape
        manual = np.zeros(k)
        for j in range(n):
            column = matrix[:, j]
            order = sorted(range(k), key=lambda i: column[i])
            ranks = np.empty(k)
            i = 0
            while i < k:
                j_end = i
                while j_end + 1 < k and column[order[j_end + 1]] == column[order[i]]:
                    j_end += 1
                shared = (i + j_end) / 2.0 + 1.0
                for pos in range(i, j_end + 1):
                    ranks[order[pos]] = shared
                i = j_end + 1
            manual += ranks
        manual /= n
        assert result.average_ranks == pytest.approx(tuple(manual))
        statistic = 12.0 * n / (k * (k + 1)) * (
            float((manual**2).sum()) - k * (k + 1) ** 2 / 4.0
        )
        assert result.statistic == pytest.approx(statistic)

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            t.friedman_test(np.zeros((1, 5)))
        with pytest.raises(ValueError):
            t.friedman_test(np.array([[1.0, np.nan], [2.0, 3.0]]))


class TestPairedTTest:
    @pytest.mark.usefixtures("scipy_stats")
    def test_known_value(self):
        a = np.array([92.0, 94.0, 91.0, 95.0, 93.0])
        b = np.array([90.0, 93.0, 90.5, 92.0, 91.0])
        result = t.paired_t_test(a, b)
        differences = a - b
        expected = differences.mean() / (differences.std(ddof=1) / math.sqrt(5))
        assert result.statistic == pytest.approx(expected)
        assert 0.0 < result.p_value < 1.0
        assert result.n == 5

    @pytest.mark.usefixtures("scipy_stats")
    def test_symmetry(self):
        a = [90.0, 91.0, 95.0]
        b = [88.0, 93.0, 92.0]
        forward = t.paired_t_test(a, b)
        backward = t.paired_t_test(b, a)
        assert forward.statistic == pytest.approx(-backward.statistic)
        assert forward.p_value == pytest.approx(backward.p_value)

    @pytest.mark.usefixtures("scipy_stats")
    def test_constant_differences_yield_nan(self):
        result = t.paired_t_test([90.0, 91.0, 92.0], [89.0, 90.0, 91.0])
        assert math.isnan(result.statistic)
        assert math.isnan(result.p_value)
        assert result.mean_difference == pytest.approx(1.0)

    def test_rejects_mismatched_vectors(self):
        with pytest.raises(ValueError):
            t.paired_t_test([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            t.paired_t_test([1.0], [2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_accuracies(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            t.paired_t_test([90.0, bad, 92.0], [89.0, 90.0, 93.0])
        with pytest.raises(ValueError, match="non-finite"):
            t.paired_t_test([90.0, 91.0, 92.0], [89.0, 90.0, bad])


def test_significance_tests_without_scipy_name_the_extra(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", None)  # as if not installed
    message = r"pip install 'tribefs\[stats\]'"
    with pytest.raises(ModuleNotFoundError, match=message):
        t.friedman_test([[90.0, 80.0], [85.0, 75.0]])
    with pytest.raises(ModuleNotFoundError, match=message):
        t.paired_t_test([90.0, 80.0], [85.0, 75.0])


def test_significance_tests_check_input_before_scipy(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", None)  # as if not installed
    with pytest.raises(ValueError, match="at least 2 methods"):
        t.friedman_test(np.zeros((1, 5)))
    with pytest.raises(ValueError, match="equally long"):
        t.paired_t_test([1.0, 2.0], [1.0])


class TestPinnedReports:
    """Exact report fingerprints of two seeded configs.

    A changed tie-break, patience count or draw order changes them; a
    refactor of the generation loop must not.
    """

    def test_patience_stops_runs_early(self, small_dataset):
        config = tiny_config(max_generations=40, patience=3)
        report = t.run_experiment(config, small_dataset)
        assert [r.generations for r in report.results] == [7, 6]
        assert report.fingerprint() == (
            "41ec08197d6b3bdbe3f20f7549b57c3cd6cf89437f4107d208582858d7af3f4e"
        )

    def test_contests_with_fitness_ties(self):
        # Eight features, three folds and nearest-centroid leave few distinct
        # accuracies: tribe bests tie on fitness in every generation, and
        # often on cardinality too, so both tie-breaks decide the report.
        dataset = make_blobs(
            n_per_class=15, n_features=8, informative=(0, 1), separation=1.5, seed=3
        )
        config = tiny_config(
            n_tribes=3,
            allow_infeasible=True,
            competition_interval=1,
            max_generations=12,
            runs=1,
            seed=11,
        )
        report = t.run_experiment(config, dataset)
        result = report.results[0]
        assert len(result.competitions) == 12
        assert all(len(set(g.tribe_best)) < 3 for g in result.history)
        assert report.fingerprint() == (
            "161c6d4dcabdd75fbfe44b33e416b1a54350acea1126a498c5263b06da9ce4e7"
        )


class TestGenerationLoop:
    def test_hooks_are_called_through_the_harness_module(
        self, small_dataset, monkeypatch
    ):
        # Tracing wraps these three module globals of tribefs.harness, so
        # the generation loop must reach the operators through them.
        import tribefs.harness as harness

        calls = {"init": 0, "evolve": 0, "contest_after_evolves": []}
        init, evolve, contest = (
            harness.init_population,
            harness.evolve_generation,
            harness.apply_competition,
        )

        def counting_init(*args):
            calls["init"] += 1
            return init(*args)

        def counting_evolve(*args):
            calls["evolve"] += 1
            return evolve(*args)

        def counting_contest(*args):
            calls["contest_after_evolves"].append(calls["evolve"])
            return contest(*args)

        monkeypatch.setattr(harness, "init_population", counting_init)
        monkeypatch.setattr(harness, "evolve_generation", counting_evolve)
        monkeypatch.setattr(harness, "apply_competition", counting_contest)
        config = tiny_config(runs=2, max_generations=6, competition_interval=2)
        t.run_experiment(config, small_dataset)

        per_run = 3 * 6
        assert calls["init"] == 2
        assert calls["evolve"] == 2 * per_run
        assert calls["contest_after_evolves"] == [
            run * per_run + 3 * generation
            for run in range(2)
            for generation in (2, 4, 6)
        ]

    def test_generator_yields_every_generation(self, small_dataset):
        config = tiny_config(max_generations=5, competition_interval=2)
        plan = config.plan(small_dataset.n_features)
        evaluate = t.make_evaluator(
            small_dataset, config.protocol(), t.FitnessCache()
        )
        seen = []
        for generation, population, event in t.generations(
            plan, config, evaluate, np.random.SeedSequence(config.seed)
        ):
            assert population.size == 300
            assert all(
                ind.fitness is not None
                for tribe in population.tribes
                for ind in tribe.individuals
            )
            assert event is None or event.generation == generation
            seen.append((generation, event is not None))
        assert [g for g, _ in seen] == [0, 1, 2, 3, 4, 5]
        assert not any(contested for g, contested in seen if g % 2)

    def test_generator_leaves_its_seed_as_it_was(self, small_dataset):
        # Two searches from one SeedSequence object are the same search.
        config = tiny_config(max_generations=2)
        plan = config.plan(small_dataset.n_features)
        evaluate = t.make_evaluator(small_dataset, config.protocol())
        seed = np.random.SeedSequence(config.seed)

        def final_masks():
            *_, (_, population, _) = t.generations(plan, config, evaluate, seed)
            tribes = population.tribes
            return [ind.key() for tribe in tribes for ind in tribe.individuals]

        assert final_masks() == final_masks()
        assert seed.n_children_spawned == 0

    def test_generator_matches_run_experiment(self, small_dataset):
        # Run r of a report is the generator fed run r's spawned seed.
        config = tiny_config(runs=2, max_generations=4)
        report = t.run_experiment(config, small_dataset)
        plan = config.plan(small_dataset.n_features)
        evaluate = t.make_evaluator(
            small_dataset, config.protocol(), t.FitnessCache()
        )
        run_seed = np.random.SeedSequence(config.seed).spawn(2)[1]
        *_, (_, population, _) = t.generations(plan, config, evaluate, run_seed)
        tribe_best = tuple(
            float(t.best_individual(tribe).fitness) for tribe in population.tribes
        )
        assert report.results[1].history[-1].tribe_best == tribe_best
