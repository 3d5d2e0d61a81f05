"""End-to-end acceptance checks.

Each test covers one acceptance criterion and announces one
``ACCEPTANCE <name>: PASS/FAIL/SKIP`` line on the live terminal. Benchmarks
that must be fetched from the network skip with instructions when their
files are absent; everything else runs self-contained.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

import tribefs as t

from conftest import make_blobs, make_tribe
from engine_reference import brute_force_histogram, crossover_with_mirror

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

pytestmark = pytest.mark.acceptance

# The benchmark layout table: name, features, tribes, tribe size, means.
# Two tribe counts (colon, arrhythmia) pin values that differ from the
# closed form; the deviation is asserted explicitly below.
LAYOUTS = [
    ("wbcd", 9, 3, 600, (2, 5, 8), 0.75),
    ("heart", 13, 3, 600, (3, 7, 11), 1.08),
    ("australian", 14, 3, 600, (3, 7, 11), 1.17),
    ("german", 21, 3, 600, (5, 11, 17), 1.75),
    ("wdbc", 30, 3, 600, (7, 15, 23), 2.50),
    ("ionosphere", 34, 3, 600, (8, 17, 26), 2.83),
    ("kr-vs-kp", 36, 3, 600, (9, 18, 27), 3.00),
    ("spambase", 57, 3, 600, (14, 28, 32), 4.75),
    ("sonar", 60, 3, 600, (15, 30, 45), 5.00),
    ("wine", 13, 3, 600, (3, 7, 11), 1.08),
    ("zoo", 16, 3, 600, (4, 8, 12), 1.33),
    ("vehicle", 18, 3, 600, (4, 9, 14), 1.50),
    ("waveform", 21, 3, 600, (5, 11, 17), 1.75),
    ("dermatology", 33, 3, 600, (8, 17, 25), 2.75),
    ("lung", 56, 3, 600, (14, 28, 42), 4.67),
    ("arrhythmia", 279, 6, 2000, (39, 79, 119, 159, 199, 239), 13.29),
    ("hill-valley", 100, 3, 1000, (25, 50, 75), 8.33),
    ("musk1", 166, 6, 1000, (24, 48, 72, 96, 120, 144), 7.90),
    ("musk2", 166, 6, 1000, (24, 48, 72, 96, 120, 144), 7.90),
    ("colon", 2000, 13, 6000,
     (136, 280, 424, 568, 712, 856, 1000, 1144, 1288, 1432, 1576, 1720, 1864),
     47.62),
]


def _say(capsys, text):
    with capsys.disabled():
        print(f"\n{text}", flush=True)


@contextmanager
def criterion(capsys, name):
    try:
        yield
    except pytest.skip.Exception as err:
        _say(capsys, f"ACCEPTANCE {name}: SKIP ({err})")
        raise
    except BaseException:
        _say(capsys, f"ACCEPTANCE {name}: FAIL")
        raise
    else:
        _say(capsys, f"ACCEPTANCE {name}: PASS")


def load_benchmark(name):
    try:
        return t.load_named(name, DATA_DIR)
    except FileNotFoundError:
        pytest.skip(
            f"{name} benchmark not fetched; run "
            f"`tribefs fetch-data --name {name} --data-dir {DATA_DIR}`"
        )


@pytest.mark.slow
def test_exhaustive_parity(capsys):
    # One shared evaluation protocol and cache: the engine's best accuracy
    # must equal the exhaustive search's best accuracy to the last bit, and
    # the absolute value must sit within one point of 98.09.
    with criterion(capsys, "exhaustive-parity"):
        started = time.perf_counter()
        dataset = load_benchmark("wbcd")
        protocol = t.FitnessProtocol()
        cache = t.FitnessCache()
        oracle = t.exhaustive_best_subset(dataset, protocol, cache=cache)
        assert abs(oracle.best_accuracy - 98.09) <= 1.0

        config = t.RunConfig(max_generations=100, runs=1, seed=0)
        plan = config.plan(dataset.n_features)
        evaluate = t.make_evaluator(dataset, protocol, cache)
        seed = np.random.SeedSequence(config.seed)
        for _, population, _ in t.generations(plan, config, evaluate, seed):
            best = max(t.best_individual(tribe).fitness for tribe in population.tribes)
            if best == oracle.best_accuracy:
                break
        assert best == oracle.best_accuracy
        assert time.perf_counter() - started < 1800.0


def test_exhaustive_parity_blobs(capsys):
    # The offline parity gate: ten features, so the exhaustive search scores
    # all 1023 subsets into the cache the engine then reads. From three
    # seeds, the engine's best subset must be the oracle's, bit for bit,
    # within 100 generations.
    with criterion(capsys, "exhaustive-parity-blobs"):
        dataset = make_blobs(
            n_per_class=30,
            n_features=10,
            informative=(0, 3, 7),
            separation=1.0,
            seed=5,
            n_classes=3,
        )
        config = t.RunConfig(
            tribe_size=10,
            n_tribes=3,
            allow_infeasible=True,
            classifier="nearest-centroid",
            folds=5,
            max_generations=100,
        )
        cache = t.FitnessCache()
        oracle = t.exhaustive_best_subset(dataset, config.protocol(), cache=cache)
        evaluate = t.make_evaluator(dataset, config.protocol(), cache)
        plan = config.plan(dataset.n_features)
        oracle_key = t.Individual(oracle.best_mask).key()
        for seed in range(3):
            searched = t.generations(
                plan, config, evaluate, np.random.SeedSequence(seed)
            )
            for _, population, _ in searched:
                best = min(
                    (t.best_individual(tribe) for tribe in population.tribes),
                    key=lambda ind: (t.rank_key(ind), ind.key()),
                )
                if best.key() == oracle_key:
                    break
            assert best.key() == oracle_key, f"seed {seed}"
            assert best.fitness == oracle.best_accuracy


def test_layout_table(capsys):
    with criterion(capsys, "layout-table"):
        for name, n, n_tribes, _, _, sigma in LAYOUTS:
            derived = round(t.derive_sigma(n, n_tribes), 2)
            assert derived == pytest.approx(sigma, abs=1e-9), (
                f"{name}: derive_sigma({n}, {n_tribes}) rounds to {derived}, "
                f"table says {sigma}"
            )
        assert t.derive_tribe_count(9, 600) == 3
        assert t.derive_tribe_count(100, 1000) == 3
        assert t.derive_tribe_count(166, 1000) == 6
        # Two documented deviations: the closed form disagrees with the
        # pinned layout table for the two largest datasets.
        assert t.derive_tribe_count(2000, 6000) == 12  # table pins 13
        assert t.derive_tribe_count(279, 2000) == 5  # table pins 6


def test_closed_form_constants(capsys):
    with criterion(capsys, "closed-form-constants"):
        cap = (2.0 / math.sqrt(2.0 * math.pi)) * math.exp(-4.5)
        count = math.sqrt(2.0 * math.pi) / (6.0 * math.exp(-4.5))
        assert abs(t.SIGMA_CAP_COEFF - 0.008864) <= 5e-7
        assert abs(t.TRIBE_COUNT_COEFF - 37.6066) <= 5e-4
        assert t.SIGMA_CAP_COEFF == pytest.approx(cap, rel=1e-12)
        assert t.TRIBE_COUNT_COEFF == pytest.approx(count, rel=1e-12)


def test_operator_invariants_at_scale(capsys):
    # Synthetic data, cheap classifier: 500 generations, 120 contests, and
    # 10,000 crossover calls, checking the conservation laws after each.
    with criterion(capsys, "operator-invariants"):
        started = time.perf_counter()
        dataset = make_blobs(n_per_class=30, n_features=8, seed=0)
        protocol = t.FitnessProtocol(classifier="nearest-centroid", folds=3)
        cache = t.FitnessCache()
        evaluate = t.make_evaluator(dataset, protocol, cache)
        rng = np.random.default_rng(2024)
        config = t.EvolutionConfig()

        generations = 0
        for block in range(50):
            counts = {
                int(m): int(rng.integers(2, 7))
                for m in rng.choice(np.arange(2, 8), size=3, replace=False)
            }
            tribe = make_tribe(counts, n_features=8, seed=block, evaluated=False)
            for ind in tribe.individuals:
                ind.fitness = evaluate(ind)
            reference = brute_force_histogram(tribe)
            best = t.best_individual(tribe).fitness
            for _ in range(10):
                tribe = t.evolve_generation(tribe, config, evaluate, rng)
                generations += 1
                assert t.histogram(tribe) == reference
                assert brute_force_histogram(tribe) == reference
                current = t.best_individual(tribe).fitness
                assert current >= best
                best = current
        assert generations >= 500

        contests = 0
        contest_config = t.CompetitionConfig()
        for block in range(20):
            tribes = [
                make_tribe(
                    {3: 5, 4: 8, 5: 5},
                    n_features=8,
                    mu=4.0,
                    sigma=1.0,
                    seed=100 + block * 4 + k,
                    evaluated=False,
                )
                for k in range(4)
            ]
            for tribe in tribes:
                for ind in tribe.individuals:
                    ind.fitness = evaluate(ind)
            population = t.Population(tribes=tribes)
            total = sum(tribe.size for tribe in population.tribes)
            for _ in range(6):
                population, record = t.apply_competition(
                    population, contest_config, evaluate, rng
                )
                assert sum(tribe.size for tribe in population.tribes) == total
                if record is not None:
                    contests += 1
        assert contests >= 100

        for _ in range(10_000):
            m = int(rng.integers(1, 9))
            parent_i = t.sample_individual(8, m, rng)
            parent_j = t.sample_individual(8, m, rng)
            cut = int(rng.integers(1, 8))
            child_i, child_j = crossover_with_mirror(parent_i, parent_j, cut, rng)
            assert t.count_selected(child_i) == m
            assert t.count_selected(child_j) == m

        assert time.perf_counter() - started < 120.0


@pytest.mark.slow
def test_accuracy_band_wine(capsys, wine_dataset):
    with criterion(capsys, "accuracy-band-wine"):
        started = time.perf_counter()
        config = t.RunConfig(runs=5, max_generations=30, patience=10, seed=0)
        report = t.run_experiment(config, wine_dataset)
        assert report.accuracy_mean >= 97.0
        assert time.perf_counter() - started < 1200.0


@pytest.mark.slow
def test_accuracy_band_wbcd(capsys):
    with criterion(capsys, "accuracy-band-wbcd"):
        started = time.perf_counter()
        dataset = load_benchmark("wbcd")
        config = t.RunConfig(runs=5, max_generations=30, patience=10, seed=0)
        report = t.run_experiment(config, dataset)
        assert report.accuracy_mean >= 96.5
        assert time.perf_counter() - started < 1200.0


@pytest.mark.slow
def test_accuracy_band_zoo(capsys):
    with criterion(capsys, "accuracy-band-zoo"):
        started = time.perf_counter()
        dataset = load_benchmark("zoo")
        config = t.RunConfig(runs=5, max_generations=30, patience=10, seed=0)
        report = t.run_experiment(config, dataset)
        assert report.accuracy_mean >= 95.0
        assert time.perf_counter() - started < 1200.0


@pytest.mark.slow
def test_interval_direction_on_sonar(capsys):
    # Contests every generation churn tribes too hard: the mean over five
    # seeded runs must come out strictly below the every-second-generation
    # schedule.
    with criterion(capsys, "interval-direction-sonar"):
        dataset = load_benchmark("sonar")
        config = t.RunConfig(runs=5, max_generations=30, patience=10, seed=0)
        points = dict(
            (value, report.accuracy_mean)
            for value, report in t.sweep(
                config, "competition_interval", [1, 2], dataset
            )
        )
        assert points[1] < points[2]


@pytest.mark.slow
def test_repeat_run_stability(capsys):
    with criterion(capsys, "repeat-stability"):
        dataset = load_benchmark("wbcd")
        config = t.RunConfig(runs=10, max_generations=30, patience=10, seed=0)
        report = t.run_experiment(config, dataset)
        assert report.accuracy_std <= 0.5


def test_rank_statistics(capsys):
    with criterion(capsys, "rank-statistics"):
        # Reference mapping: a chi-square statistic of 5.47 at one degree of
        # freedom corresponds to p = 0.0193, the same survival function the
        # rank test applies to its own statistic.
        assert abs(float(chi2.sf(5.47, 1)) - 0.0193) < 1e-3
        matrix = np.vstack([np.full(20, 90.0), np.full(20, 80.0)])
        result = t.friedman_test(matrix)
        assert result.p_value == pytest.approx(
            float(chi2.sf(result.statistic, 1)), rel=1e-12
        )

        rng = np.random.default_rng(8)
        for _ in range(10):
            matrix = rng.uniform(60.0, 100.0, size=(5, 20))
            result = t.friedman_test(matrix)
            k, n = matrix.shape
            totals = np.zeros(k)
            for j in range(n):
                column = matrix[:, j]
                for i in range(k):
                    smaller = sum(1 for v in column if v < column[i])
                    equal = sum(1 for v in column if v == column[i])
                    totals[i] += smaller + (equal + 1) / 2.0
            manual_ranks = totals / n
            assert result.average_ranks == pytest.approx(tuple(manual_ranks))
            statistic = 12.0 * n / (k * (k + 1)) * (
                float((manual_ranks**2).sum()) - k * (k + 1) ** 2 / 4.0
            )
            assert result.statistic == pytest.approx(statistic)
            assert result.p_value == pytest.approx(float(chi2.sf(statistic, k - 1)))


def test_campaign_configs_supported(capsys):
    # The full 20-benchmark, 25-run campaign is out of scope to execute at
    # desk scale; the harness must still express it. Every layout builds,
    # serializes, and (with one documented edge-coverage exception) passes
    # validation.
    with criterion(capsys, "campaign-support"):
        for name, n, n_tribes, size, means, _ in LAYOUTS:
            infeasible_ok = name == "hill-valley"
            config = t.RunConfig(
                dataset=name,
                tribe_size=size,
                n_tribes=n_tribes,
                means=means,
                allow_infeasible=infeasible_ok,
                runs=25,
                max_generations=100,
            )
            clone = t.RunConfig.from_dict(json.loads(json.dumps(config.to_dict())))
            assert clone == config
            plan = config.plan(n)
            assert plan.population_size == n_tribes * size
            assert plan.means == means
            diagnostics = t.validate_plan(plan)
            if infeasible_ok:
                assert diagnostics
                assert all("edge cardinality" in d for d in diagnostics)
            else:
                assert diagnostics == []
