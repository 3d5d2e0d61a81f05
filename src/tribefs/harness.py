"""Experiment orchestration: seeded runs, reports, sweeps, and statistics.

A run config is a flat record (it mirrors the JSON config file one to one)
from which the tribe plan, operator settings, and fitness protocol are
built. Runs are seeded through a spawning seed tree, so run r of a config is
the same bit for bit no matter how many runs precede it, and a report's
fingerprint covers everything except wall-clock timing.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import numbers
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .competition import CompetitionConfig, apply_competition
from .core import Individual, Population, best_individual, mask_to_string, rank_key, score
from .data import (
    DataError,
    Dataset,
    _field_types,
    _type_error,
    load_csv,
    load_descriptors,
    load_named,
    sniff_schema,
)
from .evolution import EvolutionConfig, evolve_generation
from .fitness import FitnessCache, FitnessProtocol, make_evaluator
from .genesis import TribePlan, init_population

__all__ = [
    "ConfigError",
    "RunConfig",
    "GenerationRecord",
    "CompetitionEvent",
    "RunResult",
    "RunReport",
    "check_out_dir",
    "resolve_dataset",
    "generations",
    "run_experiment",
    "sweep",
    "SWEEPABLE",
    "friedman_test",
    "FriedmanResult",
    "paired_t_test",
    "TTestResult",
]


class ConfigError(ValueError):
    """A run configuration is malformed."""


@dataclass(frozen=True)
class RunConfig:
    """One experiment, flat and JSON-serializable.

    ``dataset`` is a descriptor name (resolved under ``data_dir``) or a CSV
    path; in-memory datasets are passed to :func:`run_experiment` directly
    instead. ``n_tribes``, ``means`` and ``sigma`` default to the derived
    layout; ``patience`` stops a run early after that many generations
    without improvement (0 disables early stopping).
    """

    dataset: str | None = None
    data_dir: str = "data"
    tribe_size: int = 600
    n_tribes: int | None = None
    means: tuple[int, ...] | None = None
    sigma: float | None = None
    allow_infeasible: bool = False
    classifier: str = FitnessProtocol.classifier
    folds: int = FitnessProtocol.folds
    fold_seed: int = FitnessProtocol.fold_seed
    regularization: float = FitnessProtocol.regularization
    crossover_rate: float = EvolutionConfig.crossover_rate
    mutation_rate: float = EvolutionConfig.mutation_rate
    selection_pressure: float = EvolutionConfig.selection_pressure
    competition_interval: int = CompetitionConfig.interval
    stake: int = CompetitionConfig.stake
    min_tribe_size: int = CompetitionConfig.min_tribe_size
    max_generations: int = 100
    patience: int = 30
    seed: int = 0
    runs: int = 1

    def __post_init__(self):
        # Every way of building one (direct, replace, sweep, JSON, CLI) checks here.
        for name, hint in _field_types(RunConfig).items():
            if problem := _type_error(name, getattr(self, name), hint):
                raise ConfigError(problem)
        if self.max_generations < 0:
            raise ConfigError("max_generations must be non-negative")
        if self.patience < 0:
            raise ConfigError("patience must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.runs < 1:
            raise ConfigError("runs must be positive")
        if self.means is not None:
            object.__setattr__(self, "means", tuple(int(m) for m in self.means))
        # NumPy numbers pass the type checks; the report's JSON needs plain ones.
        for name, value in vars(self).items():
            if isinstance(value, np.bool_):
                object.__setattr__(self, name, bool(value))
            elif isinstance(value, numbers.Real) and type(value) not in (int, float, bool):
                plain = int(value) if isinstance(value, numbers.Integral) else float(value)
                object.__setattr__(self, name, plain)
        # Fail fast on bad operator settings instead of inside run r of n.
        self.evolution()
        self.competition()
        self.protocol()

    def evolution(self) -> EvolutionConfig:
        return _checked(EvolutionConfig, **self._same_named(EvolutionConfig))

    def competition(self) -> CompetitionConfig:
        return _checked(
            CompetitionConfig,
            interval=self.competition_interval,
            stake=self.stake,
            min_tribe_size=self.min_tribe_size,
        )

    def protocol(self) -> FitnessProtocol:
        return _checked(FitnessProtocol, **self._same_named(FitnessProtocol))

    def _same_named(self, part) -> dict:
        """This config's values of the dataclass ``part``'s fields, by name."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(part)}

    def plan(self, n_features: int) -> TribePlan:
        return _checked(
            TribePlan.derive,
            n_features,
            tribe_size=self.tribe_size,
            n_tribes=self.n_tribes,
            means=self.means,
            sigma=self.sigma,
            allow_infeasible=self.allow_infeasible,
        )

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if out["means"] is not None:
            out["means"] = list(out["means"])
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if {"award", "penalty"} & set(raw):
            raise ConfigError(
                "'award' and 'penalty' are replaced by one 'stake': the number of "
                "individuals a contest moves from the loser to the winner"
            )
        unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ValueError it raises as a ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from err


@dataclass(frozen=True)
class GenerationRecord:
    """Per-generation telemetry row."""

    generation: int
    tribe_sizes: tuple[int, ...]
    tribe_best: tuple[float, ...]
    best_accuracy: float
    best_count: int


@dataclass(frozen=True)
class CompetitionEvent:
    """A contest that actually moved individuals."""

    generation: int
    winner: int
    loser: int
    sizes: tuple[int, ...]


@dataclass(frozen=True)
class RunResult:
    """Final state and trace of a single seeded run."""

    run: int
    best_mask: str
    best_accuracy: float
    best_count: int
    generations: int
    evaluations: int
    wall_time: float
    history: tuple[GenerationRecord, ...]
    competitions: tuple[CompetitionEvent, ...]


@dataclass(frozen=True)
class RunReport:
    """Everything one experiment produced.

    ``fingerprint`` hashes the canonical JSON form, which excludes wall
    times; two reports from the same config and seed have equal
    fingerprints under the same NumPy version, BLAS build and thread count.
    ``FILES`` names what :meth:`save` writes.
    """

    FILES = ("report.json", "summary.csv", "trace.csv", "competitions.csv")

    config: dict
    dataset_name: str
    n_features: int
    n_instances: int
    results: tuple[RunResult, ...]
    accuracy_mean: float
    accuracy_std: float
    mean_selected: float
    wall_time: float

    def canonical_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out.pop("wall_time")
        for result in out["results"]:
            result.pop("wall_time")
        return out

    def fingerprint(self) -> str:
        canonical = json.dumps(self.canonical_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def save(self, out_dir) -> None:
        """Write the report directory, creating ``out_dir`` if needed.

        It holds the ``FILES``: report.json (every field, plus the
        fingerprint), summary.csv, trace.csv and competitions.csv.
        """
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report, summary, trace, competitions = self.FILES
        payload = dataclasses.asdict(self)
        payload["fingerprint"] = self.fingerprint()
        (out_dir / report).write_text(json.dumps(payload, indent=2) + "\n")
        tables = {
            summary: (
                ["run", "best_accuracy", "best_count", "best_mask",
                 "generations", "evaluations", "wall_time"],
                [[r.run, f"{r.best_accuracy:.6f}", r.best_count, r.best_mask,
                  r.generations, r.evaluations, f"{r.wall_time:.3f}"]
                 for r in self.results],
            ),
            trace: (
                ["run", "generation", "best_accuracy", "best_count",
                 "tribe_sizes", "tribe_best"],
                [[r.run, g.generation, f"{g.best_accuracy:.6f}", g.best_count,
                  " ".join(map(str, g.tribe_sizes)),
                  " ".join(f"{b:.4f}" for b in g.tribe_best)]
                 for r in self.results for g in r.history],
            ),
            competitions: (
                ["run", "generation", "winner", "loser", "sizes"],
                [[r.run, c.generation, c.winner, c.loser, " ".join(map(str, c.sizes))]
                 for r in self.results for c in r.competitions],
            ),
        }
        for name, (header, rows) in tables.items():
            with open(out_dir / name, "w", newline="") as handle:
                csv.writer(handle).writerows([header, *rows])


def check_out_dir(out_dir, files=RunReport.FILES) -> None:
    """Refuse an ``out_dir`` whose ``files`` could not be written, before any run.

    Raises a ConfigError naming the path when something other than a
    directory stands at ``out_dir`` or at the nearest of its parents that
    exists, or when a directory stands where one of ``files`` goes. The
    default files are those :meth:`RunReport.save` writes.
    """
    out_dir = Path(out_dir)
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"{existing} is not a directory")
    for name in files:
        if (out_dir / name).is_dir():
            raise ConfigError(f"{out_dir / name} is a directory")


def resolve_dataset(config: RunConfig) -> Dataset:
    """Turn the config's dataset reference into a loaded dataset.

    Descriptor names resolve under ``data_dir``. Any other reference is a
    CSV path only if it has a directory part or a suffix (``./australian``,
    ``australian.csv``); a bare unknown name is an error, so a misspelled
    benchmark never loads a stray file from the working directory. A CSV
    loads with the schema :func:`~tribefs.data.sniff_schema` picks for it.
    """
    if config.dataset is None:
        raise ConfigError("config names no dataset")
    descriptors = load_descriptors()
    if config.dataset in descriptors:
        return load_named(config.dataset, config.data_dir, descriptors)
    path = Path(config.dataset)
    if path.name == config.dataset and not path.suffix:
        raise DataError(
            f"unknown dataset {config.dataset!r}; known: "
            f"{', '.join(sorted(descriptors))}; "
            f"to load a file of that name, pass './{config.dataset}'"
        )
    if not path.exists():
        raise FileNotFoundError(
            f"{config.dataset!r} is neither a known dataset name nor a file"
        )
    return load_csv(path, sniff_schema(path))


def run_experiment(config: RunConfig, dataset: Dataset | None = None) -> RunReport:
    """Execute ``config.runs`` seeded runs and aggregate them into a report.

    The fitness cache is shared across runs (values are deterministic, so
    this only saves time); each run's RNG streams branch from one master
    seed, keeping runs independent of each other's consumption.
    """
    if dataset is None:
        dataset = resolve_dataset(config)
    plan = config.plan(dataset.n_features)
    protocol = config.protocol()
    cache = FitnessCache()
    evaluate = make_evaluator(dataset, protocol, cache)
    started = time.perf_counter()
    run_seeds = np.random.SeedSequence(config.seed).spawn(config.runs)
    results = tuple(
        _single_run(r, seed, plan, config, evaluate, cache)
        for r, seed in enumerate(run_seeds)
    )
    accuracies = np.array([r.best_accuracy for r in results])
    counts = np.array([r.best_count for r in results])
    return RunReport(
        config=config.to_dict(),
        dataset_name=dataset.name,
        n_features=dataset.n_features,
        n_instances=dataset.n_instances,
        results=results,
        accuracy_mean=float(accuracies.mean()),
        accuracy_std=float(accuracies.std(ddof=1)) if len(results) > 1 else 0.0,
        mean_selected=float(counts.mean()),
        wall_time=time.perf_counter() - started,
    )


def generations(
    plan: TribePlan,
    config: RunConfig,
    evaluate,
    seed: np.random.SeedSequence,
) -> Iterator[tuple[int, Population, CompetitionEvent | None]]:
    """The search: seed the tribes, then evolve them one generation at a time.

    Yields ``(generation, population, event)`` for the evaluated initial
    population (generation 0, no event) and after each of the
    ``config.max_generations`` generations, in which every tribe evolves
    once and, every ``competition_interval`` generations, the tribes hold a
    contest; ``event`` is the :class:`CompetitionEvent` that
    :attr:`RunResult.competitions` stores for a contest that moved
    individuals, else ``None``. The init, evolution and contest streams are
    spawned from a copy of ``seed``, which is left as it was, so equal seeds,
    or one seed passed twice, yield equal populations. There is no stop
    rule: callers ``break`` (on patience, a target accuracy, ...).

    The operators are looked up as this module's globals on every call, so
    tracing can rebind ``tribefs.harness.init_population``,
    ``evolve_generation`` and ``apply_competition`` from outside.
    """
    # A copy, because ``spawn`` advances the SeedSequence it is called on.
    init_seed, evolve_seed, contest_seed = np.random.SeedSequence(
        seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size
    ).spawn(3)
    population = init_population(plan, np.random.default_rng(init_seed))
    score([ind for tribe in population.tribes for ind in tribe.individuals], evaluate)
    yield 0, population, None

    evolution = config.evolution()
    competition = config.competition()
    evolve_rng = np.random.default_rng(evolve_seed)
    contest_rng = np.random.default_rng(contest_seed)
    for generation in range(1, config.max_generations + 1):
        population = Population(
            tribes=[
                evolve_generation(tribe, evolution, evaluate, evolve_rng)
                for tribe in population.tribes
            ]
        )
        event = None
        if generation % competition.interval == 0:
            population, outcome = apply_competition(
                population, competition, evaluate, contest_rng
            )
            if outcome is not None:
                sizes = tuple(tribe.size for tribe in population.tribes)
                event = CompetitionEvent(generation, *outcome, sizes)
        yield generation, population, event


def _single_run(
    run_index: int,
    seed: np.random.SeedSequence,
    plan: TribePlan,
    config: RunConfig,
    evaluate,
    cache: FitnessCache,
) -> RunResult:
    started = time.perf_counter()
    misses_before = cache.misses
    best: Individual | None = None
    history: list[GenerationRecord] = []
    events: list[CompetitionEvent] = []
    last_improvement = 0
    for generation, population, event in generations(plan, config, evaluate, seed):
        if event is not None:
            events.append(event)
        tribe_best = [best_individual(tribe) for tribe in population.tribes]
        # Full ties keep the incumbent: min returns the first minimal item.
        challenger = min(
            tribe_best if best is None else [best, *tribe_best],
            key=lambda ind: (rank_key(ind), ind.key()),
        )
        if challenger is not best:
            best = challenger
            last_improvement = generation
        history.append(
            GenerationRecord(
                generation=generation,
                tribe_sizes=tuple(tribe.size for tribe in population.tribes),
                tribe_best=tuple(float(ind.fitness) for ind in tribe_best),
                best_accuracy=float(best.fitness),
                best_count=best.count,
            )
        )
        if config.patience and generation - last_improvement >= config.patience:
            break
    return RunResult(
        run=run_index,
        best_mask=mask_to_string(best.mask),
        best_accuracy=best.fitness,
        best_count=best.count,
        generations=generation,
        evaluations=cache.misses - misses_before,
        wall_time=time.perf_counter() - started,
        history=tuple(history),
        competitions=tuple(events),
    )


SWEEPABLE = ("n_tribes", "competition_interval")


def sweep(
    config: RunConfig,
    parameter: str,
    values,
    dataset: Dataset | None = None,
) -> list[tuple[int, RunReport]]:
    """Re-run one config across values of one layout parameter.

    Every point reuses the same master seed, so the sweep isolates the
    parameter. Sweeping ``n_tribes`` re-derives means and sigma for each
    count; explicit overrides would defeat the point, so they are rejected.
    A repeated value, or one with an infeasible layout, raises a ConfigError
    before any point runs.
    """
    if parameter not in SWEEPABLE:
        raise ConfigError(f"can only sweep {SWEEPABLE}, not {parameter!r}")
    if parameter == "n_tribes" and (
        config.means is not None or config.sigma is not None
    ):
        raise ConfigError("sweeping n_tribes requires derived means and sigma")
    values = list(values)
    if len(set(values)) < len(values):
        raise ConfigError(f"{parameter} values must differ, not {values}")
    if dataset is None:
        dataset = resolve_dataset(config)
    points = [config.replace(**{parameter: value}) for value in values]
    for point in points:
        point.plan(dataset.n_features)  # an infeasible layout fails before any run
    return [
        (getattr(point, parameter), run_experiment(point, dataset)) for point in points
    ]


@dataclass(frozen=True)
class FriedmanResult:
    """Friedman rank test over a methods-by-datasets accuracy matrix."""

    statistic: float
    p_value: float
    average_ranks: tuple[float, ...]
    n_methods: int
    n_datasets: int


def _scipy_stats():
    """SciPy's stats, imported on first use: only the significance tests need
    it, it takes a second to import, and it is the optional ``stats`` extra."""
    try:
        from scipy import stats
    except ModuleNotFoundError as err:
        raise ModuleNotFoundError(
            "the significance tests need SciPy: pip install 'tribefs[stats]'",
            name="scipy",
        ) from err
    return stats


def friedman_test(matrix) -> FriedmanResult:
    """Friedman test on rows=methods, columns=datasets.

    Higher accuracy earns a higher rank (ties share the average), and the
    statistic is the classic chi-square form without a tie correction,
    referred to the chi-square distribution with ``methods - 1`` degrees of
    freedom.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 2 or matrix.shape[1] < 2:
        raise ValueError("need at least 2 methods and 2 datasets")
    if not np.isfinite(matrix).all():
        raise ValueError("accuracy matrix contains non-finite values")
    scipy_stats = _scipy_stats()
    k, n = matrix.shape
    ranks = np.apply_along_axis(
        lambda column: scipy_stats.rankdata(column, method="average"), 0, matrix
    )
    average_ranks = ranks.mean(axis=1)
    statistic = (12.0 * n / (k * (k + 1))) * (
        float((average_ranks**2).sum()) - k * (k + 1) ** 2 / 4.0
    )
    p_value = float(scipy_stats.chi2.sf(statistic, k - 1))
    return FriedmanResult(
        statistic=float(statistic),
        p_value=p_value,
        average_ranks=tuple(float(r) for r in average_ranks),
        n_methods=k,
        n_datasets=n,
    )


@dataclass(frozen=True)
class TTestResult:
    """Two-sided paired t-test outcome; p is NaN when differences are constant."""

    statistic: float
    p_value: float
    mean_difference: float
    n: int


def paired_t_test(a, b) -> TTestResult:
    """Two-sided paired t-test of accuracy vectors ``a`` and ``b``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired vectors must be 1-D and equally long")
    if a.size < 2:
        raise ValueError("need at least two pairs")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("accuracy vectors contain non-finite values")
    scipy_stats = _scipy_stats()
    differences = a - b
    spread = float(differences.std(ddof=1))
    mean = float(differences.mean())
    if spread == 0.0:
        # Identical per-pair differences: the statistic is undefined.
        return TTestResult(
            statistic=float("nan"),
            p_value=float("nan"),
            mean_difference=mean,
            n=a.size,
        )
    statistic = mean / (spread / np.sqrt(a.size))
    p_value = 2.0 * float(scipy_stats.t.sf(abs(statistic), a.size - 1))
    return TTestResult(
        statistic=float(statistic),
        p_value=p_value,
        mean_difference=mean,
        n=a.size,
    )
