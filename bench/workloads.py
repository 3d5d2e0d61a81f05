"""The benchmark's workloads: seeded inputs, untraced runs and correctness checks.

A workload builds an instance's inputs (synthetic data and configuration)
from one integer seed, runs it untraced or replays it traced, and reports
an ``Outcome``. The digest of the instance built from seed 0 is pinned
with each workload below.

Two kinds of workload exist:

* ``SearchWorkload`` calls ``run_experiment`` on a generated blob dataset.
  Its cost is the linear-SVM fitness and the fitness cache.
* ``EngineWorkload`` drives ``init_population`` / ``evolve_generation`` /
  ``apply_competition`` directly with a sha256 surrogate fitness that costs
  next to nothing, so the genetic operators dominate.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

import tribefs as t
import tribefs.harness as harness


def blob_dataset(
    name: str,
    seed: int,
    class_sizes: tuple[int, ...],
    n_features: int,
    n_informative: int,
    separation: float,
) -> t.Dataset:
    """Gaussian blobs with a fixed class geometry and seeded noise.

    Informative column f shifts class ``f % n_classes`` by ``separation``;
    the remaining columns are pure noise. Only the noise, the row order and
    the column order depend on the seed, so every seed yields a problem of
    the same difficulty and the fitness cost per mask stays comparable.
    """
    rng = np.random.default_rng([seed, 1])
    n_classes = len(class_sizes)
    y = np.repeat(np.arange(n_classes), class_sizes)
    X = rng.normal(size=(y.size, n_features))
    for f in range(n_informative):
        X[y == f % n_classes, f] += separation
    rows = rng.permutation(y.size)
    columns = rng.permutation(n_features)
    return t.dataset_from_arrays(name, X[rows][:, columns], y[rows])


@dataclass
class Outcome:
    """What one instance produced, untraced or replayed."""

    seed: int
    seconds: float  # wall time of the library calls
    cpu_seconds: float  # this process's CPU time over the same calls
    evals: int  # distinct masks scored
    digest: str
    problems: list[str] = field(default_factory=list)
    fingerprint: str | None = None  # RunReport.fingerprint() of a search
    run_evals: list[int] | None = None  # per-run ``evaluations`` of a search
    population: t.Population | None = None  # a replay's tribes, for the micro measurements


def search_digest(runs: list[dict]) -> str:
    """Digest of everything a run decided, except ``evaluations``.

    ``evaluations`` counts cache misses across a cache shared by all runs,
    which a change to how runs share work may legitimately redefine.
    """
    keys = (
        "best_mask", "best_accuracy", "best_count",
        "generations", "history", "competitions",
    )
    payload = [{k: run[k] for k in keys} for run in runs]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# --------------------------------------------------------------------------
# Search workloads: run_experiment with the linear SVM.


@dataclass(frozen=True)
class SearchInputs:
    seed: int
    dataset: t.Dataset
    config: t.RunConfig


@dataclass(frozen=True)
class SearchWorkload:
    name: str
    class_sizes: tuple[int, ...]
    n_features: int
    n_informative: int
    separation: float
    config: dict  # RunConfig fields except the seed
    pinned: str | None  # search digest of the instance built from seed 0

    def build(self, seed: int) -> SearchInputs:
        dataset = blob_dataset(
            self.name, seed, self.class_sizes, self.n_features,
            self.n_informative, self.separation,
        )
        return SearchInputs(seed, dataset, t.RunConfig(seed=seed, **self.config))

    def run(self, inputs: SearchInputs) -> Outcome:
        timer = Stopwatch()
        with timer.span("run_experiment"):
            report = t.run_experiment(inputs.config, inputs.dataset)
        runs = report.canonical_dict()["results"]
        run_evals = [r["evaluations"] for r in runs]
        return Outcome(
            seed=inputs.seed,
            seconds=timer.wall,
            cpu_seconds=timer.cpu,
            evals=sum(run_evals),
            digest=search_digest(runs),
            problems=self.rescore(inputs, runs),
            fingerprint=report.fingerprint(),
            run_evals=run_evals,
        )

    def rescore(self, inputs: SearchInputs, runs: list[dict]) -> list[str]:
        """Re-score every best mask without a cache; it must match exactly."""
        protocol = inputs.config.protocol()
        problems = []
        for run in runs:
            mask = t.mask_from_string(run["best_mask"])
            fresh = t.kfold_accuracy(inputs.dataset, mask, protocol)
            if fresh != run["best_accuracy"]:
                problems.append(
                    f"run {run['run']}: best mask re-scores {fresh!r}, "
                    f"report says {run['best_accuracy']!r}"
                )
        return problems

    def replay(self, inputs: SearchInputs, tracer) -> Outcome:
        """Run ``run_experiment`` again with its library calls traced.

        For the length of the call, ``tribefs.harness``'s own references to
        ``make_evaluator``, ``init_population``, ``evolve_generation`` and
        ``apply_competition`` are replaced by wrappers that open a span
        around the original; the evaluator it builds is wrapped so each
        fitness call is a span. The harness loop itself is the real one.
        """
        timer = Stopwatch()
        with traced_harness(tracer) as seen, timer.span("run_experiment"):
            with tracer.span("harness.run_experiment"):
                report = t.run_experiment(inputs.config, inputs.dataset)
        runs = report.canonical_dict()["results"]
        run_evals = [r["evaluations"] for r in runs]
        return Outcome(
            seed=inputs.seed,
            seconds=timer.wall,
            cpu_seconds=timer.cpu,
            evals=sum(run_evals),
            digest=search_digest(runs),
            run_evals=run_evals,
            population=seen[0],
        )

    def solver_data(self, inputs: SearchInputs) -> tuple[t.Dataset, t.FitnessProtocol]:
        return inputs.dataset, inputs.config.protocol()


@contextlib.contextmanager
def traced_harness(tracer):
    """Trace the library calls ``run_experiment`` makes, from outside.

    Yields a list holding, per run, the last population the harness handed
    to or got from a wrapped call (after init, or after a contest); the
    micro measurements draw their masks and tribes from run 0's.
    """
    seen: list[t.Population] = []

    def make_evaluator(dataset, protocol, cache):
        with tracer.span("fitness.make_evaluator"):
            evaluate = originals["make_evaluator"](dataset, protocol, cache)
        return tracer.fitness(evaluate, lambda: cache.misses)

    def init_population(plan, rng):
        # run_experiment starts each run with exactly one init_population.
        tracer.run = len(seen)
        with tracer.span("genesis.init_population"):
            population = originals["init_population"](plan, rng)
        seen.append(population)
        return population

    def evolve_generation(tribe, config, fitness_fn, rng):
        with tracer.span("evolution.evolve_generation"):
            return originals["evolve_generation"](tribe, config, fitness_fn, rng)

    def apply_competition(population, config, fitness_fn, rng):
        with tracer.span("competition.apply_competition"):
            population, record = originals["apply_competition"](
                population, config, fitness_fn, rng
            )
        seen[-1] = population
        return population, record

    wrappers = {
        "make_evaluator": make_evaluator,
        "init_population": init_population,
        "evolve_generation": evolve_generation,
        "apply_competition": apply_competition,
    }
    originals = {name: getattr(harness, name) for name in wrappers}
    for name, wrapper in wrappers.items():
        setattr(harness, name, wrapper)
    try:
        yield seen
    finally:
        for name, original in originals.items():
            setattr(harness, name, original)
        tracer.run = None


# --------------------------------------------------------------------------
# Engine workload: the operators with a surrogate fitness.


class Surrogate:
    """Deterministic pseudo-fitness from the mask bits; remembers masks scored.

    It has no cache: every call hashes the mask again.
    """

    def __init__(self):
        self.seen: set[bytes] = set()

    def __call__(self, individual) -> float:
        key = individual.mask.tobytes()
        self.seen.add(key)
        digest = hashlib.sha256(key).digest()
        return 50.0 + int.from_bytes(digest[:4], "big") % 5000 / 100.0


@dataclass(frozen=True)
class EngineInputs:
    seed: int
    plan: t.TribePlan


@dataclass(frozen=True)
class EngineWorkload:
    name: str
    n_features: int
    tribe_size: int
    n_tribes: int
    # Class sizes, informative columns and separation of the solver's blob set.
    solver_shape: tuple[tuple[int, ...], int, float]
    pinned: str | None  # final-population digest of the instance built from seed 0

    def build(self, seed: int) -> EngineInputs:
        plan = t.TribePlan.derive(
            self.n_features, tribe_size=self.tribe_size, n_tribes=self.n_tribes,
            allow_infeasible=True,
        )
        return EngineInputs(seed, plan)

    def run(self, inputs: EngineInputs) -> Outcome:
        surrogate = Surrogate()
        timer = Stopwatch()
        population, problems = self._loop(inputs, surrogate, timer.span)
        return Outcome(
            seed=inputs.seed,
            seconds=timer.wall,
            cpu_seconds=timer.cpu,
            evals=len(surrogate.seen),
            digest=population_digest(population),
            problems=problems,
        )

    def replay(self, inputs: EngineInputs, tracer) -> Outcome:
        surrogate = Surrogate()
        evaluate = tracer.fitness(surrogate)  # no cache: every call is a miss
        tracer.run = 0
        timer = Stopwatch()
        with timer.span("loop"):
            population, problems = self._loop(inputs, evaluate, tracer.span)
        tracer.run = None
        return Outcome(
            seed=inputs.seed,
            seconds=timer.wall,
            cpu_seconds=timer.cpu,
            evals=len(surrogate.seen),
            digest=population_digest(population),
            problems=problems,
            population=population,
        )

    def _loop(self, inputs: EngineInputs, evaluate, span):
        """Seeded init, one generation per tribe and one contest.

        Each library call runs inside ``span``. Checks the operator
        invariants on the way and returns the final population with the
        problems found.
        """
        run_seed = np.random.SeedSequence(inputs.seed).spawn(1)[0]
        init_seed, evolve_seed, contest_seed = run_seed.spawn(3)
        with span("genesis.init_population"):
            rng = np.random.default_rng(init_seed)
            population = t.init_population(inputs.plan, rng)
        with span("harness.initial_evaluation"):
            for tribe in population.tribes:
                for individual in tribe.individuals:
                    individual.fitness = evaluate(individual)
        best = _best_fitness(population.tribes)
        evolution = t.EvolutionConfig()
        evolve_rng = np.random.default_rng(evolve_seed)
        problems = []
        tribes = []
        for k, tribe in enumerate(population.tribes):
            with span("evolution.evolve_generation"):
                successor = t.evolve_generation(tribe, evolution, evaluate, evolve_rng)
            if t.histogram(successor) != t.histogram(tribe):
                problems.append(f"tribe {k}: evolve_generation changed the histogram")
            if t.best_individual(successor).fitness < t.best_individual(tribe).fitness:
                problems.append(f"tribe {k}: evolve_generation lowered its best")
            tribes.append(successor)
        with span("competition.apply_competition"):
            population, _ = t.apply_competition(
                t.Population(tribes=tribes),
                t.CompetitionConfig(interval=1),
                evaluate,
                np.random.default_rng(contest_seed),
            )
        if _best_fitness(population.tribes) < best:
            problems.append("the population's best fitness fell")
        return population, problems

    def solver_data(self, inputs: EngineInputs) -> tuple[t.Dataset, t.FitnessProtocol]:
        """A blob set at the engine's width; the workload itself never trains."""
        class_sizes, informative, separation = self.solver_shape
        dataset = blob_dataset(
            self.name, inputs.seed, class_sizes, self.n_features, informative,
            separation,
        )
        return dataset, t.FitnessProtocol(folds=5)


def _best_fitness(tribes) -> float:
    return max(t.best_individual(tribe).fitness for tribe in tribes)


def population_digest(population: t.Population) -> str:
    h = hashlib.sha256()
    for tribe in population.tribes:
        h.update(f"{tribe.mu!r}/{tribe.sigma!r}/{tribe.size};".encode())
        for individual in tribe.individuals:
            h.update(individual.mask.tobytes())
            h.update(repr(individual.fitness).encode())
    return h.hexdigest()


class Stopwatch:
    """Sums the wall and process CPU time of the library calls it wraps.

    The benchmark's own checks run outside the spans, so they are not
    counted. With BLAS on one thread, CPU time is the time the process
    actually ran; wall time also holds the time it waited for a core.
    """

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    @contextlib.contextmanager
    def span(self, name):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - wall
            self.cpu += time.process_time() - cpu


# --------------------------------------------------------------------------
# The workloads. One instance takes one to two seconds on one core, so a
# 30-second run holds a dozen or more and its median shrugs off the slow
# spells of a shared host. The SVM workloads keep the shapes of wine
# (178 x 13, 3 classes) and sonar (208 x 60, 2 classes) and their tribe means,
# with small tribes; the engine workload keeps 2000-member tribes at 279
# features, where the paired-mutation partner scan dominates, but only two
# of them. "Smoke" sizes exist only to check the metric plumbing quickly.

_WINE = dict(class_sizes=(59, 71, 48), n_features=13, n_informative=6, separation=1.2)
_SONAR = dict(class_sizes=(97, 111), n_features=60, n_informative=12, separation=0.7)
_SVM = dict(classifier="linear-svm", folds=5, patience=0, allow_infeasible=True)

WORKLOADS = {
    "wine13-svm": SearchWorkload(
        name="wine13-svm",
        **_WINE,
        config=dict(_SVM, tribe_size=10, n_tribes=3, runs=2, max_generations=3),
        pinned="19e0b4f8385f310c13f96c4895196d16fdfef571d450716b6b0ab1d5844084a7",
    ),
    "sonar60-svm": SearchWorkload(
        name="sonar60-svm",
        **_SONAR,
        config=dict(_SVM, tribe_size=15, n_tribes=4, runs=1, max_generations=3),
        pinned="c4677b908f6b60787e1c0650c33e29367855507055dd700f74eef79ff8ef77fc",
    ),
    "engine279-surrogate": EngineWorkload(
        name="engine279-surrogate",
        n_features=279,
        tribe_size=2000,
        n_tribes=2,
        solver_shape=((100, 100), 20, 0.7),
        pinned="08345cca19259c4776ed9ff90faeb06f82687ba33883b06d16c0a212f384470e",
    ),
}

SMOKE = {
    "wine13-svm": dataclasses.replace(
        WORKLOADS["wine13-svm"],
        config=dict(WORKLOADS["wine13-svm"].config, tribe_size=4, max_generations=2),
        pinned=None,
    ),
    "sonar60-svm": dataclasses.replace(
        WORKLOADS["sonar60-svm"],
        config=dict(WORKLOADS["sonar60-svm"].config, tribe_size=4, max_generations=2),
        pinned=None,
    ),
    "engine279-surrogate": dataclasses.replace(
        WORKLOADS["engine279-surrogate"], tribe_size=60, n_tribes=3, pinned=None
    ),
}
