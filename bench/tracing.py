"""Outside-in tracing and micro measurements for the per-layer metrics.

Spans are recorded by the benchmark around its own calls into tribefs'
public functions; nothing inside the package is instrumented. A span holds
its name, start, end, parent span, run index and instance index, stays in
memory and is written out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

import numpy as np

import tribefs as t


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.run: int | None = None
        self.instance: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "run": self.run,
            "instance": self.instance,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def fitness(self, evaluate, misses=None):
        """Wrap a fitness function; each call is a span marked hit or miss.

        ``misses`` reads the count of masks actually scored, so a call that
        raised it was a cache miss. Without it there is no cache and every
        call is a miss.
        """

        def traced(individual):
            before = misses() if misses else None
            with self.span("fitness.evaluate") as record:
                value = evaluate(individual)
            record["miss"] = misses() != before if misses else True
            return value

        return traced

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p90(values) -> float:
    return float(np.percentile(values, 90)) if values else 0.0


def layer_metrics(spans: list[dict], untraced_seconds: float) -> dict[str, float]:
    """Per-layer numbers from the traced replay's spans.

    A span's self time is its duration minus its children's (children never
    overlap, because everything runs on one thread). ``untraced_seconds`` is
    the wall time of the same instances run with tracing off.
    """
    duration = [s["end"] - s["start"] for s in spans]
    child_time = defaultdict(float)
    for s, d in zip(spans, duration):
        if s["parent"] is not None:
            child_time[s["parent"]] += d
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s["name"]].append(i)

    def self_times(name):
        return [duration[i] - child_time[i] for i in by_name[name]]

    traced_wall = sum(d for s, d in zip(spans, duration) if s["parent"] is None)
    fitness = by_name["fitness.evaluate"]
    misses = [duration[i] for i in fitness if spans[i]["miss"]]
    hits = [duration[i] for i in fitness if not spans[i]["miss"]]
    evolve_self = self_times("evolution.evolve_generation")
    contests = self_times("competition.apply_competition")
    contest_ids = set(by_name["competition.apply_competition"])
    return {
        "fitness.evals": len(misses),
        "fitness.lookups": len(fitness),
        "fitness.hit_ratio": len(hits) / len(fitness),
        "fitness.hit_us": 1e6 * _median(hits),
        "fitness.eval_ms_p50": _ms(_median(misses)),
        "fitness.eval_ms_p90": _ms(_p90(misses)),
        "fitness.share": sum(duration[i] for i in fitness) / traced_wall,
        "evolution.self_ms_per_tribe_gen": _ms(sum(evolve_self) / len(evolve_self)),
        "evolution.share": sum(evolve_self) / traced_wall,
        "genesis.init_ms": _ms(_median(self_times("genesis.init_population"))),
        "competition.self_ms": _ms(sum(contests) / len(contests)),
        "competition.contests": len(contests),
        "competition.newcomer_evals": sum(
            1 for i in fitness if spans[i]["parent"] in contest_ids
        ),
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / untraced_seconds - 1.0,
    }


def solver_micro(dataset, protocol, population, rng, n_masks: int) -> dict[str, float]:
    """Time ``train_linear_svm`` on standardised fold rows of sampled masks.

    Masks come from the replay's final population. Counts fits attempted and
    fits whose ``LinearSVM.converged`` is False.
    """
    masks = {
        ind.mask.tobytes(): ind.mask
        for tribe in population.tribes
        for ind in tribe.individuals
    }
    keys = sorted(masks)
    chosen = rng.choice(len(keys), size=min(n_masks, len(keys)), replace=False)
    plan = t.stratified_folds(dataset, protocol.folds, protocol.fold_seed)
    y = dataset.labels
    times, fits, nonconverged = [], 0, 0
    for index in sorted(chosen.tolist()):
        X = dataset.instances[:, np.flatnonzero(masks[keys[index]])]
        for fold in range(plan.k):
            rows = plan.train_indices(fold)
            train = X[rows]
            scale = train.std(axis=0)
            scale[scale == 0.0] = 1.0
            standardised = (train - train.mean(axis=0)) / scale
            started = time.perf_counter()
            model = t.train_linear_svm(standardised, y[rows], C=protocol.regularization)
            times.append(time.perf_counter() - started)
            fits += 1
            nonconverged += not model.converged
    return {
        "fitness.train_linear_svm_ms": _ms(_median(times)),
        "fitness.svm_fits": fits,
        "fitness.svm_nonconverged": nonconverged,
    }


def operator_micro(population, rng, budget_s: float) -> dict[str, float]:
    """Time the operators on the replay's final tribes.

    ``rank_selection`` and ``paired_mutation`` go round the tribes, each at
    least once per tribe and then until ``budget_s`` is spent on it;
    crossover runs on 200 same-cardinality pairs.
    """
    config = t.EvolutionConfig()
    tribes = population.tribes

    def timed_rounds(operator):
        samples = []
        spent = 0.0
        while len(samples) < len(tribes) or spent < budget_s:
            tribe = tribes[len(samples) % len(tribes)]
            started = time.perf_counter()
            operator(tribe, config, rng)
            samples.append(time.perf_counter() - started)
            spent += samples[-1]
        return samples

    crossover = []
    n_features = population.n_features
    for _ in range(200):
        tribe = tribes[int(rng.integers(len(tribes)))]
        first = tribe.individuals[int(rng.integers(tribe.size))]
        count = t.count_selected(first)
        peers = [ind for ind in tribe.individuals if t.count_selected(ind) == count]
        second = peers[int(rng.integers(len(peers)))]
        cut = int(rng.integers(1, n_features))
        started = time.perf_counter()
        t.count_preserving_crossover(first, second, cut, rng)
        crossover.append(time.perf_counter() - started)
    return {
        "evolution.rank_selection_ms": _ms(_median(timed_rounds(t.rank_selection))),
        "evolution.paired_mutation_ms": _ms(_median(timed_rounds(t.paired_mutation))),
        "evolution.crossover_us": 1e6 * _median(crossover),
    }
