#!/usr/bin/env python3
"""Compare the engine against an exhaustive subset search on one dataset.

Both searches share a single evaluation protocol and fitness cache, so a
matching best accuracy means the engine found a subset the exhaustive
search scored identically, not merely a similar number.
"""

import argparse
import sys
import time

import numpy as np

import tribefs as t


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="wbcd",
                        help="descriptor name or CSV path (default: wbcd)")
    parser.add_argument("--data-dir", default=t.RunConfig.data_dir)
    parser.add_argument("--seed", type=int, default=t.RunConfig.seed)
    parser.add_argument("--max-generations", type=int,
                        default=t.RunConfig.max_generations)
    parser.add_argument("--max-features", type=int, default=20,
                        help="refuse exhaustive searches above this width")
    args = parser.parse_args(argv)

    config = t.RunConfig(
        dataset=args.dataset,
        data_dir=args.data_dir,
        seed=args.seed,
        runs=1,
        max_generations=args.max_generations,
    )
    try:
        dataset = t.resolve_dataset(config)
        plan = config.plan(dataset.n_features)
    except (FileNotFoundError, t.DataError, t.ConfigError) as err:
        print(err, file=sys.stderr)
        return 1
    protocol = config.protocol()
    cache = t.FitnessCache()

    started = time.perf_counter()
    oracle = t.exhaustive_best_subset(
        dataset, protocol, max_features=args.max_features, cache=cache
    )
    oracle_time = time.perf_counter() - started
    print(f"exhaustive: {oracle.best_accuracy:.4f} "
          f"({oracle.evaluations} subsets, {oracle_time:.1f}s)")

    evaluate = t.make_evaluator(dataset, protocol, cache)
    seed = np.random.SeedSequence(config.seed)
    for generation, population, _ in t.generations(plan, config, evaluate, seed):
        # Elitism keeps every tribe's best, so this never decreases.
        best = max(t.best_individual(tribe).fitness for tribe in population.tribes)
        if best == oracle.best_accuracy:
            break
    engine_time = time.perf_counter() - started - oracle_time
    print(f"engine:     {best:.4f} ({engine_time:.1f}s)")

    if best == oracle.best_accuracy:
        print(f"PARITY at generation {generation}")
        return 0
    print(f"NO PARITY after {config.max_generations} generations "
          f"(gap {oracle.best_accuracy - best:.4f})")
    return 2


if __name__ == "__main__":
    sys.exit(main())
