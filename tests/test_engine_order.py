"""Pins the engine's random draw order.

A seeded init, one generation per tribe and one contest at arrhythmia
width, scored by a sha256 surrogate, must reproduce a fixed digest of the
final population. Any change to which draws the operators make, or in
which order, changes the digest; a pure speed-up of the operators does not.
"""

import hashlib

import numpy as np

import tribefs as t

# Digest of the final population for the loop below.
PINNED = "cbf63dfbc12ffde756555dbc57c0d59c4e0dd63804a8fff5d3bcb1d746678404"


def _surrogate(individual):
    digest = hashlib.sha256(individual.mask.tobytes()).digest()
    return 50.0 + int.from_bytes(digest[:4], "big") % 5000 / 100.0


def _digest(population):
    h = hashlib.sha256()
    for tribe in population.tribes:
        h.update(f"{tribe.mu!r}/{tribe.sigma!r}/{tribe.size};".encode())
        for individual in tribe.individuals:
            h.update(individual.mask.tobytes())
            h.update(repr(individual.fitness).encode())
    return h.hexdigest()


def _seeded_loop(seed):
    plan = t.TribePlan.derive(279, tribe_size=300, n_tribes=2, allow_infeasible=True)
    init_seed, evolve_seed, contest_seed = np.random.SeedSequence(seed).spawn(3)
    population = t.init_population(plan, np.random.default_rng(init_seed))
    for tribe in population.tribes:
        for individual in tribe.individuals:
            individual.fitness = _surrogate(individual)
    evolve_rng = np.random.default_rng(evolve_seed)
    config = t.EvolutionConfig()
    tribes = [
        t.evolve_generation(tribe, config, _surrogate, evolve_rng)
        for tribe in population.tribes
    ]
    population, record = t.apply_competition(
        t.Population(tribes=tribes),
        t.CompetitionConfig(interval=1),
        _surrogate,
        np.random.default_rng(contest_seed),
    )
    assert record is not None
    return population


def test_seeded_engine_loop_digest_is_pinned():
    assert _digest(_seeded_loop(7)) == PINNED
