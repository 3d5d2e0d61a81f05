"""Shared fixtures: synthetic datasets and tribe builders."""

import hashlib
import urllib.request

import numpy as np
import pytest

import tribefs as t


def make_blobs(
    n_per_class=40,
    n_features=8,
    informative=(0, 1),
    separation=3.0,
    seed=0,
    name="blobs",
    n_classes=2,
):
    """Gaussian blobs: the informative columns separate the classes."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_classes * n_per_class, n_features))
    y = np.repeat(np.arange(n_classes), n_per_class)
    for f in informative:
        X[:, f] += separation * y
    return t.dataset_from_arrays(name, X, y)


def make_tribe(counts, n_features=10, mu=5.0, sigma=1.0, seed=0, evaluated=True):
    """A tribe with an exact selected-count histogram and synthetic fitness."""
    rng = np.random.default_rng(seed)
    individuals = []
    for m in sorted(counts):
        for _ in range(counts[m]):
            ind = t.sample_individual(n_features, m, rng)
            if evaluated:
                ind.fitness = float(rng.uniform(50.0, 100.0))
            individuals.append(ind)
    return t.Tribe(individuals=individuals, mu=mu, sigma=sigma)


def surrogate_fitness(individual):
    """Deterministic pseudo-fitness derived from the mask bits alone."""
    mask = individual.mask if isinstance(individual, t.Individual) else individual
    digest = hashlib.sha256(mask.tobytes()).digest()
    return 50.0 + int.from_bytes(digest[:4], "big") % 5000 / 100.0


@pytest.fixture
def no_download(monkeypatch):
    """Fail any download instead of reaching the network."""

    def refuse(url):
        raise AssertionError(f"tried to download {url}")

    monkeypatch.setattr(urllib.request, "urlopen", refuse)


@pytest.fixture
def blob_dataset():
    return make_blobs()


@pytest.fixture(scope="session")
def wine_dataset():
    datasets = pytest.importorskip("sklearn.datasets")
    raw = datasets.load_wine()
    return t.dataset_from_arrays(
        "wine", raw.data, raw.target, tuple(raw.feature_names)
    )
