import concurrent.futures

import numpy as np
import pytest
from hypothesis import settings

from jsccdisp import Channel, Distribution, SourceSpec

# properties draw the same examples on every run and keep no example file
settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("derandomized")

HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])


def bsc(p: float) -> Channel:
    return Channel(np.array([[1.0 - p, p], [p, 1.0 - p]]))


def two_orbit_cyclic(k: int) -> np.ndarray:
    """2k x k channel whose rows are the cyclic shifts of two equal-entropy rows.

    The rows are (0.7, 0.3 * (k-1, ..., 1) / sum) and (a, b, ..., b); for
    k = 3 this is the 6x3 channel of perfbench/make_refs.py. Every row has
    divergence log k - H from the uniform output law, so the
    capacity-achieving inputs are all phi >= 0 with phi W uniform.
    """
    from scipy.optimize import brentq

    def entropy(p):
        return float(-(p * np.log(p)).sum())

    def flat_row(a):
        return np.array([a] + [(1.0 - a) / (k - 1)] * (k - 1))

    tail = np.arange(k - 1, 0, -1.0)
    base = np.concatenate([[0.7], 0.3 * tail / tail.sum()])
    a = brentq(lambda x: entropy(flat_row(x)) - entropy(base),
               1.0 / k, 0.999, xtol=1e-16)
    return np.array([np.roll(row, s) for row in (base, flat_row(a))
                     for s in range(k)])


def bernoulli(p: float) -> Distribution:
    return Distribution(np.array([1.0 - p, p]))


def hamming_source(p: float) -> SourceSpec:
    return SourceSpec(bernoulli(p), HAMMING)


@pytest.fixture
def bsc011() -> Channel:
    return bsc(0.11)


@pytest.fixture
def fair_hamming() -> SourceSpec:
    return hamming_source(0.5)


@pytest.fixture
def pool_sizes(monkeypatch) -> list:
    """The max_workers of every thread pool the test asks for. The pools
    are stand-ins that run each submitted call in the calling thread and
    return its completed future, so none starts a thread."""
    sizes = []

    class Recording:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return sizes
