"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.core.cache import CACHE_DIR_ENV


@pytest.fixture(scope="session", autouse=True)
def _disk_cache_outside_the_checkout(tmp_path_factory):
    """Point the persistent caches at a scratch directory for the session.

    Without it the suite reads entries an earlier run left in
    ``.duet-cache/`` under the working directory and writes new ones there.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_DIR_ENV, str(tmp_path_factory.mktemp("duet-cache")))
        yield


@pytest.fixture
def rng():
    """A fresh, deterministic random generator per test."""
    return np.random.default_rng(1234)


def numerical_gradient(fn, x, eps=1e-6):
    """Central-difference gradient of a scalar function at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x)
        flat[i] = orig - eps
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad
