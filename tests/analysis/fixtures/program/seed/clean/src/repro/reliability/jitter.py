"""Backoff jitter from the caller's seed (the SEED001-clean mirror)."""

import numpy as np


def backoff_jitter_us(attempt, seed):
    rng = np.random.default_rng(seed)
    return 1_000.0 * (2.0 ** attempt) * float(rng.random())
