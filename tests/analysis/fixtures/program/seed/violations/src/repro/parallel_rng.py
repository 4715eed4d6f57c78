"""SEED001 fixture: worker RNGs not derived from SeedSequence.spawn."""

from concurrent.futures import ProcessPoolExecutor

import numpy as np


def shard_noise(n):
    rng = np.random.default_rng()  # unseeded in a parallel module
    return rng.random(n)


def run_shards(seed, n_shards):
    # every worker reuses the parent seed -> identical streams
    with ProcessPoolExecutor() as pool:
        futures = [
            pool.submit(lambda: np.random.default_rng(seed).random(8))
            for _ in range(n_shards)
        ]
    return [f.result() for f in futures]
