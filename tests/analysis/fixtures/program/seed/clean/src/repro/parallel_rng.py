"""SEED001 clean fixture: worker seeds spawned per shard from the parent."""

from concurrent.futures import ProcessPoolExecutor

import numpy as np


def _shard_noise(child_seed, n):
    return np.random.default_rng(child_seed).random(n)


def run_shards(seed, n_shards):
    children = np.random.SeedSequence(seed).spawn(n_shards)
    seeds = [int(c.generate_state(1, dtype=np.uint64)[0]) for c in children]
    with ProcessPoolExecutor() as pool:
        futures = [pool.submit(_shard_noise, s, 8) for s in seeds]
    return [f.result() for f in futures]
