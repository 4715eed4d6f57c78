"""Aliased cross-module RNG reaching a process pool: SEED001 territory.

No ``numpy.random`` constructor is called here, and ``helpers.py``
imports no parallel primitive: only the cross-module dataflow sees it.
"""

from concurrent.futures import ProcessPoolExecutor

from repro.campaign.helpers import fresh as make_rng


def shard_noise(n):
    rng = make_rng()  # tainted two hops away
    return rng.random(n)


def run(batches):
    with ProcessPoolExecutor() as pool:
        return list(pool.map(shard_noise, batches))
