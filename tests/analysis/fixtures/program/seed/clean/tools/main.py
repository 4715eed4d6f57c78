"""The program's entry point."""

from repro.campaign.runner import run
from repro.parallel_rng import run_shards
from repro.reliability.jitter import backoff_jitter_us

print(run(2), run_shards(0, 2), backoff_jitter_us(1, 0))
