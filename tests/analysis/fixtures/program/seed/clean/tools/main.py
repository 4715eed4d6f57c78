"""The program's entry point."""

from repro.campaign.runner import run
from repro.parallel_rng import run_shards

print(run(2), run_shards(0, 2))
