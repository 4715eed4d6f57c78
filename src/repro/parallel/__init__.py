"""Deterministic multiprocess campaign execution (see :mod:`.engine`)."""

from repro.parallel.engine import (
    CampaignTask,
    ShardedRun,
    run_sharded,
    spawn_task_seeds,
)

__all__ = ["CampaignTask", "ShardedRun", "run_sharded", "spawn_task_seeds"]
