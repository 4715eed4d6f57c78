"""Fixture entry point: imports every public definition of the fixture
modules, so DEAD001 sees each one called."""

from repro.bench.writer import write_report
from repro.cli import cmd_run
from repro.dead_seed import sample
from repro.entropy import pick_index, sample_noise, stamp
from repro.float_eq import is_half, ratios_match
from repro.serving.retrier import backoff_jitter_us, wait_for_worker
from repro.sim.config import DuetConfig
from repro.sim.executor import TileModel
from repro.swallow import cleanup, load
