"""Fixture entry point: imports every public definition of the fixture
modules, so DEAD001 sees each one called."""

from repro.bench.writer import read_report, write_report
from repro.cli import CliError, cmd_run
from repro.dead_seed import forward, sample
from repro.entropy import pick_index, sample_noise
from repro.float_eq import counts_match, is_unset, ratios_match
from repro.serving.retrier import dispatch_with_retries, drain_queue
from repro.sim.config import DuetConfig
from repro.sim.executor import TileModel
from repro.swallow import guarded, load
