"""CFG001 negative fixture: every field validated and documented."""

from dataclasses import dataclass

from repro.validation import check_range


@dataclass(frozen=True)
class DuetConfig:
    glb_bytes: int = 1024
    dram_bandwidth: int = 32
    enable_pipeline: bool = True

    def __post_init__(self):
        # field names as string arguments of the shared range check
        check_range(self, "glb_bytes", "dram_bandwidth", gt=0)
