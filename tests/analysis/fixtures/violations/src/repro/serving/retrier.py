"""REL003 bait: unbounded retry loop and wall-clock sleep."""

import time


def wait_for_worker(worker):
    # constant-true loop with no break/return/raise: never terminates
    while True:
        if worker.ready():
            worker.mark_healthy()
        time.sleep(0.05)
