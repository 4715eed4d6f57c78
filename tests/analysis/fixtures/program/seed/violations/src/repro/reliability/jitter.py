"""Unseeded backoff jitter in recovery code.

No parallel import here: only SEED001's always-in-scope
``reliability/`` prefix makes this module worker-adjacent.
"""

import numpy as np


def _backoff_jitter_us(attempt):
    rng = np.random.default_rng()  # retry storms stop replaying per seed
    return 1_000.0 * (2.0 ** attempt) * float(rng.random())
