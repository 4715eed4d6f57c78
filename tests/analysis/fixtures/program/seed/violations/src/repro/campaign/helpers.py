"""RNG helper with no parallel imports: never worker-adjacent itself."""

import numpy as np


def fresh():
    return np.random.default_rng()
