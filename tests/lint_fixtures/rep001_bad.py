# repro-lint-fixture: path=src/repro/dram/fake_sampling.py
# expect: REP001:7 REP001:8 REP001:12 REP001:16 REP001:20 REP001:24
#
# Legacy global-state RNG: the module seeds and draws from the shared
# numpy global generator and from the stdlib random module's functions.
import random
import random as stdlib_random
from random import choice

import numpy as np

np.random.seed(1234)


def draw(n: int) -> "np.ndarray":
    return np.random.rand(n)


def pick(items: list) -> object:
    return random.choice(items)


def unseeded() -> "random.Random":
    return random.Random()
