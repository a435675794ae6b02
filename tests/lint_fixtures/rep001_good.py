# repro-lint-fixture: path=src/repro/dram/fake_sampling_ok.py
#
# Explicit generator objects are the sanctioned sampling route: seeded
# default_rng, Generator-over-PCG64 (the crc32-keyed stream idiom),
# SeedSequence spawning and an explicitly seeded stdlib random.Random
# instance are all allowed.
import random
import zlib
from random import Random

import numpy as np


def draw(n: int, seed: int) -> "np.ndarray":
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n)


def keyed_stream(workload: str, repetition: int) -> "np.random.Generator":
    key = zlib.crc32(f"{workload}:{repetition}".encode())
    return np.random.Generator(np.random.PCG64(key))


def spawned(seed: int) -> "np.random.SeedSequence":
    return np.random.SeedSequence(seed)


def pick(items: list, seed: int) -> object:
    return random.Random(seed).choice(items)


def seeded_instance(seed: int) -> Random:
    return Random(seed)
