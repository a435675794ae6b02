"""Caching workload: a memcached-style key-value store.

``memcached`` is the paper's lowest-WER workload: its hot keys are
re-accessed so frequently (Treuse = 0.09 s in Table II) that memory
accesses implicitly refresh most of its footprint.  The miniature
version reproduces that behaviour with a Zipf-distributed request stream
over an open-addressing hash table.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import TraceRecorder, Workload


class MemcachedWorkload(Workload):
    """GET/SET request stream against an open-addressing hash table."""

    name = "memcached"
    suite = "cloud"
    description = "Zipfian GET/SET mix against a key-value hash table"
    suffix_parallel = False   #: always run with 8 threads under its plain name

    def __init__(self, threads: int = 8, seed: int = 29, table_slots: int = 512,
                 keys: int = 300, requests: int = 6000, get_fraction: float = 0.9,
                 zipf_exponent: float = 1.2, **kwargs: int) -> None:
        super().__init__(threads=threads, seed=seed, **kwargs)
        self.table_slots = table_slots
        self.keys = keys
        self.requests = requests
        self.get_fraction = get_fraction
        self.zipf_exponent = zipf_exponent

    def run(self, recorder: TraceRecorder) -> None:
        rng = self._rng
        # key slot -> (stored key, stored value); two words per slot.  Keys
        # start at 1 so an untouched slot (0.0) reads as "empty" — the table
        # is populated lazily, exactly like a cache warming up, so there is
        # no bulk initialisation phase separating allocation from use.
        table_keys = recorder.alloc(self.table_slots, "table_keys")
        table_values = recorder.alloc(self.table_slots, "table_values")
        statistics = recorder.alloc(4, "stats")

        # Pre-compute the Zipfian popularity distribution once.
        ranks = np.arange(1, self.keys + 1, dtype=float)
        weights = 1.0 / np.power(ranks, self.zipf_exponent)
        weights /= weights.sum()
        key_stream = rng.choice(self.keys, size=self.requests, p=weights) + 1
        op_stream = rng.random(self.requests) < self.get_fraction

        order, threads = self.interleaved_schedule(self.requests)
        for request_index, thread in zip(order.tolist(), threads.tolist()):
            key = int(key_stream[request_index])
            is_get = bool(op_stream[request_index])
            slot = (key * 2654435761) % self.table_slots
            recorder.compute(6)   # hashing + request parsing

            # Linear probing.  Slots hold integer keys (or the 0.0
            # empty sentinel) stored verbatim — no arithmetic ever touches
            # them, so exact float equality is the hash-table contract here.
            for probe in range(8):
                probe_slot = (slot + probe) % self.table_slots
                stored = table_keys.read(probe_slot, thread)
                recorder.compute(2)
                if stored == float(key):  # repro-lint: disable=REP004
                    if is_get:
                        table_values.read(probe_slot, thread)
                        statistics.write(0, statistics.read(0, thread) + 1.0, thread)
                    else:
                        table_values.write(probe_slot, float(key) * 3.0 + 1.0, thread)
                        statistics.write(1, statistics.read(1, thread) + 1.0, thread)
                    break
                if stored == 0.0:  # repro-lint: disable=REP004
                    # Miss: insert the key (memcached stores on miss-then-set).
                    table_keys.write(probe_slot, float(key), thread)
                    table_values.write(probe_slot, float(key) * 3.0 + 1.0, thread)
                    statistics.write(2, statistics.read(2, thread) + 1.0, thread)
                    break
            recorder.compute(4)   # response formatting
