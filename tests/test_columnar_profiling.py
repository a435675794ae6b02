"""The columnar profiling front end equals its object-at-a-time oracle.

Hypothesis draws random traces and cache geometries and checks that
``MemoryHierarchy.simulate``, ``reuse_statistics`` and
``DataEntropyEstimator.estimate`` on :class:`AccessColumns` return
exactly what the per-access oracles in ``tests/oracles`` return on the
same trace as ``MemoryAccess`` objects.  The profiler's telemetry spans
are pinned here too: their names and nesting, their coverage of the
profile, and that enabling them changes no feature bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.geometry import DramGeometry
from repro.memsys.access import AccessColumns, AccessType, MemoryAccess
from repro.memsys.cache import CacheConfig
from repro.memsys.hierarchy import MemoryHierarchy
from repro.profiling.entropy import DataEntropyEstimator
from repro.profiling.profiler import WorkloadProfiler
from repro.profiling.reuse import reuse_statistics
from repro.telemetry import telemetry_session
from repro.workloads.registry import create_workload

from tests.oracles.memsys import simulate_objects
from tests.oracles.profiling import (
    entropy_objects,
    feature_bytes,
    profile_objects,
    reuse_statistics_objects,
)

_ADDRESSES = st.one_of(
    st.integers(min_value=0, max_value=4095),          # dense: hits and evictions
    st.integers(min_value=0, max_value=2 ** 40),       # sparse: every rank
)
_VALUES = st.one_of(
    st.sampled_from([0, 1 << 63, 0x3FF0_0000_0000_0000, 2 ** 64 - 1]),
    st.integers(min_value=0, max_value=2 ** 64 - 1),
)

#: Two DIMMs per MCU, one rank each: exercises the DIMM -> MCU modulo.
_EIGHT_DIMMS = DramGeometry(
    num_dimms=8, ranks_per_dimm=1, banks_per_rank=2, rows_per_bank=64, columns_per_row=32,
)


def _access(address, write, value, thread, instruction):
    return MemoryAccess(
        address=address, access_type=AccessType.WRITE if write else AccessType.READ,
        instruction_index=instruction, value=value, thread_id=thread,
    )


_TRACES = st.lists(
    st.builds(
        _access, _ADDRESSES, st.booleans(), _VALUES,
        st.integers(min_value=0, max_value=15),          # >= num_threads: modulo
        st.integers(min_value=0, max_value=2 ** 40),
    ),
    max_size=80,
)


def _random_trace(seed, size):
    """A long trace with hot and cold lines, many threads and written values."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 2048, size=size)
    cold = rng.integers(0, 2 ** 36, size=size)
    addresses = np.where(rng.random(size) < 0.8, hot, cold)
    return AccessColumns(
        address=addresses.astype(np.int64),
        is_write=rng.random(size) < 0.3,
        value=rng.integers(0, 64, size=size).astype(np.uint64) << np.uint64(52),
        instruction_index=np.cumsum(rng.integers(1, 20, size=size)).astype(np.int64),
        thread_id=rng.integers(0, 12, size=size).astype(np.int64),
    )


def _as_objects(columns):
    return [
        _access(*row) for row in zip(
            columns.address.tolist(), columns.is_write.tolist(), columns.value.tolist(),
            columns.thread_id.tolist(), columns.instruction_index.tolist(),
        )
    ]


@st.composite
def _cache_configs(draw):
    associativity = draw(st.integers(min_value=1, max_value=8))
    num_sets = draw(st.sampled_from([1, 2, 4]))
    line_bytes = draw(st.sampled_from([16, 64]))
    return CacheConfig(
        size_bytes=associativity * num_sets * line_bytes,
        associativity=associativity,
        line_bytes=line_bytes,
        write_back=draw(st.booleans()),
    )


@given(
    trace=_TRACES,
    num_threads=st.integers(min_value=1, max_value=8),
    l1=_cache_configs(),
    l2=_cache_configs(),
    geometry=st.sampled_from([DramGeometry(), _EIGHT_DIMMS]),
)
@settings(max_examples=150, deadline=None)
def test_columnar_simulate_equals_object_oracle(trace, num_threads, l1, l2, geometry):
    hierarchy = MemoryHierarchy(
        geometry=geometry, l1_config=l1, l2_config=l2, num_threads=num_threads,
    )
    expected = simulate_objects(
        trace, geometry=geometry, l1_config=l1, l2_config=l2, num_threads=num_threads,
    )
    assert hierarchy.simulate(AccessColumns.from_accesses(trace)) == expected
    # A second call starts cold again, like a fresh oracle.
    assert hierarchy.simulate(trace) == expected


@given(trace=_TRACES.filter(bool))
@settings(max_examples=100, deadline=None)
def test_reuse_statistics_equal_object_oracle(trace):
    assert reuse_statistics(AccessColumns.from_accesses(trace)) == \
        reuse_statistics_objects(trace)


@given(
    trace=_TRACES,
    value_bits=st.integers(min_value=1, max_value=64),
    max_samples=st.integers(min_value=1, max_value=100),
)
@settings(max_examples=100, deadline=None)
def test_entropy_equals_object_oracle(trace, value_bits, max_samples):
    estimator = DataEntropyEstimator(value_bits=value_bits, max_samples=max_samples)
    actual = estimator.estimate(AccessColumns.from_accesses(trace))
    assert actual == entropy_objects(trace, estimator)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_long_random_traces_equal_object_oracles(seed):
    columns = _random_trace(seed, 6000)
    trace = _as_objects(columns)
    for threads, l2_write_back in ((1, True), (8, True), (3, False)):
        l1 = CacheConfig(size_bytes=1024, associativity=4)
        l2 = CacheConfig(size_bytes=4096, associativity=8, write_back=l2_write_back)
        hierarchy = MemoryHierarchy(l1_config=l1, l2_config=l2, num_threads=threads)
        assert hierarchy.simulate(columns) == simulate_objects(
            trace, l1_config=l1, l2_config=l2, num_threads=threads,
        )
    assert reuse_statistics(columns) == reuse_statistics_objects(trace)
    for estimator in (DataEntropyEstimator(), DataEntropyEstimator(12, max_samples=777)):
        assert estimator.estimate(columns) == entropy_objects(trace, estimator)


def test_entropy_of_many_distinct_values_equals_object_oracle():
    rng = np.random.default_rng(17)
    trace = [
        _access(8 * i, True, int(v), 0, i)
        for i, v in enumerate(rng.integers(0, 2 ** 63, size=5000, dtype=np.int64))
    ]
    for estimator in (DataEntropyEstimator(), DataEntropyEstimator(64, max_samples=4321)):
        assert estimator.estimate(trace) == entropy_objects(trace, estimator)


@pytest.mark.parametrize("name", ["backprop(par)", "memcached", "data-pattern-random"])
def test_profile_equals_object_oracle_bit_for_bit(name):
    actual = WorkloadProfiler().profile(create_workload(name))
    assert feature_bytes(actual) == feature_bytes(profile_objects(create_workload(name)))


class TestProfilerSpans:
    CHILDREN = ("profile.trace", "profile.cache_sim", "profile.features")

    def test_spans_nest_under_profile_and_cover_it(self):
        with telemetry_session() as telemetry:
            WorkloadProfiler().profile(create_workload("kmeans"))
        snapshot = telemetry.snapshot()
        assert [span.name for span in snapshot.spans] == ["profile"]
        profile = snapshot.spans[0]
        assert profile.count == 1
        assert [child.name for child in profile.children] == list(self.CHILDREN)
        assert all(child.count == 1 and not child.children for child in profile.children)
        covered = sum(child.total_s for child in profile.children)
        assert covered >= 0.95 * profile.total_s

    def test_features_bit_identical_with_telemetry_on_and_off(self):
        off = WorkloadProfiler().profile(create_workload("bfs"))
        with telemetry_session():
            on = WorkloadProfiler().profile(create_workload("bfs"))
        assert feature_bytes(on) == feature_bytes(off)
