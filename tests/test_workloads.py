"""Tests for the workload suite and the instrumentation layer."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro import units
from repro.errors import ConfigurationError, WorkloadError
from repro.workloads.analytics import (
    BetweennessCentralityWorkload,
    BfsWorkload,
    PagerankWorkload,
    barabasi_albert_neighbours,
)
from repro.workloads.base import (
    TraceRecorder,
    Workload,
    interleave,
    running_sums,
    sequence,
)
from repro.workloads.caching import MemcachedWorkload
from repro.workloads.compute import (
    BackpropWorkload,
    FmmWorkload,
    KmeansWorkload,
    NeedlemanWunschWorkload,
    SradWorkload,
)
from repro.workloads.lulesh import LuleshWorkload
from repro.workloads.micro import DataPatternWorkload
from repro.workloads.registry import (
    ALL_WORKLOADS,
    CAMPAIGN_WORKLOADS,
    available_workloads,
    campaign_workload_names,
    create_workload,
)

from tests.oracles.profiling import float_to_word
from tests.oracles.workloads import KeepingRecorder, run_scalar, schedule, thread_chunks


class TestTraceRecorder:
    def test_alloc_returns_disjoint_page_aligned_arrays(self):
        recorder = TraceRecorder()
        a = recorder.alloc(10, "a")
        b = recorder.alloc(10, "b")
        assert a.base_address % 8 == 0
        assert b.base_address >= a.base_address + 10 * units.WORD_BYTES
        assert b.base_address % 4096 == 0

    def test_reads_and_writes_are_recorded_in_order(self):
        recorder = TraceRecorder()
        array = recorder.alloc(4)
        array.write(0, 1.5)
        assert array.read(0) == pytest.approx(1.5)
        assert recorder.num_accesses == 2
        columns = recorder.columns
        assert columns.is_write.tolist() == [True, False]
        assert columns.address.tolist() == [array.base_address] * 2
        assert columns.instruction_index[0] < columns.instruction_index[1]

    def test_written_value_is_raw_float_bits(self):
        recorder = TraceRecorder()
        array = recorder.alloc(1)
        array.write(0, 2.0)
        assert int(recorder.columns.value[0]) == float_to_word(2.0)

    def test_value_column_is_float_to_word_of_every_access(self):
        recorder = TraceRecorder()
        array = recorder.alloc(3)
        values = [0.0, -1.5, float("inf")]
        for index, value in enumerate(values):
            array.write(index, value)
        array.read(1)
        expected = [float_to_word(v) for v in values + [-1.5]]
        assert recorder.columns.value.tolist() == expected

    def test_columns_follow_later_accesses(self):
        recorder = TraceRecorder()
        array = recorder.alloc(2)
        array.write(0, 1.0)
        first = recorder.columns
        assert recorder.columns is first
        array.read(0, thread_id=3)
        assert len(recorder.columns) == 2
        assert recorder.columns.thread_id.tolist() == [0, 3]

    def test_negative_thread_rejected_when_columns_are_built(self):
        recorder = TraceRecorder()
        recorder.alloc(1).read(0, thread_id=-1)
        with pytest.raises(ConfigurationError):
            recorder.columns

    def test_compute_advances_instruction_counter_only(self):
        recorder = TraceRecorder()
        recorder.compute(100)
        assert recorder.instruction_count == 100
        assert recorder.num_accesses == 0

    def test_out_of_bounds_access_raises(self):
        recorder = TraceRecorder()
        array = recorder.alloc(2)
        with pytest.raises(WorkloadError):
            array.read(2)

    def test_zero_length_allocation_rejected(self):
        with pytest.raises(WorkloadError, match="length must be positive"):
            TraceRecorder().alloc(0)

    def test_out_of_bounds_write_raises_and_records_nothing(self):
        recorder = TraceRecorder()
        array = recorder.alloc(2, "buf")
        assert len(array) == 2
        for index in (-1, 2):
            with pytest.raises(WorkloadError, match="out of bounds for array 'buf'"):
                array.write(index, 1.0)
        assert recorder.num_accesses == 0
        assert array.values.tolist() == [0.0, 0.0]

    def test_memory_instruction_fraction(self):
        recorder = TraceRecorder()
        assert recorder.memory_instruction_fraction == 0.0
        array = recorder.alloc(1)
        array.write(0, 1.0)
        recorder.compute(3)
        assert recorder.memory_instruction_fraction == pytest.approx(1 / 4)

    def test_workload_without_memory_accesses_rejected(self):
        class IdleWorkload(Workload):
            name = "idle"

            def run(self, recorder):
                recorder.compute(10)

        with pytest.raises(WorkloadError, match="idle produced no memory accesses"):
            IdleWorkload().record_trace()

    def test_negative_compute_rejected(self):
        with pytest.raises(WorkloadError):
            TraceRecorder().compute(-1)


class TestRecordBlock:
    def test_out_of_bounds_index_raises_the_read_write_error(self):
        recorder = TraceRecorder()
        array = recorder.alloc(3, "buf")
        with pytest.raises(WorkloadError) as scalar:
            array.read(3)
        for build in (array.addresses, array.load, lambda index: array.store(index, 1.0)):
            with pytest.raises(WorkloadError) as block:
                build([[0, 1], [3, 2]])
            assert str(block.value) == str(scalar.value)
        with pytest.raises(WorkloadError, match="index -1 out of bounds"):
            array.load([-1])
        assert not array.values.any()

    def test_mismatched_shapes_raise(self):
        recorder = TraceRecorder()
        array = recorder.alloc(6)
        block = array.load(np.arange(6).reshape(3, 2))
        with pytest.raises(WorkloadError):
            recorder.record_block(block, thread=np.zeros((2, 2)))
        with pytest.raises(WorkloadError):
            recorder.record_block(block, present=np.ones((3, 3), dtype=bool))
        with pytest.raises(WorkloadError):
            array.load(np.arange(6).reshape(3, 2), values=np.zeros((2, 2)))
        with pytest.raises(WorkloadError):
            array.store([0, 1], 1.0, compute=[0, 0, 0])
        with pytest.raises(WorkloadError):
            sequence(block, array.load(np.zeros((2, 1), dtype=np.int64)))
        with pytest.raises(WorkloadError):
            interleave(block, array.load(np.zeros((2, 1), dtype=np.int64)))
        assert recorder.num_accesses == 0

    def test_negative_compute_raises(self):
        recorder = TraceRecorder()
        block = recorder.alloc(2).load([[0, 1]], compute=[0, -1])
        with pytest.raises(WorkloadError, match="cannot be negative"):
            recorder.record_block(block)
        assert recorder.instruction_count == recorder.num_accesses == 0

    def test_block_equals_the_same_scalar_accesses(self):
        scalar, block = TraceRecorder(), TraceRecorder()
        a, b = scalar.alloc(4), block.alloc(4)
        for array in (a, b):
            array.fill([4.0, 3.0, 2.0, 1.0])
        for index in range(4):
            a.write(index, index + 0.5, thread_id=index % 2)
            scalar.compute(3)
            a.read(3 - index, thread_id=index % 2)
        index = np.arange(4)[:, None]
        read = np.array([[1.0], [2.0], [1.5], [0.5]])       # element 3 - index at that time
        block.record_block(sequence(b.store(index, index + 0.5, compute=3), b.load(3 - index, read)),
                           thread=index % 2)
        _assert_same_columns(block.columns, scalar.columns)
        assert block.instruction_count == scalar.instruction_count
        assert b.values.tolist() == a.values.tolist()

    def test_mixed_scalar_and_block_recording_is_one_trace_in_program_order(self):
        recorder = TraceRecorder()
        array = recorder.alloc(8)
        array.write(0, 1.0)
        recorder.compute(2)
        recorder.record_block(array.store([[1], [2], [3]], [[2.0], [3.0], [4.0]],
                                          compute=[[1], [0], [4]]), thread=5)
        assert array.read(2, thread_id=1) == 3.0
        columns = recorder.columns
        assert columns.address.tolist() == [array.base_address + 8 * i for i in (0, 1, 2, 3, 2)]
        assert columns.is_write.tolist() == [True, True, True, True, False]
        assert columns.thread_id.tolist() == [0, 5, 5, 5, 1]
        assert columns.instruction_index.tolist() == [1, 4, 6, 7, 12]
        assert recorder.instruction_count == 12
        assert columns.value.tolist() == [float_to_word(v) for v in (1.0, 2.0, 3.0, 4.0, 3.0)]

    def test_absent_slots_record_and_retire_nothing(self):
        recorder = TraceRecorder()
        array = recorder.alloc(4)
        recorder.record_block(array.load(np.arange(4).reshape(2, 2), compute=[5, 7]),
                              present=[[True, False], [False, True]])
        assert recorder.columns.address.tolist() == array.addresses([0, 3]).tolist()
        assert recorder.columns.instruction_index.tolist() == [1, 7]
        assert recorder.instruction_count == 14

    def test_sequence_and_interleave_order_a_loop_body(self):
        array = TraceRecorder().alloc(12)
        a, b = array.load(np.arange(3)[:, None]), array.load(np.arange(6).reshape(3, 2) + 3)
        words = (sequence(a, b)["address"] - array.base_address) // 8
        assert words.tolist() == [[0, 3, 4], [1, 5, 6], [2, 7, 8]]
        pairs = interleave(array.load(np.arange(2) + 9), array.load([[0], [1]]))
        words = (pairs["address"] - array.base_address) // 8
        assert words.tolist() == [[9, 0, 10, 0], [9, 1, 10, 1]]

    def test_fill_records_one_write_per_element(self):
        recorder = TraceRecorder()
        array = recorder.alloc(3)
        array.fill([1.0, 2.0, 3.0], compute=1)
        assert array.values.tolist() == [1.0, 2.0, 3.0]
        assert recorder.columns.instruction_index.tolist() == [1, 3, 5]
        assert recorder.instruction_count == 6


def test_running_sums_match_a_scalar_accumulation_loop():
    rng = np.random.default_rng(3)
    groups = rng.integers(0, 5, size=200)
    values = rng.normal(size=200) * 1e3
    start = rng.normal(size=5)
    before, after, totals = running_sums(groups, values, start)
    acc = start.tolist()
    for i, (group, value) in enumerate(zip(groups.tolist(), values.tolist())):
        assert before[i] == acc[group]
        acc[group] += value
        assert after[i] == acc[group]
    assert totals.tolist() == acc


def test_running_sums_keep_signed_zeros_and_rows():
    before, after, totals = running_sums(
        np.array([0, 0]), np.array([[-0.0, 1.0], [-0.0, 2.0]]),
        np.array([[-0.0, 0.5], [-0.0, 0.0], [5.0, 6.0]]))
    assert before.tobytes() == np.array([[-0.0, 0.5], [-0.0, 1.5]]).tobytes()
    assert after.tobytes() == np.array([[-0.0, 1.5], [-0.0, 3.5]]).tobytes()
    assert totals.tobytes() == np.array([[-0.0, 3.5], [-0.0, 0.0], [5.0, 6.0]]).tobytes()


class TestWorkloadScheduling:
    def test_thread_chunks_cover_all_items(self):
        workload = BackpropWorkload(threads=8)
        chunks = thread_chunks(workload, 100)
        assert sum(len(c) for c in chunks) == 100
        assert len(chunks) == 8

    def test_interleaved_schedule_is_a_permutation(self):
        workload = BackpropWorkload(threads=4)
        items, threads = workload.interleaved_schedule(50)
        assert items.dtype == threads.dtype == np.int64
        assert sorted(items.tolist()) == list(range(50))
        assert set(threads.tolist()) == {0, 1, 2, 3}

    def test_serial_schedule_uses_single_thread(self):
        workload = BackpropWorkload(threads=1)
        items, threads = workload.interleaved_schedule(10)
        assert items.tolist() == list(range(10))
        assert not threads.any()

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    @pytest.mark.parametrize("num_items", [1, 5, 8, 17, 50, 100, 203])
    @pytest.mark.parametrize("block", [1, 3, 8])
    def test_schedule_matches_the_round_robin_oracle(self, threads, num_items, block):
        workload = BackpropWorkload(threads=threads)
        items, item_threads = workload.interleaved_schedule(num_items, block)
        assert list(zip(items.tolist(), item_threads.tolist())) == \
            schedule(workload, num_items, block)

    def test_sweeps_are_scheduled_one_after_the_other(self):
        workload = BackpropWorkload(threads=3)
        items, threads = workload.interleaved_schedule([4, 30, 1])
        expected = []
        for offset, size in ((0, 4), (4, 30), (34, 1)):
            expected += [(offset + item, thread) for item, thread in schedule(workload, size)]
        assert list(zip(items.tolist(), threads.tolist())) == expected

    def test_schedule_rejects_empty_sweeps(self):
        with pytest.raises(WorkloadError):
            BackpropWorkload(threads=2).interleaved_schedule(0)
        with pytest.raises(WorkloadError):
            BackpropWorkload(threads=2).interleaved_schedule([3, 0])


class TestRegistry:
    def test_campaign_has_fourteen_workloads(self):
        assert len(campaign_workload_names()) == 14

    def test_every_registry_entry_is_constructible(self):
        for name in available_workloads():
            workload = create_workload(name)
            assert workload.display_name == name

    def test_parallel_variants_use_eight_threads(self):
        assert create_workload("backprop(par)").threads == 8
        assert create_workload("backprop").threads == 1
        assert create_workload("memcached").threads == 8

    def test_unknown_workload_rejected(self):
        with pytest.raises(WorkloadError):
            create_workload("doom")

    def test_extra_workloads_not_in_campaign(self):
        assert "lulesh(O2)" in ALL_WORKLOADS
        assert "lulesh(O2)" not in CAMPAIGN_WORKLOADS


class TestKernels:
    def test_every_campaign_workload_produces_a_trace(self):
        for name in campaign_workload_names():
            recorder = create_workload(name).record_trace()
            assert recorder.num_accesses > 1000, name
            assert recorder.instruction_count > recorder.num_accesses, name
            assert recorder.allocated_bytes > 0, name

    def test_traces_are_deterministic(self):
        a = KmeansWorkload(threads=1, seed=5).record_trace()
        b = KmeansWorkload(threads=1, seed=5).record_trace()
        assert a.num_accesses == b.num_accesses
        assert np.array_equal(a.columns.address, b.columns.address)
        assert np.array_equal(a.columns.value, b.columns.value)

    def test_different_seeds_change_the_data(self):
        a = KmeansWorkload(threads=1, seed=5).record_trace()
        b = KmeansWorkload(threads=1, seed=6).record_trace()
        assert a.columns.value[:50].tolist() != b.columns.value[:50].tolist()

    def test_parallel_variant_tags_multiple_threads(self):
        recorder = BackpropWorkload(threads=8).record_trace()
        assert set(recorder.columns.thread_id.tolist()) == set(range(8))

    def test_nw_computes_a_dp_matrix(self):
        workload = NeedlemanWunschWorkload(threads=1, length=20)
        recorder = TraceRecorder()
        workload._rng = workload._rng  # no-op, keeps lint quiet
        workload.run(recorder)
        # The recorder's last accesses touch the DP matrix, whose final cell
        # holds the alignment score (a finite float).
        assert recorder.num_accesses > 20 * 20

    def test_memcached_mixes_reads_and_writes(self):
        recorder = MemcachedWorkload(threads=8, requests=500).record_trace()
        writes = int(recorder.columns.is_write.sum())
        reads = recorder.num_accesses - writes
        assert reads > writes > 0

    def test_lulesh_variants_differ_in_instruction_count(self):
        o2 = LuleshWorkload(optimization="O2", edge=6, steps=2).record_trace()
        aggressive = LuleshWorkload(optimization="F", edge=6, steps=2).record_trace()
        assert aggressive.instruction_count < o2.instruction_count
        assert abs(aggressive.num_accesses - o2.num_accesses) < 0.05 * o2.num_accesses

    def test_lulesh_rejects_unknown_optimization(self):
        with pytest.raises(ValueError):
            LuleshWorkload(optimization="O3")

    def test_data_pattern_variants(self):
        random_trace = DataPatternWorkload(words=256, sweeps=1, pattern="random").record_trace()
        solid_trace = DataPatternWorkload(words=256, sweeps=1, pattern="solid").record_trace()
        random_columns, solid_columns = random_trace.columns, solid_trace.columns
        random_values = set(random_columns.value[random_columns.is_write].tolist())
        solid_values = set(solid_columns.value[solid_columns.is_write].tolist())
        assert len(random_values) > 100
        assert solid_values == {float_to_word(0.0)}

    def test_data_pattern_rejects_unknown_pattern(self):
        with pytest.raises(ValueError):
            DataPatternWorkload(pattern="stripes")

    def test_workload_with_zero_threads_rejected(self):
        with pytest.raises(WorkloadError):
            BackpropWorkload(threads=0)


def _assert_same_columns(got, expected):
    for column in ("address", "is_write", "value", "instruction_index", "thread_id"):
        a, b = getattr(got, column), getattr(expected, column)
        assert a.dtype == b.dtype and np.array_equal(a, b), column


def _assert_matches_scalar_oracle(workload):
    """Five trace columns, instruction count, footprint and final data, bit for bit."""
    oracle = run_scalar(workload, KeepingRecorder())
    workload._rng = np.random.default_rng(workload.seed)
    recorder = KeepingRecorder()
    workload.run(recorder)
    _assert_same_columns(recorder.columns, oracle.columns)
    assert recorder.instruction_count == oracle.instruction_count
    assert recorder.allocated_bytes == oracle.allocated_bytes
    assert [array.values.tobytes() for array in recorder.arrays] == \
        [array.values.tobytes() for array in oracle.arrays]


class TestKernelsMatchScalarOracle:
    """The block-recorded kernels against the per-access oracle kernels.

    The drawn sizes, and each test's explicit example, reach chunks longer
    than the schedule's block of 8 items, so the (par) variants really
    interleave their threads (at the default sizes srad's 44 rows over 8
    threads make chunks of at most 6 rows: the serial address order).
    """

    THREADS = st.sampled_from([1, 2, 3, 8])

    @pytest.mark.parametrize("name", available_workloads())
    def test_registered_workload_at_default_size(self, name):
        _assert_matches_scalar_oracle(create_workload(name))

    @given(threads=THREADS, rows=st.integers(1, 90), cols=st.integers(1, 5),
           iterations=st.integers(1, 2), seed=st.integers(0, 99))
    @example(threads=8, rows=80, cols=3, iterations=1, seed=0)
    @settings(max_examples=12, deadline=None)
    def test_srad(self, threads, rows, cols, iterations, seed):
        _assert_matches_scalar_oracle(SradWorkload(
            threads=threads, rows=rows, cols=cols, iterations=iterations, seed=seed))

    @given(threads=THREADS, length=st.integers(1, 80), seed=st.integers(0, 99))
    @example(threads=8, length=80, seed=0)
    @settings(max_examples=10, deadline=None)
    def test_nw(self, threads, length, seed):
        _assert_matches_scalar_oracle(
            NeedlemanWunschWorkload(threads=threads, length=length, seed=seed))

    @given(threads=THREADS, points=st.integers(1, 120), dims=st.integers(1, 4),
           clusters=st.integers(1, 6), iterations=st.integers(1, 2), seed=st.integers(0, 99))
    @example(threads=8, points=100, dims=2, clusters=3, iterations=1, seed=0)
    @settings(max_examples=12, deadline=None)
    def test_kmeans(self, threads, points, dims, clusters, iterations, seed):
        _assert_matches_scalar_oracle(KmeansWorkload(
            threads=threads, points=points, dims=dims, clusters=clusters,
            iterations=iterations, seed=seed))

    @given(threads=THREADS, particles=st.integers(1, 100), grid=st.integers(1, 5),
           steps=st.integers(1, 2), seed=st.integers(0, 99))
    @example(threads=8, particles=90, grid=3, steps=1, seed=0)
    @settings(max_examples=12, deadline=None)
    def test_fmm(self, threads, particles, grid, steps, seed):
        _assert_matches_scalar_oracle(FmmWorkload(
            threads=threads, particles=particles, grid=grid, steps=steps, seed=seed))

    @given(threads=THREADS, samples=st.integers(1, 90), input_size=st.integers(1, 4),
           hidden_size=st.integers(1, 4), epochs=st.integers(1, 2), seed=st.integers(0, 99))
    @example(threads=8, samples=90, input_size=2, hidden_size=2, epochs=1, seed=0)
    @settings(max_examples=12, deadline=None)
    def test_backprop(self, threads, samples, input_size, hidden_size, epochs, seed):
        _assert_matches_scalar_oracle(BackpropWorkload(
            threads=threads, samples=samples, input_size=input_size,
            hidden_size=hidden_size, epochs=epochs, seed=seed))

    @given(threads=THREADS, nodes=st.integers(5, 100), attach=st.integers(1, 4),
           iterations=st.integers(1, 2), seed=st.integers(0, 99))
    @example(threads=8, nodes=100, attach=3, iterations=1, seed=0)
    @settings(max_examples=12, deadline=None)
    def test_pagerank(self, threads, nodes, attach, iterations, seed):
        _assert_matches_scalar_oracle(PagerankWorkload(
            threads=threads, nodes=nodes, attach_edges=attach, iterations=iterations, seed=seed))

    @given(threads=THREADS, nodes=st.integers(5, 60), sources=st.integers(1, 4),
           seed=st.integers(0, 99))
    @settings(max_examples=8, deadline=None)
    def test_bfs_and_bc(self, threads, nodes, sources, seed):
        _assert_matches_scalar_oracle(BfsWorkload(threads=threads, nodes=nodes, seed=seed))
        _assert_matches_scalar_oracle(BetweennessCentralityWorkload(
            threads=threads, nodes=nodes, sources=sources, seed=seed))

    @given(threads=THREADS, edge=st.integers(1, 18), optimization=st.sampled_from(["O2", "F"]),
           seed=st.integers(0, 99))
    @example(threads=2, edge=17, optimization="F", seed=0)
    @settings(max_examples=8, deadline=None)
    def test_lulesh(self, threads, edge, optimization, seed):
        _assert_matches_scalar_oracle(LuleshWorkload(
            threads=threads, edge=edge, steps=1, optimization=optimization, seed=seed))

    @given(words=st.integers(1, 300), sweeps=st.integers(0, 2),
           pattern=st.sampled_from(["random", "solid", "checkerboard"]), seed=st.integers(0, 99))
    @settings(max_examples=12, deadline=None)
    def test_data_pattern(self, words, sweeps, pattern, seed):
        _assert_matches_scalar_oracle(DataPatternWorkload(
            words=words, sweeps=sweeps, pattern=pattern, idle_instructions=50, seed=seed))


class TestGraphGenerator:
    @pytest.mark.parametrize("nodes, attach, seed",
                             [(320, 3, 23), (220, 3, 23), (50, 2, 1), (1000, 5, 7), (10, 1, 0)])
    def test_same_graph_as_networkx(self, nodes, attach, seed):
        nx = pytest.importorskip("networkx")
        graph = nx.barabasi_albert_graph(nodes, attach, seed=seed)
        expected = [sorted(graph.neighbors(node)) for node in sorted(graph.nodes())]
        assert barabasi_albert_neighbours(nodes, attach, seed) == expected

    def test_rejects_attach_outside_one_to_nodes(self):
        with pytest.raises(WorkloadError):
            barabasi_albert_neighbours(5, 0, 1)
        with pytest.raises(WorkloadError):
            barabasi_albert_neighbours(5, 5, 1)

    def test_import_repro_does_not_load_networkx(self):
        code = "import sys, repro; print('networkx' in sys.modules)"
        source_root = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": source_root},
        )
        assert result.stdout.strip() == "False"
