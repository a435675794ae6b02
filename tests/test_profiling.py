"""Tests for the profiling substrate: reuse time, entropy, counters, profiler."""

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import DataError
from repro.memsys.access import AccessType, MemoryAccess
from repro.profiling import profiler as profiler_module
from repro.profiling.counters import (
    CORE_COUNTER_FEATURES,
    NOVEL_FEATURES,
    TOTAL_FEATURE_COUNT,
    all_feature_names,
    synthesize_tail_counters,
    tail_feature_names,
)
from repro.profiling.entropy import DataEntropyEstimator, shannon_entropy_bits
from repro.profiling.profiler import WorkloadProfiler, profile_workload
from repro.profiling.reuse import ReuseTimeEstimator, reuse_statistics
from repro.workloads.compute import BackpropWorkload

from tests.oracles.profiling import float_to_word


def access(address, index, write=False, value=0):
    return MemoryAccess(
        address=address,
        access_type=AccessType.WRITE if write else AccessType.READ,
        instruction_index=index,
        value=value,
    )


class TestReuseStatistics:
    def test_counts_unique_words_and_distances(self):
        trace = [access(0, 1), access(64, 5), access(0, 11), access(64, 20)]
        stats = reuse_statistics(trace)
        assert stats.unique_words == 2
        assert stats.total_accesses == 4
        assert stats.reused_access_fraction == pytest.approx(0.5)
        assert stats.mean_reuse_distance_instructions == pytest.approx((10 + 15) / 2)

    def test_no_reuse_falls_back_to_trace_length(self):
        trace = [access(i * 64, i + 1) for i in range(10)]
        stats = reuse_statistics(trace)
        assert stats.reused_access_fraction == 0.0
        assert stats.mean_reuse_distance_instructions == pytest.approx(10.0)

    def test_word_granularity(self):
        # Two addresses in the same 64-bit word count as a reuse.
        stats = reuse_statistics([access(0, 1), access(4, 9)])
        assert stats.unique_words == 1
        assert stats.reused_access_fraction == pytest.approx(0.5)

    def test_empty_trace_rejected(self):
        with pytest.raises(DataError):
            reuse_statistics([])


class TestReuseTimeEstimator:
    def test_eq4_scaling(self):
        # Treuse = CPI * D_reuse / f, scaled by the footprint ratio.
        stats = reuse_statistics([access(0, 1), access(0, 1001)])
        estimator = ReuseTimeEstimator(cpu_frequency_hz=1e9)
        treuse = estimator.estimate(stats, cycles_per_instruction=2.0, footprint_scale=10.0)
        assert treuse == pytest.approx(1000 * 2.0 / 1e9 * 10.0)

    def test_parallel_lower_cpi_shortens_reuse_time(self):
        stats = reuse_statistics([access(0, 1), access(0, 1001)])
        estimator = ReuseTimeEstimator()
        serial = estimator.estimate(stats, cycles_per_instruction=1.0)
        parallel = estimator.estimate(stats, cycles_per_instruction=0.2)
        assert parallel < serial

    def test_invalid_arguments_rejected(self):
        stats = reuse_statistics([access(0, 1)])
        estimator = ReuseTimeEstimator()
        with pytest.raises(DataError):
            estimator.estimate(stats, cycles_per_instruction=0.0)
        with pytest.raises(DataError):
            estimator.estimate(stats, cycles_per_instruction=1.0, footprint_scale=0.0)


class TestDataEntropy:
    def test_shannon_entropy_uniform(self):
        assert shannon_entropy_bits([1, 1, 1, 1]) == pytest.approx(2.0)

    def test_shannon_entropy_single_value(self):
        assert shannon_entropy_bits([10]) == pytest.approx(0.0)

    def test_solid_pattern_has_zero_entropy(self):
        trace = [access(i * 8, i + 1, write=True, value=float_to_word(0.0)) for i in range(64)]
        assert DataEntropyEstimator().estimate(trace) == pytest.approx(0.0)

    def test_distinct_values_have_high_entropy(self):
        trace = [
            access(i * 8, i + 1, write=True, value=float_to_word(float(i) + 0.5))
            for i in range(256)
        ]
        entropy = DataEntropyEstimator().estimate(trace)
        assert entropy > 6.0

    def test_reads_are_ignored(self):
        trace = [access(0, 1, write=False, value=12345)]
        assert DataEntropyEstimator().estimate(trace) == 0.0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(DataError):
            DataEntropyEstimator(value_bits=0)
        with pytest.raises(DataError):
            DataEntropyEstimator(max_samples=0)


class TestCounterCatalogue:
    def test_total_is_249_features(self):
        names = all_feature_names()
        assert len(names) == TOTAL_FEATURE_COUNT == 249
        assert len(set(names)) == 249

    def test_novel_features_first(self):
        assert all_feature_names()[:2] == NOVEL_FEATURES == ["treuse", "hdp"]

    def test_tail_counters_are_deterministic_per_workload(self):
        core = {name: 1.0 for name in CORE_COUNTER_FEATURES}
        a = synthesize_tail_counters("backprop", core)
        b = synthesize_tail_counters("backprop", core)
        c = synthesize_tail_counters("memcached", core)
        assert a == b
        assert a != c
        assert set(a) == set(tail_feature_names())

    def test_tail_counters_require_workload_name(self):
        with pytest.raises(DataError):
            synthesize_tail_counters("", {})


class TestWorkloadProfiler:
    def test_profile_contains_all_features(self, backprop_profile):
        assert len(backprop_profile.features) == 249
        assert set(backprop_profile.features) == set(all_feature_names())

    def test_rates_are_finite_and_consistent(self, backprop_profile):
        profile = backprop_profile
        assert all(math.isfinite(v) for v in profile.features.values())
        assert 0.0 < profile.feature("ipc") <= 8.0
        assert 0.0 <= profile.feature("wait_cycles") <= 1.0
        assert profile.feature("l1_miss_rate") <= 1.0
        assert profile.feature("memory_accesses_per_cycle") <= \
            profile.feature("l1_accesses_per_cycle")

    def test_parallel_profile_differs_from_serial(self, small_profiles):
        serial = small_profiles["backprop"]
        parallel = small_profiles["backprop(par)"]
        assert parallel.feature("threads") == 8.0
        assert parallel.feature("ipc") > serial.feature("ipc")
        # The parallel version implicitly refreshes memory more often.
        assert parallel.feature("treuse") < serial.feature("treuse")

    def test_memcached_has_lowest_reuse_time(self, small_profiles):
        treuse = {name: p.feature("treuse") for name, p in small_profiles.items()
                  if name != "data-pattern-random"}
        assert min(treuse, key=treuse.get) == "memcached"

    def test_data_pattern_micro_has_long_reuse_and_low_rate(self, small_profiles):
        micro = small_profiles["data-pattern-random"]
        others = [p for n, p in small_profiles.items() if n != "data-pattern-random"]
        assert micro.feature("treuse") > max(p.feature("treuse") for p in others)
        assert micro.feature("memory_accesses_per_cycle") < \
            max(p.feature("memory_accesses_per_cycle") for p in others)

    def test_behavior_conversion(self, backprop_profile):
        behavior = backprop_profile.behavior()
        assert behavior.footprint_words == 8 * 1024 ** 3 // 8
        assert behavior.reuse_time_s == pytest.approx(backprop_profile.feature("treuse"))

    def test_profile_cache_returns_same_object(self):
        assert profile_workload("backprop") is profile_workload("backprop")

    def test_concurrent_first_touches_profile_once(self, monkeypatch):
        monkeypatch.delitem(profiler_module._PROFILE_CACHE, "backprop", raising=False)
        real_profile = WorkloadProfiler.profile
        calls = []

        def counted_profile(self, workload):
            calls.append(workload.name)
            time.sleep(0.05)    # hold the first touch open for the second
            return real_profile(self, workload)

        monkeypatch.setattr(WorkloadProfiler, "profile", counted_profile)
        barrier = threading.Barrier(2)

        def touch(_):
            barrier.wait()
            return profile_workload("backprop")

        with ThreadPoolExecutor(max_workers=2) as pool:
            first, second = pool.map(touch, range(2))
        assert calls == ["backprop"]
        assert first is second is profile_workload("backprop")

    def test_custom_profiler_bypasses_cache(self):
        profiler = WorkloadProfiler()
        profile = profiler.profile(BackpropWorkload(threads=1))
        assert profile.workload == "backprop"
        assert profile is not profile_workload("backprop")

    def test_summary_reports_headline_features(self, backprop_profile):
        summary = backprop_profile.summary()
        assert list(summary) == [
            "treuse", "hdp", "memory_accesses_per_cycle", "wait_cycles", "ipc",
            "l2_miss_rate",
        ]
        for name, value in summary.items():
            assert value == backprop_profile.feature(name)

    def test_unknown_feature_rejected(self, backprop_profile):
        with pytest.raises(DataError):
            backprop_profile.feature("bogus_counter")
