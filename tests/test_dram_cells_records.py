"""Tests for the cell-array cross-check oracle and its ECC error log."""

from collections import Counter

import pytest

from repro.dram.calibration import (
    DramCalibration,
    RetentionCalibration,
    UeCalibration,
    WorkloadEffectCalibration,
)
from repro.dram.ecc import ErrorClass
from repro.dram.geometry import DramGeometry, RankLocation
from repro.errors import ConfigurationError, SimulationError

from tests.oracles.cells import (
    CellArrayConfig,
    CellArraySimulator,
    CellLocation,
    ErrorLog,
    ErrorRecord,
    cell_from_word_index,
    small_geometry,
)


def weak_calibration() -> DramCalibration:
    """A deliberately leaky cell population so tiny arrays show errors."""
    return DramCalibration(
        retention=RetentionCalibration(log_median_retention_50c=4.0, log_sigma=1.2),
        workload=WorkloadEffectCalibration(),
        ue=UeCalibration(),
    )


def tiny_simulator(trefp_s=2.283, temperature_c=70.0, seed=3) -> CellArraySimulator:
    config = CellArrayConfig(
        geometry=small_geometry(),
        trefp_s=trefp_s,
        temperature_c=temperature_c,
        calibration=weak_calibration(),
        seed=seed,
    )
    return CellArraySimulator(config)


class TestCellArraySimulator:
    def test_write_then_immediate_read_is_clean(self):
        sim = tiny_simulator()
        location = cell_from_word_index(sim.geometry, 0)
        sim.write(location, 0xCAFEBABE)
        result = sim.read(location)
        assert result.error_class is ErrorClass.NO_ERROR

    def test_reading_unwritten_word_raises(self):
        sim = tiny_simulator()
        with pytest.raises(SimulationError):
            sim.read(cell_from_word_index(sim.geometry, 5))

    def test_long_idle_under_relaxed_refresh_produces_errors(self):
        sim = tiny_simulator(trefp_s=2.283, temperature_c=70.0)
        locations = sim.fill([0xFFFFFFFFFFFFFFFF] * 2000)
        sim.idle(600.0)
        counts = sim.sweep_read(locations)
        total_errors = sum(counts.values())
        assert total_errors > 0
        assert len(sim.error_log) == total_errors

    def test_nominal_refresh_is_clean(self):
        # With the realistic (default) retention population, the nominal 64 ms
        # refresh period leaves no cell anywhere near its retention limit.
        config = CellArrayConfig(geometry=small_geometry(), trefp_s=0.064,
                                 temperature_c=50.0, seed=3)
        sim = CellArraySimulator(config)
        locations = sim.fill([0xFFFFFFFFFFFFFFFF] * 1500)
        sim.idle(600.0)
        counts = sim.sweep_read(locations)
        assert sum(counts.values()) == 0

    def test_longer_refresh_period_produces_more_errors(self):
        short = tiny_simulator(trefp_s=0.618, temperature_c=50.0, seed=9)
        long = tiny_simulator(trefp_s=2.283, temperature_c=50.0, seed=9)
        pattern = [0xAAAAAAAAAAAAAAAA] * 2500
        for sim in (short, long):
            locations = sim.fill(list(pattern))
            sim.idle(600.0)
            sim.sweep_read(locations)
        assert len(long.error_log) > 2 * len(short.error_log)

    def test_all_zero_data_hides_decay_to_zero(self):
        # Cells whose discharge polarity matches the stored bit cannot flip:
        # a solid pattern therefore shows fewer errors than a dense pattern.
        solid = tiny_simulator(temperature_c=50.0, seed=21)
        dense = tiny_simulator(temperature_c=50.0, seed=21)
        locations = solid.fill([0x0] * 2500)
        solid.idle(600.0)
        solid.sweep_read(locations)
        locations = dense.fill([0xFFFFFFFFFFFFFFFF] * 2500)
        dense.idle(600.0)
        dense.sweep_read(locations)
        assert len(solid.error_log) < len(dense.error_log)

    def test_rewriting_clears_history(self):
        sim = tiny_simulator()
        location = cell_from_word_index(sim.geometry, 3)
        sim.write(location, 123)
        sim.idle(3000.0)
        sim.write(location, 456)   # rewrite recharges everything
        result = sim.read(location)
        assert result.error_class is ErrorClass.NO_ERROR
        assert int(sum(int(b) << i for i, b in enumerate(result.data))) == 456

    def test_measured_wer_counts_unique_words(self):
        sim = tiny_simulator()
        locations = sim.fill([0xFFFFFFFFFFFFFFFF] * 2000)
        sim.idle(600.0)
        sim.sweep_read(locations)
        sim.sweep_read(locations)   # re-reading must not double count
        unique = len(sim.error_log.unique_word_locations(ErrorClass.CORRECTED))
        assert sim.measured_wer(2000) == pytest.approx(unique / 2000)

    def test_oversized_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            CellArraySimulator(CellArrayConfig(geometry=DramGeometry()))

    def test_time_cannot_go_backwards(self):
        sim = tiny_simulator()
        with pytest.raises(SimulationError):
            sim.advance_time(-1.0)


class TestBatchCellOps:
    def test_batch_and_scalar_loops_agree_without_interference(self):
        """With row hammer off, a burst is exactly a loop of scalar accesses."""
        def build():
            config = CellArrayConfig(
                geometry=small_geometry(), trefp_s=2.283, temperature_c=70.0,
                interference_strength=0.0, calibration=weak_calibration(), seed=13,
            )
            return CellArraySimulator(config)

        values = [0xFFFFFFFFFFFFFFFF ^ i for i in range(600)]
        batch_sim, scalar_sim = build(), build()

        locations = batch_sim.fill(list(values))
        batch_sim.idle(600.0)
        sweep = batch_sim.read_batch(locations, workload="batch")

        for i, value in enumerate(values):
            scalar_sim.write(cell_from_word_index(scalar_sim.geometry, i), value)
        scalar_sim.idle(600.0)
        scalar_results = [
            scalar_sim.read(location, workload="scalar") for location in locations
        ]

        assert sum(sweep.counts().values()) == 600
        for i, scalar in enumerate(scalar_results):
            batch_word = sweep.decode.result(i)
            assert batch_word.error_class is scalar.error_class, f"word {i}"
            assert (batch_word.data == scalar.data).all(), f"word {i}"
        assert len(batch_sim.error_log) == len(scalar_sim.error_log)

    def test_duplicate_locations_rejected(self):
        sim = tiny_simulator()
        location = cell_from_word_index(sim.geometry, 0)
        with pytest.raises(ConfigurationError):
            sim.write_batch([location, location], [1, 2])
        sim.write(location, 1)
        with pytest.raises(ConfigurationError):
            sim.read_batch([location, location])

    def test_batch_read_of_unwritten_word_raises(self):
        sim = tiny_simulator()
        written = cell_from_word_index(sim.geometry, 0)
        unwritten = cell_from_word_index(sim.geometry, 1)
        sim.write(written, 7)
        with pytest.raises(SimulationError):
            sim.read_batch([written, unwritten])

    def test_write_batch_length_mismatch_rejected(self):
        sim = tiny_simulator()
        with pytest.raises(ConfigurationError):
            sim.write_batch([cell_from_word_index(sim.geometry, 0)], [1, 2])

    def test_write_batch_rejects_out_of_range_data(self):
        sim = tiny_simulator()
        location = cell_from_word_index(sim.geometry, 0)
        with pytest.raises(ConfigurationError):
            sim.write_batch([location], [2 ** 64])
        with pytest.raises(ConfigurationError):
            sim.write(location, -1)
        with pytest.raises(ConfigurationError):
            sim.write(location, 1.5)

    def test_batch_read_codes_name_the_logged_locations(self):
        sim = tiny_simulator()
        locations = sim.fill([0xFFFFFFFFFFFFFFFF] * 1000)
        sim.idle(600.0)
        sweep = sim.read_batch(locations, workload="wl")
        errored = [loc for loc, code in zip(locations, sweep.decode.error_codes) if code]
        assert len(errored) == sum(
            count for cls, count in sweep.counts().items() if cls is not ErrorClass.NO_ERROR
        )
        assert errored == [record.location for record in sim.error_log]

class TestErrorLog:
    def test_unique_word_locations_deduplicates(self):
        log = ErrorLog()
        log.append_batch([ErrorClass.CORRECTED], [CellLocation(0, 0, 0, 1, 0)], 1.0)
        log.append_batch([ErrorClass.CORRECTED], [CellLocation(0, 0, 0, 1, 0)], 2.0)
        log.append_batch([ErrorClass.CORRECTED], [CellLocation(0, 0, 0, 2, 0)], 3.0)
        assert len(log.unique_word_locations(ErrorClass.CORRECTED)) == 2

    def test_unique_words_are_distinct_across_ranks(self):
        log = ErrorLog()
        log.append_batch(
            [ErrorClass.CORRECTED] * 3,
            [CellLocation(0, 0, 0, 1, 0), CellLocation(2, 1, 0, 1, 0),
             CellLocation(2, 1, 0, 2, 0)],
            timestamp_s=1.0,
        )
        by_rank = Counter(loc.rank_location for loc in log.unique_word_locations())
        assert by_rank == {RankLocation(0, 0): 1, RankLocation(2, 1): 2}

    def test_unique_locations_filter_by_class(self):
        log = ErrorLog()
        log.append_batch([ErrorClass.UNCORRECTABLE], [CellLocation(0, 0, 0, 7, 0)], 9.0)
        log.append_batch([ErrorClass.UNCORRECTABLE], [CellLocation(0, 0, 0, 3, 0)], 4.0)
        assert log.unique_word_locations(ErrorClass.CORRECTED) == set()
        assert log.unique_word_locations(ErrorClass.UNCORRECTABLE) == {
            CellLocation(0, 0, 0, 7, 0), CellLocation(0, 0, 0, 3, 0)
        }
        assert [record.timestamp_s for record in log] == [9.0, 4.0]

    def test_records_keep_append_order_and_timestamps(self):
        log = ErrorLog()
        for i, t in enumerate([100.0, 700.0, 1300.0, 1400.0]):
            log.append_batch([ErrorClass.CORRECTED], [CellLocation(0, 0, 0, i, 0)], t)
        assert [record.timestamp_s for record in log] == [100.0, 700.0, 1300.0, 1400.0]
        assert [record.location.row for record in log] == [0, 1, 2, 3]

    def test_records_group_by_rank(self):
        log = ErrorLog()
        log.append_batch(
            [ErrorClass.CORRECTED, ErrorClass.CORRECTED, ErrorClass.SILENT],
            [CellLocation(1, 0, 0, 0, 0), CellLocation(1, 0, 0, 3, 0),
             CellLocation(0, 1, 0, 0, 0)],
            timestamp_s=2.0,
        )
        corrected = Counter(
            record.rank_location for record in log
            if record.error_class is ErrorClass.CORRECTED
        )
        assert corrected == {RankLocation(1, 0): 2}

    def test_no_error_record_for_clean_reads(self):
        with pytest.raises(ConfigurationError):
            ErrorRecord(ErrorClass.NO_ERROR, CellLocation(0, 0, 0, 0, 0), 0.0)

    def test_append_batch_matches_per_record_appends(self):
        log = ErrorLog()
        classes = [ErrorClass.CORRECTED, ErrorClass.UNCORRECTABLE, ErrorClass.CORRECTED]
        locations = [CellLocation(0, 0, 0, i, 0) for i in range(3)]
        log.append_batch(classes, locations, timestamp_s=5.0, workload="wl")
        assert list(log) == [
            ErrorRecord(cls, loc, 5.0, "wl") for cls, loc in zip(classes, locations)
        ]

    def test_append_batch_validates_like_error_record(self):
        log = ErrorLog()
        location = CellLocation(0, 0, 0, 0, 0)
        with pytest.raises(ConfigurationError):
            log.append_batch([ErrorClass.NO_ERROR], [location], timestamp_s=1.0)
        with pytest.raises(ConfigurationError):
            log.append_batch([ErrorClass.CORRECTED], [location], timestamp_s=-1.0)
        with pytest.raises(ConfigurationError):
            log.append_batch([ErrorClass.CORRECTED], [location, location], 1.0)
        assert len(log) == 0

    def test_unique_word_query_stays_correct_as_log_grows(self):
        log = ErrorLog()
        assert log.unique_word_locations() == set()
        log.append_batch([ErrorClass.CORRECTED], [CellLocation(0, 0, 0, 0, 0)], 1.0)
        assert len(log.unique_word_locations()) == 1
        log.append_batch(
            [ErrorClass.CORRECTED, ErrorClass.UNCORRECTABLE],
            [CellLocation(0, 0, 0, 1, 0), CellLocation(0, 0, 0, 2, 0)],
            timestamp_s=2.0, workload="wl",
        )
        assert len(log.unique_word_locations(ErrorClass.CORRECTED)) == 2
        assert len(log.unique_word_locations(ErrorClass.UNCORRECTABLE)) == 1
        assert len(log) == 3

    def test_append_after_iteration_rebuilds_records(self):
        # Iterating materialises the record cache; a later append must
        # drop it, or the next iteration would serve the stale records.
        log = ErrorLog()
        log.append_batch([ErrorClass.UNCORRECTABLE], [CellLocation(0, 0, 0, 0, 0)], 1.0)
        assert [r.error_class for r in log] == [ErrorClass.UNCORRECTABLE]
        log.append_batch([ErrorClass.CORRECTED], [CellLocation(0, 0, 0, 1, 0)], 2.0)
        assert [r.error_class for r in log] == [
            ErrorClass.UNCORRECTABLE, ErrorClass.CORRECTED
        ]

    def test_interleaved_appends_and_queries_stay_consistent(self):
        log = ErrorLog()
        log.append_batch([ErrorClass.CORRECTED], [CellLocation(0, 0, 0, 0, 0)], 1.0)
        assert len(list(log)) == 1            # materialises the cache
        log.append_batch(
            [ErrorClass.CORRECTED, ErrorClass.UNCORRECTABLE],
            [CellLocation(0, 0, 0, 1, 0), CellLocation(0, 0, 0, 2, 0)],
            timestamp_s=3.0, workload="wl",
        )
        assert [record.timestamp_s for record in log] == [1.0, 3.0, 3.0]


class TestSaturatedSweepLogging:
    """The columnar batch logging path under dense (near-saturated) errors."""

    def _saturated_simulator(self, seed=3, interference_strength=2e-4):
        # An extremely leaky population: after a long idle at 70 C almost
        # every word of a dense pattern errors, so error logging — not
        # decoding — dominates the sweep.
        config = CellArrayConfig(
            geometry=small_geometry(), trefp_s=2.283, temperature_c=70.0,
            interference_strength=interference_strength,
            calibration=DramCalibration(
                retention=RetentionCalibration(log_median_retention_50c=2.0,
                                               log_sigma=1.0)
            ),
            seed=seed,
        )
        return CellArraySimulator(config)

    def test_dense_error_sweep_logs_every_event(self):
        sim = self._saturated_simulator()
        locations = sim.fill([0xFFFFFFFFFFFFFFFF] * 4000)
        sim.idle(3600.0)
        sweep = sim.read_batch(locations, workload="saturated")
        errors = sum(
            count for cls, count in sweep.counts().items()
            if cls is not ErrorClass.NO_ERROR
        )
        # Saturation: the vast majority of words must have errored.
        assert errors > 3000
        assert len(sim.error_log) == errors
        errored = {
            location
            for location, code in zip(locations, sweep.decode.error_codes)
            if code
        }
        assert errored == {record.location for record in sim.error_log}
        # Per-class tallies of the log match the decode classification.
        for cls in (ErrorClass.CORRECTED, ErrorClass.UNCORRECTABLE, ErrorClass.SILENT):
            logged = sum(record.error_class is cls for record in sim.error_log)
            assert logged == sweep.counts()[cls]
        assert all(record.workload == "saturated" for record in sim.error_log)

    def test_dense_sweep_matches_scalar_logging_exactly(self):
        # Row hammer off: a burst is then exactly a loop of scalar reads, so
        # the batch-logged events must match the per-word path one to one.
        batch_sim = self._saturated_simulator(seed=17, interference_strength=0.0)
        scalar_sim = self._saturated_simulator(seed=17, interference_strength=0.0)
        values = [0xFFFFFFFFFFFFFFFF] * 800
        locations = batch_sim.fill(list(values))
        batch_sim.idle(3600.0)
        batch_sim.read_batch(locations, workload="wl")

        scalar_sim.fill(list(values))
        scalar_sim.idle(3600.0)
        for location in locations:
            scalar_sim.read(location, workload="wl")

        batch_records = [(r.location, r.error_class) for r in batch_sim.error_log]
        scalar_records = [(r.location, r.error_class) for r in scalar_sim.error_log]
        assert batch_records == scalar_records
        assert len(batch_sim.error_log) > 500    # the sweep really is dense
