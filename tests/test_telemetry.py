"""Unit tests for the telemetry registry, snapshots and run reports."""

from __future__ import annotations

import json
import logging
import pickle
import threading

import numpy as np
import pytest

from repro.telemetry import (
    HistogramSummary,
    RunReport,
    Telemetry,
    TelemetrySnapshot,
    get_telemetry,
    set_telemetry,
    telemetry_session,
)
from repro.telemetry.report import RUN_REPORT_SCHEMA

from tests.oracles.telemetry import find_span, span_counts


class TestRegistry:
    def test_counters_accumulate(self):
        tel = Telemetry()
        tel.incr("a")
        tel.incr("a", 4)
        tel.incr("b", 2.5)
        snap = tel.snapshot()
        assert snap.counters == {"a": 5, "b": 2.5}

    def test_gauges_keep_latest_value(self):
        tel = Telemetry()
        tel.gauge("g", 1)
        tel.gauge("g", 9)
        assert tel.snapshot().gauges == {"g": 9.0}

    def test_histograms_summarize(self):
        tel = Telemetry()
        for value in (3.0, 1.0, 5.0):
            tel.observe("h", value)
        tel.observe_array("h", np.array([2.0, 10.0]))
        summary = tel.snapshot().histograms["h"]
        assert summary.count == 5
        assert summary.sum == pytest.approx(21.0)
        assert summary.min == 1.0 and summary.max == 10.0
        assert summary.mean == pytest.approx(4.2)

    def test_observe_array_of_nothing_is_a_no_op(self):
        tel = Telemetry()
        tel.observe_array("h", np.array([]))
        assert "h" not in tel.snapshot().histograms

    def test_spans_nest_and_aggregate(self):
        tel = Telemetry()
        for _ in range(3):
            with tel.span("outer"):
                with tel.span("inner"):
                    pass
        with tel.span("inner"):    # same name, different parent: distinct node
            pass
        counts = span_counts(tel.snapshot())
        assert counts == {"outer": 3, "outer/inner": 3, "inner": 1}

    def test_span_timing_is_monotonic_and_positive(self):
        tel = Telemetry()
        with tel.span("work"):
            sum(range(1000))
        node = find_span(tel.snapshot(), "work")
        assert node.count == 1
        assert 0.0 <= node.min_s <= node.total_s
        assert node.max_s <= node.total_s + 1e-12

    def test_reset_clears_everything(self):
        tel = Telemetry()
        tel.incr("a")
        with tel.span("s"):
            pass
        tel.reset()
        snap = tel.snapshot()
        assert not snap.counters and not snap.spans
        assert tel.enabled

    def test_disabled_registry_records_nothing(self):
        tel = Telemetry(enabled=False)
        tel.incr("a")
        tel.gauge("g", 1)
        tel.observe("h", 1.0)
        with tel.span("s"):
            pass
        snap = tel.snapshot()
        assert not snap.counters and not snap.gauges
        assert not snap.histograms and not snap.spans

    def test_thread_spans_attach_at_each_threads_stack(self):
        tel = Telemetry()
        barrier = threading.Barrier(4)

        def work(i):
            barrier.wait()
            for _ in range(50):
                with tel.span("thread"):
                    with tel.span("leaf"):
                        tel.incr("ticks")

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = tel.snapshot()
        assert snap.counters["ticks"] == 200
        assert span_counts(snap) == {"thread": 200, "thread/leaf": 200}


class TestActiveRegistry:
    def test_default_is_disabled(self):
        assert get_telemetry().enabled is False

    def test_session_installs_and_restores(self):
        before = get_telemetry()
        with telemetry_session() as tel:
            assert get_telemetry() is tel
            assert tel.enabled
        assert get_telemetry() is before

    def test_set_telemetry_none_restores_default(self):
        tel = Telemetry()
        previous = set_telemetry(tel)
        try:
            assert get_telemetry() is tel
        finally:
            set_telemetry(None)
        assert get_telemetry().enabled is False
        assert previous.enabled is False


class TestSnapshots:
    def test_snapshot_pickles(self):
        tel = Telemetry()
        tel.incr("c", 2)
        tel.observe("h", 1.5)
        with tel.span("a"):
            with tel.span("b"):
                pass
        snap = pickle.loads(pickle.dumps(tel.snapshot()))
        assert snap.counters == {"c": 2}
        assert span_counts(snap) == {"a": 1, "a/b": 1}

    def test_snapshot_is_a_frozen_copy(self):
        tel = Telemetry()
        tel.incr("c")
        snap = tel.snapshot()
        tel.incr("c")
        assert snap.counters == {"c": 1}

    def test_merge_semantics(self):
        a = TelemetrySnapshot(
            counters={"x": 1}, gauges={"g": 1.0},
            histograms={"h": HistogramSummary(count=1, sum=2.0, min=2.0, max=2.0)},
        )
        b = TelemetrySnapshot(
            counters={"x": 4, "y": 1}, gauges={"g": 9.0},
            histograms={"h": HistogramSummary(count=2, sum=8.0, min=1.0, max=7.0)},
        )
        merged = a.merge(b)
        assert merged.counters == {"x": 5, "y": 1}
        assert merged.gauges == {"g": 9.0}
        assert merged.histograms["h"] == HistogramSummary(
            count=3, sum=10.0, min=1.0, max=7.0
        )

    def test_merge_spans_by_name_preserving_order(self):
        def tree():
            tel = Telemetry()
            with tel.span("first"):
                with tel.span("leaf"):
                    pass
            with tel.span("second"):
                pass
            return tel.snapshot()

        merged = tree().merge(tree())
        assert [s.name for s in merged.spans] == ["first", "second"]
        assert span_counts(merged) == {"first": 2, "first/leaf": 2, "second": 2}

    def test_merge_is_associative_on_counts(self):
        def snap(n):
            tel = Telemetry()
            for _ in range(n):
                with tel.span("s"):
                    tel.incr("c")
            return tel.snapshot()

        a, b, c = snap(1), snap(2), snap(3)
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.counters == right.counters == {"c": 6}
        assert span_counts(left) == span_counts(right) == {"s": 6}

    def test_merge_snapshot_grafts_under_current_span(self):
        worker = Telemetry()
        with worker.span("sweep"):
            worker.incr("rows", 8)
        shipped = pickle.loads(pickle.dumps(worker.snapshot()))

        parent = Telemetry()
        with parent.span("campaign"):
            parent.merge_snapshot(shipped)
        counts = span_counts(parent.snapshot())
        assert counts == {"campaign": 1, "campaign/sweep": 1}
        assert parent.snapshot().counters == {"rows": 8}

    def test_merge_snapshot_none_is_a_no_op(self):
        parent = Telemetry()
        parent.merge_snapshot(None)
        assert parent.snapshot() == TelemetrySnapshot()

    def test_empty_snapshot_is_the_merge_identity(self):
        tel = Telemetry()
        tel.incr("c", 3)
        with tel.span("a"):
            pass
        snap = tel.snapshot()
        assert TelemetrySnapshot().merge(snap) == snap
        assert snap.merge(TelemetrySnapshot()) == snap
        assert find_span(TelemetrySnapshot(), "a") is None

class TestRunReport:
    def _sample_report(self):
        tel = Telemetry()
        with tel.span("campaign.run"):
            with tel.span("workload:bfs"):
                tel.incr("rows", 3)
        tel.observe("h", 4.0)
        tel.gauge("workers", 2)
        return RunReport.capture(tel)

    def test_environment_metadata(self):
        report = self._sample_report()
        env = report.environment
        assert env["python_version"].count(".") == 2
        assert env["numpy_version"] == np.__version__
        assert "git_sha" in env and "platform" in env

    def test_render_mentions_spans_and_metrics(self):
        text = self._sample_report().render()
        assert "campaign.run" in text
        assert "workload:bfs" in text
        assert "rows: 3" in text
        assert "workers: 2" in text

    def test_json_schema_is_stable_and_serializable(self):
        document = self._sample_report().to_json_dict()
        assert document["schema"] == RUN_REPORT_SCHEMA
        assert set(document) == {
            "schema", "environment", "counters", "gauges", "histograms", "spans",
        }
        span = document["spans"][0]
        assert set(span) == {"name", "count", "total_s", "min_s", "max_s", "children"}
        json.dumps(document)    # must be JSON-serializable as-is

    def test_write_json_roundtrip(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(self._sample_report().to_json_dict()))
        loaded = json.loads(path.read_text())
        assert loaded["counters"] == {"rows": 3}
        assert loaded["spans"][0]["name"] == "campaign.run"


class TestLoggingHierarchy:
    def test_root_logger_has_null_handler(self):
        import repro  # noqa: F401 — installs the handler on import

        root = logging.getLogger("repro")
        assert any(
            isinstance(handler, logging.NullHandler) for handler in root.handlers
        )

    def test_campaign_sweep_logs_start_and_finish(self, caplog):
        from repro.characterization.campaign import (
            CampaignConfig, CharacterizationCampaign,
        )

        config = CampaignConfig(
            workloads=("backprop",), trefp_values_s=(2.283,),
            temperatures_c=(50.0,), ue_trefp_values_s=(), ue_repetitions=0,
        )
        with caplog.at_level(logging.INFO, logger="repro.characterization.campaign"):
            CharacterizationCampaign(config=config, seed=3).run(
                include_ue_study=False
            )
        messages = [record.message for record in caplog.records]
        assert any("campaign starting" in message for message in messages)
        assert any("campaign finished" in message for message in messages)
