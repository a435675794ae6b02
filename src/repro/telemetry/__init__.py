"""Runtime telemetry: spans, counters and cross-process run reports.

The instrumentation layer behind every hot path of the reproduction —
the cell-array simulator, the statistical grid engine, campaigns
(sequential and parallel), dataset assembly and the ``ml/`` estimators.
See :mod:`repro.telemetry.core` for the registry semantics,
:mod:`repro.telemetry.snapshot` for the picklable merge types, and
:mod:`repro.telemetry.report` for rendering.

Typical use::

    from repro.telemetry import RunReport, telemetry_session

    with telemetry_session() as tel:
        result = campaign.run(parallel=4)
    print(RunReport.capture(tel).render())
"""

from repro.telemetry.core import (
    Telemetry,
    get_telemetry,
    set_telemetry,
    telemetry_session,
)
from repro.telemetry.report import (
    BENCH_ARTIFACT_NAME,
    RUN_REPORT_SCHEMA,
    RunReport,
    environment_metadata,
)
from repro.telemetry.snapshot import (
    HistogramSummary,
    SpanSnapshot,
    TelemetrySnapshot,
)

__all__ = [
    "Telemetry",
    "get_telemetry",
    "set_telemetry",
    "telemetry_session",
    "TelemetrySnapshot",
    "SpanSnapshot",
    "HistogramSummary",
    "RunReport",
    "environment_metadata",
    "RUN_REPORT_SCHEMA",
    "BENCH_ARTIFACT_NAME",
]
