"""Run reports: environment-stamped telemetry renderers.

A :class:`RunReport` freezes one telemetry snapshot together with the
environment that produced it (python/numpy versions, platform, git sha)
and renders it two ways:

* :meth:`RunReport.render` — a human-readable span tree plus metric
  tables, for terminals and logs;
* :meth:`RunReport.to_json_dict` — a stable-schema JSON document
  (``schema`` is versioned; keys are emitted sorted) that CI uploads as
  a per-run artifact next to the benchmark JSON.
"""

from __future__ import annotations

import platform
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.telemetry.core import Telemetry, get_telemetry
from repro.telemetry.snapshot import SpanSnapshot, TelemetrySnapshot

#: Schema tag embedded in every JSON report; bump on breaking changes.
RUN_REPORT_SCHEMA = "repro.run_report/v1"

#: Per-PR benchmark artifact name — the single constant both
#: ``benchmarks/conftest.py`` and the CI workflow derive the default
#: artifact path from (the ``BENCH_REPORT_JSON`` env var still overrides).
BENCH_ARTIFACT_NAME = "BENCH_10.json"


def _git_sha() -> Optional[str]:
    """Current repository commit, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment_metadata() -> Dict[str, Optional[str]]:
    """The environment facts stamped on every report."""
    import numpy

    return {
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy_version": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "argv0": sys.argv[0] if sys.argv else None,
    }


def _format_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.0f}us"


@dataclass(frozen=True)
class RunReport:
    """One run's telemetry, stamped with the environment that produced it."""

    snapshot: TelemetrySnapshot
    environment: Dict[str, Optional[str]] = field(default_factory=dict)

    @classmethod
    def capture(cls, telemetry: Optional[Telemetry] = None) -> "RunReport":
        """Freeze the given (default: active) registry into a report."""
        registry = telemetry if telemetry is not None else get_telemetry()
        return cls(snapshot=registry.snapshot(), environment=environment_metadata())

    # -- renderers ---------------------------------------------------------
    def render(self) -> str:
        """Human-readable report: environment, span tree, metric tables."""
        lines = ["== run report =="]
        for key in sorted(self.environment):
            lines.append(f"  {key}: {self.environment[key]}")
        snapshot = self.snapshot
        if snapshot.spans:
            lines.append("-- spans (count, total, mean) --")
            for span in snapshot.spans:
                self._render_span(span, 1, lines)
        if snapshot.counters:
            lines.append("-- counters --")
            for name in sorted(snapshot.counters):
                lines.append(f"  {name}: {snapshot.counters[name]:g}")
        if snapshot.gauges:
            lines.append("-- gauges --")
            for name in sorted(snapshot.gauges):
                lines.append(f"  {name}: {snapshot.gauges[name]:g}")
        if snapshot.histograms:
            lines.append("-- histograms (count / mean / min..max) --")
            for name in sorted(snapshot.histograms):
                h = snapshot.histograms[name]
                lines.append(
                    f"  {name}: n={h.count} mean={h.mean:g} "
                    f"min={h.min:g} max={h.max:g}"
                )
        return "\n".join(lines)

    @staticmethod
    def _render_span(span: SpanSnapshot, depth: int, lines: List[str]) -> None:
        mean = span.total_s / span.count if span.count else 0.0
        lines.append(
            f"{'  ' * depth}{span.name}  x{span.count}  "
            f"{_format_seconds(span.total_s)}  (mean {_format_seconds(mean)})"
        )
        for child in span.children:
            RunReport._render_span(child, depth + 1, lines)

    def to_json_dict(self) -> Dict[str, Any]:
        """Stable-schema JSON document (see :data:`RUN_REPORT_SCHEMA`)."""
        snapshot = self.snapshot
        return {
            "schema": RUN_REPORT_SCHEMA,
            "environment": dict(sorted(self.environment.items())),
            "counters": dict(sorted(snapshot.counters.items())),
            "gauges": dict(sorted(snapshot.gauges.items())),
            "histograms": {
                name: snapshot.histograms[name].to_json_dict()
                for name in sorted(snapshot.histograms)
            },
            "spans": [span.to_json_dict() for span in snapshot.spans],
        }
