"""Span-tree lookups over a :class:`~repro.telemetry.TelemetrySnapshot`.

The library only renders and merges span trees; the tests address nodes
by path and compare whole trees as flat ``{"a/b/c": count}`` maps.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.telemetry import SpanSnapshot, TelemetrySnapshot


def find_span(snapshot: TelemetrySnapshot, path: str) -> Optional[SpanSnapshot]:
    """Span node at a ``/``-separated path from the root, or ``None``."""
    nodes = snapshot.spans
    found: Optional[SpanSnapshot] = None
    for part in path.split("/"):
        found = next((n for n in nodes if n.name == part), None)
        if found is None:
            return None
        nodes = found.children
    return found


def span_counts(snapshot: TelemetrySnapshot) -> Dict[str, int]:
    """Flat ``{"a/b/c": count}`` view of the whole span tree."""
    counts: Dict[str, int] = {}

    def visit(node: SpanSnapshot, prefix: str) -> None:
        path = f"{prefix}/{node.name}" if prefix else node.name
        counts[path] = counts.get(path, 0) + node.count
        for child in node.children:
            visit(child, path)

    for node in snapshot.spans:
        visit(node, "")
    return counts
