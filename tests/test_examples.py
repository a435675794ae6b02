"""Smoke tests: every example script must run end to end, in-process.

Each example is imported from ``examples/`` and its module-level size
knobs (workload tuples) are monkeypatched down so the whole set stays in
tier-1 time budgets.  The scripts print their findings; here we only
assert they complete and produce output.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: example module -> attributes shrunk before main() runs
REDUCTIONS = {
    "quickstart": {
        "WORKLOADS": ("backprop", "kmeans", "memcached", "bfs"),
    },
    "refresh_energy_tradeoff": {
        "WORKLOADS": ("memcached", "backprop", "kmeans", "bfs"),
    },
    "compiler_optimization_study": {
        "campaign_workload_names": lambda: ("backprop", "kmeans", "bfs"),
    },
    "prediction_service_demo": {
        "WORKLOADS": ("backprop", "kmeans", "memcached", "bfs"),
        "TREFPS": (1.173, 2.283),
        "TEMPERATURES": (50.0, 60.0),
    },
}


def _load_example(name):
    spec = importlib.util.spec_from_file_location(
        f"examples_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return module


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_example_runs(name, capsys, monkeypatch):
    module = _load_example(name)
    for attribute, value in REDUCTIONS[name].items():
        monkeypatch.setattr(module, attribute, value)
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"{name} printed nothing"
    assert "Traceback" not in out
