"""Smoke tests of the pipeline benchmark, at the tiny ``--size smoke``.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = ("cold_campaign", "accuracy_study", "serve_mixed")
#: Counts later claims rest on: they must repeat exactly for a seed.
EXACT_COUNTS = ("workloads.accesses", "memsys.l2_misses", "characterization.wer_rows",
                "ml.fits", "serving.batches")

sys.path.insert(0, str(HERE))
from run import distribution  # noqa: E402


def benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def names(section: str) -> list:
    return [metric["name"] for metric in benchmark()[section]]


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT
              ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def result(completed: subprocess.CompletedProcess) -> Dict[str, Any]:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


_CACHE: Dict[Any, Dict[str, Any]] = {}


def cached(workload: str, trace: int, seed: int = 3) -> Dict[str, Any]:
    key = (workload, trace, seed)
    if key not in _CACHE:
        _CACHE[key] = result(run_bench(workload, trace, seed))
    return _CACHE[key]


# ---------------------------------------------------------------------------
def test_declared_metrics_fit_the_limits() -> None:
    spec = benchmark()
    end_to_end, per_layer = names("end_to_end"), names("per_layer")
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)
    assert all(NAME.match(name) for name in end_to_end + per_layer)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_catalogue_matches_benchmark_json() -> None:
    catalogue = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
    assert list(catalogue["end_to_end"]) == names("end_to_end")
    assert list(catalogue["per_layer"]) == names("per_layer")
    assert list(catalogue["workloads"]) == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload: str) -> None:
    out = cached(workload, 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == names("end_to_end")
    assert all(metric["value"] > 0 for metric in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload: str) -> None:
    out = cached(workload, 1)
    assert out["correct"] and out["failed"] == 0
    assert list(out["metrics"]) == names("per_layer")
    assert all(metric["value"] > 0 for metric in out["metrics"].values())
    trace = ROOT / ".perfbench_out" / f"trace-{workload}-seed3-trace1-smoke.json"
    document = json.loads(trace.read_text(encoding="utf-8"))
    assert document["spans"] and document["run_report"]["schema"] == "repro.run_report/v1"


def test_counts_repeat_exactly_for_a_seed() -> None:
    first = cached("cold_campaign", 1)["metrics"]
    again = result(run_bench("cold_campaign", 1))["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == again[name]["value"], name


def test_bare_directory_fails_without_a_result() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        completed = run_bench("cold_campaign", 0, cwd=bare)
        assert completed.returncode != 0
        assert '"metrics"' not in completed.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_distribution_reports_the_qualifying_tail() -> None:
    assert distribution([1.0] * 9)["tail_percentile"] is None
    assert distribution([1.0] * 40)["tail_percentile"] == 75.0
    assert distribution([1.0] * 1000)["tail_percentile"] == 99.0
    assert distribution([1.0] * 10000)["tail_percentile"] == 99.9
