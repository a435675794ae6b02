"""Pipeline benchmark: cold_campaign, accuracy_study and serve_mixed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` replays the whole pipeline once untraced and once with
benchmark-side spans around every layer (plus an in-library
``telemetry_session``) and reports the per-layer metrics.  Metric names,
units and bounds are in ``BENCHMARK.json`` and described in
``perfbench/metrics.json``.  The last line of standard output is the
JSON result; the full result (sample counts, environment, per-workload
details) is written under ``.perfbench_out/``.  ``--workload all`` runs
every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_campaign", "accuracy_study", "serve_mixed")
#: Percentiles tried, highest first, for the reported tail of a timing.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def declared_units(section: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def distribution(values: List[float]) -> Dict[str, Any]:
    """p50 plus the highest percentile with at least ten samples beyond it."""
    import numpy as np

    n = len(values)
    tail = next((q for q in TAIL_PERCENTILES if n * (100 - q) / 100 >= 10 - 1e-9), None)
    return {
        "n": n,
        "p50": float(np.percentile(values, 50)) if n else None,
        "p99": float(np.percentile(values, 99)) if n else None,
        "tail_percentile": tail,
        "tail": float(np.percentile(values, tail)) if tail is not None else None,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------
def timed_passes(seconds: float, one_pass: Callable[[], Tuple[float, List[str]]]
                 ) -> Tuple[List[float], int, List[str]]:
    """Repeat ``one_pass`` until its timed parts add up to ``seconds``."""
    durations: List[float] = []
    failed = 0
    messages: List[str] = []
    while sum(durations) < seconds or not durations:
        duration, errors = one_pass()
        durations.append(duration)
        if errors:
            failed += 1
            messages.extend(errors)
    return durations, failed, messages


def pass_metrics(setups: List[float], durations: List[float]) -> Dict[str, float]:
    dist = distribution(durations)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(durations),
        "peak_rss_mb": peak_rss_mb(),
        "requests_per_s": len(durations) / sum(durations),
        "latency_p50_ms": dist["p50"] * 1e3,
        "latency_p99_ms": dist["p99"] * 1e3,
    }


def run_cold_campaign(size: Any, seed: int, seconds: float) -> Dict[str, Any]:
    """Each pass in a fresh interpreter; its import of repro is the set-up."""
    import pipeline as p

    reports: List[Dict[str, Any]] = []

    def one_pass() -> Tuple[float, List[str]]:
        report = p.run_unit_subprocess(ROOT, "cold_campaign", size, seed)
        reports.append(report)
        if "unit_s" not in report:
            raise RuntimeError("; ".join(report["errors"]))
        return report["unit_s"], report["errors"]

    durations, failed, errors = timed_passes(seconds, one_pass)
    setups = [r["import_s"] for r in reports]
    metrics = pass_metrics(setups, durations)
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in reports)
    return {
        "metrics": metrics,
        "attempted": len(durations), "failed": failed, "errors": errors,
        "samples": {"setup_s": setups, "pass_s": durations,
                    "peak_rss_mb": [r["peak_rss_mb"] for r in reports]},
        "distributions": {"pass_s": distribution(durations)},
        "operation": "one train-from-scratch pass in a fresh process",
    }


def run_accuracy_study(size: Any, seed: int, seconds: float) -> Dict[str, Any]:
    """Set-ups alternate with passes, so both sample the whole run."""
    import pipeline as p

    reference = p.load_reference()
    setups: List[float] = []

    def setup() -> Any:
        start = time.perf_counter()
        datasets = p.accuracy_setup(size, seed)
        setups.append(time.perf_counter() - start)
        return datasets

    datasets = None

    def one_pass() -> Tuple[float, List[str]]:
        nonlocal datasets
        if len(setups) < size.setups:
            datasets = setup()
        start = time.perf_counter()
        reports = p.accuracy_unit(size, datasets)
        duration = time.perf_counter() - start
        return duration, p.check_accuracy(size, seed, reports, reference)

    durations, failed, errors = timed_passes(seconds, one_pass)
    while len(setups) < size.setups:
        setup()
    return {
        "metrics": pass_metrics(setups, durations),
        "attempted": len(durations), "failed": failed, "errors": errors,
        "samples": {"setup_s": setups, "pass_s": durations},
        "distributions": {"pass_s": distribution(durations)},
        "operation": "one Fig. 11/12 study pass",
    }


def run_serve_mixed(size: Any, seed: int, seconds: float) -> Dict[str, Any]:
    """One service lifetime of ``seconds``, served after the set-ups."""
    import numpy as np
    import pipeline as p

    scratch = p.scratch_dir(ROOT)
    setups: List[float] = []
    for _ in range(size.setups):
        start = time.perf_counter()
        setup = p.serve_setup(size, seed, scratch)
        setups.append(time.perf_counter() - start)
        if len(setups) < size.setups:
            setup.service.close()
    # Enough requests that the stream never runs dry within ``seconds``.
    count = max(size.unit_requests, int(seconds * 4000))
    stream = p.make_stream(size, seed, count, setup.hot)
    try:
        outcome = p.serve_unit(setup.service, stream, deadline_s=seconds)
        rss_mb = peak_rss_mb()
        errors, _replay = p.check_serve(setup, stream, outcome)
    finally:
        setup.service.close()
    latencies = outcome.latencies_s()
    blocks = outcome.block_durations_s(size.block_requests)
    kinds = stream.kinds[: outcome.issued]
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": float(np.median(blocks)),
            "peak_rss_mb": rss_mb,
            "requests_per_s": outcome.issued / outcome.busy_s(),
            "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "latency_p99_ms": float(np.percentile(latencies, 99)) * 1e3,
        },
        "attempted": outcome.issued, "failed": min(len(errors), outcome.issued),
        "errors": errors,
        "samples": {"setup_s": setups, "block_s": blocks.tolist()},
        "distributions": {
            "request_latency_s": distribution(latencies.tolist()),
            "block_s": distribution(blocks.tolist()),
        },
        "operation": "one predict request",
        "stream": {"requests": outcome.issued, "hot": kinds.count("hot"),
                   "cold": kinds.count("cold"), "clients": p.CLIENTS},
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------
def run_traced(size: Any, seed: int, workload: str) -> Dict[str, Any]:
    import numpy as np
    import pipeline as p
    from repro import RunReport, build_pue_dataset, build_wer_dataset, telemetry_session
    from tracing import SpanRecorder, instrument

    reference = p.load_reference()
    # The untraced reference runs in its own process, so this process's
    # traced pipeline starts, like it, with nothing profiled.
    untraced = p.run_unit_subprocess(ROOT, workload, size, seed)
    if "unit_s" not in untraced:
        raise RuntimeError("; ".join(untraced["errors"]))
    untraced_s = untraced["unit_s"]
    rec = SpanRecorder()
    phase_s: Dict[str, float] = {}
    with instrument(rec), telemetry_session() as telemetry:
        rec.phase = "cold_campaign"
        start = time.perf_counter()
        campaign, fitted = p.cold_unit(size, seed, rec)
        phase_s[rec.phase] = time.perf_counter() - start
        cold_errors = p.check_cold(size, seed, campaign, fitted, reference)
        with rec.span("characterization.sweep"):
            warm = p.run_campaign(size, seed)
        wer_rows = warm.num_wer_measurements

        rec.phase = "accuracy_study"
        datasets = (build_wer_dataset(campaign), build_pue_dataset(campaign))
        start = time.perf_counter()
        reports = p.accuracy_unit(size, datasets, rec)
        phase_s[rec.phase] = time.perf_counter() - start

        rec.phase = "serve_mixed"
        setup = p.start_service(size, seed, fitted, p.scratch_dir(ROOT))
        try:
            stream = p.make_stream(size, seed, size.unit_requests, setup.hot)
            start = time.perf_counter()
            outcome = p.serve_unit(setup.service, stream)
            phase_s[rec.phase] = time.perf_counter() - start
        finally:
            setup.service.close()
        run_report = RunReport.capture(telemetry).to_json_dict()

    serve_errors, replay_s = p.check_serve(setup, stream, outcome, replay=True)
    errors = (untraced["errors"] + cold_errors
              + p.check_accuracy(size, seed, reports, reference) + serve_errors)
    stats = setup.service.stats()
    latencies = outcome.latencies_s()
    kinds = stream.kinds[: outcome.issued]
    cached = np.array([r is not None and r.cached for r in outcome.responses], dtype=bool)
    cold = np.array([k == "cold" for k in kinds], dtype=bool)
    hits, misses = latencies[cached], latencies[~cached & ~cold]

    cold_phase, acc_phase = "cold_campaign", "accuracy_study"
    metrics = {
        "workloads.trace_s": rec.total_s("workloads.record_trace", cold_phase),
        "workloads.accesses": rec.count("workloads.accesses", cold_phase),
        "memsys.simulate_s": rec.total_s("memsys.simulate", cold_phase),
        "memsys.l2_misses": rec.count("memsys.l2_misses", cold_phase),
        "profiling.reuse_s": rec.total_s("profiling.reuse", cold_phase),
        "profiling.entropy_s": rec.total_s("profiling.entropy", cold_phase),
        "profiling.profile_s": rec.total_s("profiling.profile", cold_phase),
        "profiling.profile_self_s": rec.self_s("profiling.profile", cold_phase),
        "characterization.sweep_s": rec.total_s("characterization.sweep", cold_phase),
        "characterization.wer_rows": wer_rows,
        "core.dataset_s": rec.total_s("core.dataset", cold_phase),
        "core.fit_s": rec.total_s("core.fit", cold_phase),
        **{f"ml.fit_s.{family}": rec.total_s(f"ml.fit.{family}", acc_phase)
           for family in ("svm", "knn", "rdf")},
        "ml.predict_s": rec.total_s("ml.predict", acc_phase),
        "ml.fits": rec.count("ml.fits", acc_phase),
        "core.evaluation_s": rec.total_s("core.evaluation", acc_phase),
        "core.evaluation_self_s": rec.self_s("core.evaluation", acc_phase),
        "serving.hit_latency_p50_us": float(np.percentile(hits, 50)) * 1e6,
        "serving.miss_latency_p50_ms": float(np.percentile(misses, 50)) * 1e3,
        "serving.miss_latency_p99_ms": float(np.percentile(misses, 99)) * 1e3,
        "serving.cold_latency_ms": float(np.percentile(latencies[cold], 50)) * 1e3,
        "serving.hit_rate": stats.hit_rate,
        "serving.mean_batch_size": stats.predictions / stats.batches,
        "serving.batches": stats.batches,
        "core.predict1_ms": float(np.percentile(replay_s, 50)) * 1e3,
        "serving.registry_roundtrip_s": setup.roundtrip_s,
        "trace.overhead_ratio": phase_s[workload] / untraced_s,
    }
    trace = {
        "workload": workload, "seed": seed, "phase_s": phase_s,
        "untraced_s": untraced_s, **rec.to_json_dict(), "run_report": run_report,
    }
    return {
        "metrics": metrics,
        "attempted": 4 + outcome.issued, "failed": min(len(errors), 4 + outcome.issued),
        "errors": errors,
        "distributions": {
            "serving.hit_latency_s": distribution(hits.tolist()),
            "serving.miss_latency_s": distribution(misses.tolist()),
            "serving.cold_latency_s": distribution(latencies[cold].tolist()),
            "core.predict1_s": distribution(replay_s),
        },
        "operation": "the cold_campaign, accuracy_study and serve_mixed units, once each",
        "trace": trace,
    }


# ---------------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> int:
    """Run each workload in its own process and summarise."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size]
        completed = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"{workload}: exited with {completed.returncode}", file=sys.stderr)
            return completed.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: {src}/repro not found; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    import pipeline as p
    from repro.telemetry import environment_metadata

    size = p.SIZES[args.size]
    if args.trace:
        result = run_traced(size, args.seed, args.workload)
        section = "per_layer"
    else:
        runner = {"cold_campaign": run_cold_campaign, "accuracy_study": run_accuracy_study,
                  "serve_mixed": run_serve_mixed}[args.workload]
        result = runner(size, args.seed, args.seconds)
        section = "end_to_end"

    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in declared_units(section).items()}
    summary = {
        "correct": result["failed"] == 0, "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    }
    out = p.scratch_dir(ROOT)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    trace = result.pop("trace", None)
    if trace is not None:
        trace["environment"] = environment_metadata()
        with open(out / f"trace-{stem}.json", "w", encoding="utf-8") as handle:
            json.dump(trace, handle, indent=1, sort_keys=True)
    detail = {
        **summary, **{k: v for k, v in result.items() if k not in ("metrics", "attempted", "failed")},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "campaign_seed": p.campaign_seed(args.seed),
        "environment": environment_metadata(), "nproc": p.nproc(), "clients": p.CLIENTS,
    }
    with open(out / f"result-{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1, sort_keys=True)

    for message in result["errors"]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} attempted={summary['attempted']} "
          f"failed={summary['failed']}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
