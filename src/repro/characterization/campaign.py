"""Characterization campaigns: the parameter sweeps of Section V.

A campaign runs every benchmark under a grid of refresh periods and
temperatures (always with the lowered VDD), collects per-rank WER
measurements and — for the 70 C points — repeats each run several times
to estimate PUE.  The result object offers the aggregations every figure
of the evaluation needs.

Grid engine
-----------
Both sweeps hand each workload's whole operating-point grid to
:meth:`CharacterizationExperiment.run_grid_columns` in one call, so the
expected-WER surface, run-to-run noise, maturity scaling and UE sampling
are evaluated as array operations instead of per-run Python work, and
the sampled surfaces stream straight into columnar
:class:`~repro.characterization.metrics.WerColumnStore` blocks — no
per-run ``ExperimentResult`` objects are built during a sweep.  The
scalar-vs-batch contract: a grid cell is bit-identical to the scalar
``experiment.run`` call with the same seed and repetition index (the
scalar path *is* a one-point grid), and
``tests/test_campaign_grid.py`` pins that equivalence plus
campaign-level determinism.  ``benchmarks/test_campaign_throughput.py``
pins the speedup floor of the batched sweep over the scalar loop.

Sweep unit
----------
Each workload's sweep is independent, so a campaign is a map over
picklable :class:`WorkloadSweepSpec` grid specs, one per workload.
``run()`` maps them in-process; ``run(parallel=n)`` maps the same specs
over an ``n``-worker ``concurrent.futures`` process pool.  Either way the
parent merges the returned columnar blocks in workload order, so the
result is bit-identical for any worker count (pinned by
``tests/test_campaign_parallel.py``).  :class:`CampaignResult` holds the
merged blocks as its one :class:`WerColumnStore`.

Telemetry
---------
When the active :mod:`repro.telemetry` registry is enabled, campaigns
record a span tree (``campaign.run`` -> ``campaign.wer_sweep`` /
``campaign.ue_sweep`` -> ``workload:<name>`` -> the experiment/model
spans) plus row counters.  In-process sweeps record into the active
registry; pool workers capture their own registry and ship a picklable
snapshot home in the sweep outcome, which the parent merges in workload
order, so both paths produce the same span tree.  The default registry
is a no-op, and enabling telemetry never changes results
(``tests/test_telemetry_equivalence.py``).
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.characterization.experiment import CharacterizationExperiment, GridColumns
from repro.characterization.metrics import (
    PueSummary,
    UeObservation,
    WerColumnStore,
    rank_ue_distribution,
)
from repro.characterization.server import XGene2Server
from repro.dram.geometry import RankLocation
from repro.dram.operating import OperatingPoint
from repro.errors import CharacterizationError
from repro.profiling.profiler import profile_workload
from repro.telemetry import (
    Telemetry,
    TelemetrySnapshot,
    get_telemetry,
    set_telemetry,
)
from repro.workloads.registry import campaign_workload_names

logger = logging.getLogger("repro.characterization.campaign")


@dataclass(frozen=True)
class CampaignConfig:
    """What to sweep and how often to repeat."""

    workloads: Tuple[str, ...] = ()
    trefp_values_s: Tuple[float, ...] = units.TREFP_SWEEP_S
    temperatures_c: Tuple[float, ...] = (50.0, 60.0)
    vdd_v: float = units.MIN_VDD_V
    repetitions: int = 1
    ue_trefp_values_s: Tuple[float, ...] = units.TREFP_UE_SWEEP_S
    ue_temperature_c: float = 70.0
    ue_repetitions: int = 10

    def resolved_workloads(self) -> Tuple[str, ...]:
        return self.workloads or tuple(campaign_workload_names())

    def wer_operating_points(self) -> List[OperatingPoint]:
        """The CE study's grid: temperature-major, TREFP-minor, lowered VDD.

        Single source of the sweep order — the campaign, the grid engine
        callers and the throughput benchmark must all iterate the same
        points in the same sequence.
        """
        return [
            OperatingPoint(
                trefp_s=trefp, vdd_v=self.vdd_v, temperature_c=temperature
            )
            for temperature in self.temperatures_c
            for trefp in self.trefp_values_s
        ]

    def ue_operating_points(self) -> List[OperatingPoint]:
        """The UE study's grid: the 70 C points, one per UE TREFP value."""
        return [
            OperatingPoint(
                trefp_s=trefp, vdd_v=self.vdd_v,
                temperature_c=self.ue_temperature_c,
            )
            for trefp in self.ue_trefp_values_s
        ]


class CampaignResult:
    """All measurements of one campaign, with the aggregations the figures use.

    The WER record is one columnar :class:`WerColumnStore`: sweeps merge
    their blocks into it via :meth:`extend_wer_columns`.
    """

    def __init__(
        self,
        config: CampaignConfig,
        pue_summaries: Optional[List[PueSummary]] = None,
    ) -> None:
        self.config = config
        self.pue_summaries: List[PueSummary] = (
            pue_summaries if pue_summaries is not None else []
        )
        self._wer_store = WerColumnStore.empty()

    @property
    def num_wer_measurements(self) -> int:
        """Number of per-rank WER measurements."""
        return len(self._wer_store)

    def wer_columns(self) -> WerColumnStore:
        """The columnar WER record backing every aggregation."""
        return self._wer_store

    def extend_wer_columns(self, blocks: Sequence[WerColumnStore]) -> None:
        """Append columnar measurement blocks to the WER record."""
        blocks = [block for block in blocks if len(block)]
        if blocks:
            self._wer_store = WerColumnStore.concat([self._wer_store, *blocks])

    # -- WER aggregations ------------------------------------------------------
    def wer_by_workload(self, trefp_s: float, temperature_c: float) -> Dict[str, float]:
        """Memory-wide WER per workload at one operating point (Fig. 7a-e bars).

        Raises :class:`CharacterizationError` when the operating point has
        no measurements.
        """
        return self.wer_columns().mean_wer_by_workload(trefp_s, temperature_c)

    def wer_by_rank(self, trefp_s: float, temperature_c: float) -> Dict[str, Dict[RankLocation, float]]:
        """Per-workload, per-rank WER (Fig. 8).

        Raises :class:`CharacterizationError` when the operating point has
        no measurements — the same contract as :meth:`wer_by_workload`
        (it used to return ``{}`` silently).
        """
        return self.wer_columns().mean_wer_by_workload_rank(trefp_s, temperature_c)

    def mean_wer(self, trefp_s: float, temperature_c: float) -> float:
        """WER averaged over all benchmarks at one operating point (Fig. 7f)."""
        per_workload = self.wer_by_workload(trefp_s, temperature_c)
        return float(np.mean(list(per_workload.values())))

    # -- PUE aggregations ------------------------------------------------------
    def pue_by_workload(self, trefp_s: float) -> Dict[str, float]:
        """PUE per workload at one refresh period of the 70 C study (Fig. 9a)."""
        result = {}
        for summary in self.pue_summaries:
            if _close(summary.trefp_s, trefp_s):
                result[summary.workload] = summary.pue
        if not result:
            raise CharacterizationError(f"no UE observations at TREFP={trefp_s}s")
        return result

    def mean_pue(self, trefp_s: float) -> float:
        per_workload = self.pue_by_workload(trefp_s)
        return float(np.mean(list(per_workload.values())))

    def ue_rank_distribution(self) -> Dict[RankLocation, float]:
        """Fig. 9b: probability a UE lands on each DIMM/rank."""
        return rank_ue_distribution(self.pue_summaries)


def _close(a: float, b: float, tolerance: float = 1e-9) -> bool:
    return abs(a - b) <= tolerance


def _grid_pue_summaries(grid: GridColumns) -> List[PueSummary]:
    """Reduce a UE-study grid to one :class:`PueSummary` per operating point."""
    summaries = []
    for op, events in zip(grid.ops, grid.ue_ranks):
        summary = PueSummary(
            workload=grid.workload, trefp_s=op.trefp_s,
            temperature_c=op.temperature_c,
        )
        for ue_rank in events:
            summary.add(UeObservation(
                workload=grid.workload, trefp_s=op.trefp_s,
                temperature_c=op.temperature_c,
                crashed=ue_rank is not None, rank=ue_rank,
            ))
        summaries.append(summary)
    return summaries


@dataclass(frozen=True, eq=False)
class WorkloadSweepSpec:
    """Picklable description of one workload's share of a campaign.

    This is the unit a campaign maps, in-process or over the process
    pool: everything needed to sweep one workload — the server model
    (cheap to pickle), the experiment seed and the two operating-point
    grids.
    """

    workload: str
    seed: int
    server: XGene2Server
    wer_ops: Tuple[OperatingPoint, ...]
    wer_repetitions: int
    ue_ops: Tuple[OperatingPoint, ...]
    ue_repetitions: int
    #: pool workers capture telemetry and ship a snapshot back
    telemetry: bool = False


@dataclass
class WorkloadSweepOutcome:
    """Columnar blocks of one workload's sweep: CE rows, UE rows, summaries.

    ``telemetry`` carries a pool worker's picklable snapshot when the
    spec requested capture; the parent merges outcomes in workload order,
    so the merged span tree matches the in-process one.
    """

    workload: str
    wer_block: Optional[WerColumnStore]
    ue_block: Optional[WerColumnStore]
    pue_summaries: List[PueSummary]
    telemetry: Optional[TelemetrySnapshot] = None


def _sweep_workload(spec: WorkloadSweepSpec) -> WorkloadSweepOutcome:
    """One workload's full sweep, returned columnar.

    Records spans into the active telemetry registry under
    ``campaign.wer_sweep`` / ``campaign.ue_sweep`` -> ``workload:<name>``.
    Workload sweeps consume independent keyed RNG streams, so a fresh
    experiment around the spec's server reproduces the same blocks in any
    process and in any workload order.
    """
    telemetry = get_telemetry()
    experiment = CharacterizationExperiment(server=spec.server, seed=spec.seed)
    profile = profile_workload(spec.workload)
    wer_block: Optional[WerColumnStore] = None
    ue_block: Optional[WerColumnStore] = None
    summaries: List[PueSummary] = []
    if spec.wer_ops:
        with telemetry.span("campaign.wer_sweep"):
            with telemetry.span(f"workload:{spec.workload}"):
                wer_block = experiment.run_grid_columns(
                    spec.workload, spec.wer_ops,
                    repetitions=spec.wer_repetitions, profile=profile,
                ).wer_block()
    if spec.ue_ops:
        with telemetry.span("campaign.ue_sweep"):
            with telemetry.span(f"workload:{spec.workload}"):
                grid = experiment.run_grid_columns(
                    spec.workload, spec.ue_ops,
                    repetitions=spec.ue_repetitions, profile=profile,
                )
                # WER data from the first 70 C repetition also feeds the
                # dataset.
                ue_block = grid.wer_block(first_repetition_only=True)
                summaries = _grid_pue_summaries(grid)
    return WorkloadSweepOutcome(
        workload=spec.workload, wer_block=wer_block,
        ue_block=ue_block, pue_summaries=summaries,
    )


def _run_workload_sweep(spec: WorkloadSweepSpec) -> WorkloadSweepOutcome:
    """Process-pool entry: :func:`_sweep_workload` under a fresh registry.

    Module-level so it pickles.  The worker's telemetry is captured in
    its own registry and shipped home as a snapshot in the outcome.
    """
    worker_telemetry = Telemetry(enabled=spec.telemetry)
    previous = set_telemetry(worker_telemetry)
    try:
        outcome = _sweep_workload(spec)
    finally:
        set_telemetry(previous)
    if spec.telemetry:
        outcome.telemetry = worker_telemetry.snapshot()
    return outcome


class CharacterizationCampaign:
    """Drives the full sweep of Section V on a server model."""

    def __init__(
        self,
        server: Optional[XGene2Server] = None,
        config: Optional[CampaignConfig] = None,
        seed: int = 7,
    ) -> None:
        self.server = server or XGene2Server()
        self.config = config or CampaignConfig()
        self.experiment = CharacterizationExperiment(self.server, seed=seed)

    def _workload_specs(self, include_ue_study: bool) -> List[WorkloadSweepSpec]:
        wer_ops = tuple(self.config.wer_operating_points())
        ue_ops = tuple(self.config.ue_operating_points()) if include_ue_study else ()
        capture = get_telemetry().enabled
        return [
            WorkloadSweepSpec(
                workload=workload, seed=self.experiment.seed, server=self.server,
                wer_ops=wer_ops, wer_repetitions=self.config.repetitions,
                ue_ops=ue_ops, ue_repetitions=self.config.ue_repetitions,
                telemetry=capture,
            )
            for workload in self.config.resolved_workloads()
        ]

    def run(
        self, include_ue_study: bool = True, parallel: Optional[int] = None
    ) -> CampaignResult:
        """Run the full campaign and return the collected measurements.

        ``parallel=None`` maps the per-workload sweep specs in-process;
        ``parallel=n`` maps the same specs over an ``n``-worker process
        pool.  Outcomes merge in workload order — every workload's CE
        block, then every workload's UE block and summaries — so both
        paths produce bit-identical results.
        """
        if parallel is not None:
            if isinstance(parallel, bool) or not isinstance(parallel, int):
                raise CharacterizationError("parallel must be an integer worker count")
            if parallel < 1:
                raise CharacterizationError("parallel must be at least 1 worker")
        telemetry = get_telemetry()
        result = CampaignResult(config=self.config)
        specs = self._workload_specs(include_ue_study)
        workers = min(parallel, len(specs)) if parallel is not None else 0
        logger.info(
            "campaign starting: %d workloads, %s",
            len(specs), f"{workers} workers" if workers else "in-process",
        )
        start = time.perf_counter()
        with telemetry.span("campaign.run"):
            if workers:
                if telemetry.enabled:
                    telemetry.gauge("campaign.parallel_workers", workers)
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    outcomes = list(pool.map(_run_workload_sweep, specs))
                # Worker snapshots merge in workload (submission) order, so
                # the combined span tree is independent of worker count and
                # completion order.
                for outcome in outcomes:
                    telemetry.merge_snapshot(outcome.telemetry)
            else:
                outcomes = [_sweep_workload(spec) for spec in specs]
            wer_blocks = [o.wer_block for o in outcomes if o.wer_block is not None]
            ue_blocks = [o.ue_block for o in outcomes if o.ue_block is not None]
            result.extend_wer_columns(wer_blocks)
            result.extend_wer_columns(ue_blocks)
            for outcome in outcomes:
                result.pue_summaries.extend(outcome.pue_summaries)
            if telemetry.enabled:
                telemetry.incr("campaign.wer_rows", sum(len(b) for b in wer_blocks))
                if include_ue_study:
                    telemetry.incr("campaign.ue_rows", sum(len(b) for b in ue_blocks))
        logger.info(
            "campaign finished: %d workloads, %d WER rows in %.3fs",
            len(specs), result.num_wer_measurements, time.perf_counter() - start,
        )
        if result.num_wer_measurements == 0:
            raise CharacterizationError("campaign produced no measurements")
        return result


def run_default_campaign(
    workloads: Optional[Sequence[str]] = None,
    include_ue_study: bool = True,
    seed: int = 7,
    parallel: Optional[int] = None,
) -> CampaignResult:
    """Convenience helper: run the paper's campaign with default settings."""
    config = CampaignConfig(workloads=tuple(workloads) if workloads else ())
    campaign = CharacterizationCampaign(config=config, seed=seed)
    return campaign.run(include_ue_study=include_ue_study, parallel=parallel)
