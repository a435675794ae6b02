"""Characterization experiments: one workload on one or many operating points.

A scalar :meth:`CharacterizationExperiment.run` corresponds to one
2-hour run of the paper's campaign: the DIMMs are held at the target
temperature, TREFP/VDD are configured through SLIMpro, the workload runs
for two hours, and the ECC error log is reduced to the per-rank WER plus
(at 70 C) a possible UE crash.

Grid engine
-----------
:meth:`CharacterizationExperiment.run_grid` executes a whole batch of
operating points x repetitions for one workload through the statistical
model's grid engine: the expected-WER surface is computed once per
operating point, run-to-run noise and maturity scaling are applied
array-wide, and UE outcomes are sampled per cell from the same keyed RNG
streams (``crc32(workload|trefp|temp|repetition|seed)``) the scalar path
uses.  The scalar-vs-batch contract: ``run`` is a one-point wrapper
around ``run_grid``, every grid cell is bit-identical to the scalar run
with the same key, and that equivalence is pinned by
``tests/test_campaign_grid.py`` — any change to one path must keep the
other (and the tests) in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro import units
from repro.characterization.metrics import WerColumnStore, WerMeasurement
from repro.dram.geometry import RankLocation
from repro.dram.operating import OperatingPoint
from repro.dram.statistical import WorkloadBehavior
from repro.errors import CharacterizationError
from repro.characterization.server import XGene2Server
from repro.profiling.profile import WorkloadProfile
from repro.profiling.profiler import profile_workload
from repro.telemetry import get_telemetry


@dataclass
class ExperimentResult:
    """Everything one 2-hour characterization run produces."""

    workload: str
    operating_point: OperatingPoint
    duration_s: float
    rank_wer: Dict[RankLocation, float] = field(default_factory=dict)
    wer_time_series: Dict[float, float] = field(default_factory=dict)
    ue_rank: Optional[RankLocation] = None

    @property
    def memory_wer(self) -> float:
        """Memory-wide WER (Eq. 2) — the average across DIMM/ranks."""
        if not self.rank_wer:
            raise CharacterizationError("experiment produced no per-rank WER data")
        return float(np.mean(list(self.rank_wer.values())))

    @property
    def crashed(self) -> bool:
        """True when the run hit an uncorrectable error (which crashes the node)."""
        return self.ue_rank is not None

    def wer_measurements(self) -> List[WerMeasurement]:
        """Per-rank measurements in the flat record format the dataset uses."""
        op = self.operating_point
        return [
            WerMeasurement(
                workload=self.workload,
                trefp_s=op.trefp_s,
                vdd_v=op.vdd_v,
                temperature_c=op.temperature_c,
                rank=rank,
                wer=wer,
            )
            for rank, wer in sorted(self.rank_wer.items(), key=lambda kv: kv[0].label)
        ]


@dataclass
class GridColumns:
    """Columnar result of one workload x operating-point grid sweep.

    This is the zero-object sibling of the ``run_grid`` result: the
    sampled WER surface stays a ``(points, repetitions, ranks)`` array
    (rank axis in label order, the order the scalar sweep emitted its
    per-run measurements) and UE outcomes stay the per-cell rank grid.
    :meth:`wer_block` packs the surface into a
    :class:`~repro.characterization.metrics.WerColumnStore` block that a
    campaign merges without materializing ``WerMeasurement`` lists.
    """

    workload: str
    ops: List[OperatingPoint]
    ranks: List[RankLocation]
    wer: np.ndarray
    ue_ranks: List[List[Optional[RankLocation]]]

    def wer_block(self, first_repetition_only: bool = False) -> "WerColumnStore":
        """Columnar measurement block (optionally repetition 0 only).

        The UE study keeps only the first repetition's WER rows — the
        same slice the scalar sweep recorded.
        """
        wer = self.wer[:, :1, :] if first_repetition_only else self.wer
        return WerColumnStore.from_grid(self.workload, self.ops, wer, self.ranks)


class CharacterizationExperiment:
    """Runs single characterization experiments on a server model."""

    def __init__(self, server: Optional[XGene2Server] = None, seed: int = 7) -> None:
        self.server = server or XGene2Server()
        self.seed = seed

    # ------------------------------------------------------------------
    def _behavior(self, workload: str, profile: Optional[WorkloadProfile]) -> WorkloadBehavior:
        active_profile = profile or profile_workload(workload)
        if active_profile.workload != workload:
            raise CharacterizationError(
                f"profile is for {active_profile.workload!r}, expected {workload!r}"
            )
        return active_profile.behavior()

    def _run_rng(self, workload: str, op: OperatingPoint, repetition: int) -> np.random.Generator:
        import zlib

        key = zlib.crc32(
            f"{workload}|{op.trefp_s:.6f}|{op.temperature_c:.3f}|{repetition}|{self.seed}"
            .encode("utf-8")
        )
        # Stream-identical to np.random.default_rng(key) (an int seed goes
        # through SeedSequence either way) but skips default_rng's dispatch
        # overhead — this constructor runs once per grid cell.
        return np.random.Generator(np.random.PCG64(key))

    # ------------------------------------------------------------------
    def _grid_arrays(
        self,
        workload: str,
        ops: Sequence[OperatingPoint],
        repetitions: Union[int, Sequence[int]],
        duration_s: float,
        profile: Optional[WorkloadProfile],
    ):
        """Shared grid core: sampled WER surface + UE grid as arrays.

        Returns ``(configured_ops, behavior, wer_grid, ue_grid)`` where
        ``wer_grid`` is ``(points, repetitions, ranks)`` with maturity
        already applied (shape ``(points, 0, ranks)`` when no repetitions
        were requested) and ``ue_grid`` is the per-cell rank grid.
        """
        if duration_s <= 0:
            raise CharacterizationError("duration_s must be positive")
        if not ops:
            raise CharacterizationError("ops must contain at least one operating point")
        if isinstance(repetitions, int):
            if repetitions < 0:
                raise CharacterizationError("repetitions must be non-negative")
            repetition_indices = list(range(repetitions))
        else:
            repetition_indices = list(repetitions)
        telemetry = get_telemetry()
        with telemetry.span("experiment.grid"):
            behavior = self._behavior(workload, profile)
            configured = [self.server.configure(op) for op in ops]
            model = self.server.error_model
            if telemetry.enabled:
                telemetry.incr("experiment.grid_points", len(configured))
                telemetry.incr(
                    "experiment.grid_cells", len(configured) * len(repetition_indices)
                )
            if not repetition_indices:
                empty = np.zeros((len(configured), 0, self.server.geometry.num_ranks))
                return configured, behavior, empty, [[] for _ in configured]

            rngs = [
                [self._run_rng(workload, op, repetition) for repetition in repetition_indices]
                for op in configured
            ]
            # The CE and UE models share the per-point retention failure
            # probabilities — one batched CDF evaluation serves both grids.
            p_ret = model.retention_bit_failure_probability_grid(configured)
            # One batched draw per cell: (points, repetitions, ranks), noise and
            # maturity scaling applied array-wide.
            wer_grid = model.sample_rank_wer_grid(
                configured, behavior, workload=workload, rngs=rngs, p_ret=p_ret
            )
            # WER keeps accumulating until the run ends; a shorter run only sees
            # the fraction of error-prone locations discovered so far.
            maturity = 1.0 - float(np.exp(-duration_s / model.calibration.convergence_tau_s))
            wer_grid = wer_grid * maturity
            ue_grid = model.sample_ue_events_grid(
                configured, behavior, workload=workload, rngs=rngs, p_ret=p_ret
            )
            return configured, behavior, wer_grid, ue_grid

    def run_grid(
        self,
        workload: str,
        ops: Sequence[OperatingPoint],
        repetitions: Union[int, Sequence[int]] = 1,
        duration_s: float = units.CHARACTERIZATION_DURATION_S,
        profile: Optional[WorkloadProfile] = None,
        collect_time_series: bool = False,
    ) -> List[List[ExperimentResult]]:
        """Run one workload over a batch of operating points x repetitions.

        Returns results indexed ``[point][repetition]``.  ``repetitions``
        is either a count (runs repetition indices ``0..n-1``) or an
        explicit sequence of repetition indices (how the scalar ``run``
        wrapper requests a single arbitrary index).  Every cell draws
        from the same ``crc32``-keyed RNG stream the scalar path would
        use, so cell ``[p][k]`` is bit-identical to
        ``run(workload, ops[p], repetition=indices[k])``.
        """
        configured, behavior, wer_grid, ue_grid = self._grid_arrays(
            workload, ops, repetitions, duration_s, profile
        )
        model = self.server.error_model
        if wer_grid.shape[1] == 0:
            return [[] for _ in configured]

        ranks = list(self.server.geometry.iter_ranks())
        results: List[List[ExperimentResult]] = []
        for p, op in enumerate(configured):
            time_series: Dict[float, float] = {}
            if collect_time_series:
                time_series = model.wer_time_series(
                    op, behavior, duration_s=duration_s, workload=workload
                )
            point_results = []
            # .tolist() converts a whole repetition row to Python floats in
            # one C pass — the per-element float() indexing used to cost as
            # much as the draws themselves.
            point_wers = wer_grid[p].tolist()
            for k in range(wer_grid.shape[1]):
                point_results.append(
                    ExperimentResult(
                        workload=workload,
                        operating_point=op,
                        duration_s=duration_s,
                        rank_wer=dict(zip(ranks, point_wers[k])),
                        wer_time_series=dict(time_series) if time_series else {},
                        ue_rank=ue_grid[p][k],
                    )
                )
            results.append(point_results)
        return results

    def run_grid_columns(
        self,
        workload: str,
        ops: Sequence[OperatingPoint],
        repetitions: Union[int, Sequence[int]] = 1,
        duration_s: float = units.CHARACTERIZATION_DURATION_S,
        profile: Optional[WorkloadProfile] = None,
    ) -> GridColumns:
        """Run a grid and keep the results columnar (no per-run objects).

        Samples exactly the same RNG streams as :meth:`run_grid` — cell
        values are bit-identical — but returns the WER surface and UE
        grid as arrays, ready to stream into a campaign's
        ``WerColumnStore`` / the dataset builders.  The rank axis is
        reordered to label order, matching the order the scalar sweep's
        ``wer_measurements()`` emitted rows.
        """
        configured, _behavior, wer_grid, ue_grid = self._grid_arrays(
            workload, ops, repetitions, duration_s, profile
        )
        ranks = list(self.server.geometry.iter_ranks())
        order = sorted(range(len(ranks)), key=lambda i: ranks[i].label)
        return GridColumns(
            workload=workload,
            ops=list(configured),
            ranks=[ranks[i] for i in order],
            wer=np.ascontiguousarray(wer_grid[:, :, order]),
            ue_ranks=ue_grid,
        )

    def run(
        self,
        workload: str,
        op: OperatingPoint,
        duration_s: float = units.CHARACTERIZATION_DURATION_S,
        profile: Optional[WorkloadProfile] = None,
        repetition: int = 0,
        collect_time_series: bool = False,
    ) -> ExperimentResult:
        """Execute one 2-hour characterization run and collect its metrics.

        One-point wrapper over :meth:`run_grid`; the grid engine is the
        single implementation of the measurement core.
        """
        return self.run_grid(
            workload,
            [op],
            repetitions=(repetition,),
            duration_s=duration_s,
            profile=profile,
            collect_time_series=collect_time_series,
        )[0][0]
