"""Characterization experiments: one workload on one or many operating points.

A scalar :meth:`CharacterizationExperiment.run` corresponds to one
2-hour run of the paper's campaign: the DIMMs are held at the target
temperature, TREFP/VDD are configured through SLIMpro, the workload runs
for two hours, and the ECC error log is reduced to the per-rank WER plus
(at 70 C) a possible UE crash.

Grid engine
-----------
:meth:`CharacterizationExperiment.run_grid_columns` is the one
measurement path.  It runs one workload over a batch of operating points
x repetitions through the statistical model's grid engine: the
expected-WER surface is computed once per operating point, run-to-run
noise and maturity scaling are applied array-wide, and UE outcomes are
sampled per cell from keyed RNG streams
(``crc32(workload|trefp|temp|repetition|seed)``).  The result stays
columnar (:class:`GridColumns`).  A scalar ``run`` is a one-point,
one-repetition grid read through :meth:`GridColumns.result`.
``tests/test_campaign_grid.py`` pins every grid cell bit for bit against
the independent scalar reference run in ``tests/oracles/characterization.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TypeGuard, Union

import numpy as np

from repro import units
from repro.characterization.metrics import WerColumnStore
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


@dataclass
class GridColumns:
    """Columnar result of one workload x operating-point grid sweep.

    The sampled WER surface stays a ``(points, repetitions, ranks)`` array
    (rank axis in label order, the order a campaign records its per-rank
    measurements) and UE outcomes stay the per-cell rank grid.
    :meth:`wer_block` packs the surface into a
    :class:`~repro.characterization.metrics.WerColumnStore` block that a
    campaign merges; :meth:`result` reads one cell as a scalar run.
    """

    workload: str
    ops: List[OperatingPoint]
    ranks: List[RankLocation]
    wer: np.ndarray
    ue_ranks: List[List[Optional[RankLocation]]]
    duration_s: float

    def wer_block(self, first_repetition_only: bool = False) -> "WerColumnStore":
        """Columnar measurement block (optionally repetition 0 only).

        The UE study keeps only the first repetition's WER rows.
        """
        wer = self.wer[:, :1, :] if first_repetition_only else self.wer
        return WerColumnStore.from_grid(self.workload, self.ops, wer, self.ranks)

    def result(self, point: int, repetition: int) -> ExperimentResult:
        """Materialize one cell as a scalar :class:`ExperimentResult`.

        ``repetition`` indexes the grid's repetition axis.  ``rank_wer``
        follows platform (``iter_ranks``) order, the order
        :attr:`ExperimentResult.memory_wer` averages in.
        """
        wers = dict(zip(self.ranks, self.wer[point, repetition].tolist()))
        return ExperimentResult(
            workload=self.workload,
            operating_point=self.ops[point],
            duration_s=self.duration_s,
            rank_wer={rank: wers[rank] for rank in sorted(self.ranks)},
            ue_rank=self.ue_ranks[point][repetition],
        )


def _is_count(value: object) -> TypeGuard[int]:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _repetition_indices(repetitions: Union[int, Sequence[int]]) -> List[int]:
    """Repetition indices of a grid: a count ``n`` means ``0..n-1``."""
    if _is_count(repetitions):
        return list(range(repetitions))
    if (
        isinstance(repetitions, Sequence)
        and not isinstance(repetitions, (str, bytes))
        and all(_is_count(index) for index in repetitions)
    ):
        return list(repetitions)
    raise CharacterizationError(
        "repetitions must be a non-negative int or a sequence of non-negative "
        f"ints, got {repetitions!r}"
    )


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
    def run_grid_columns(
        self,
        workload: str,
        ops: Sequence[OperatingPoint],
        repetitions: Union[int, Sequence[int]] = 1,
        duration_s: float = units.CHARACTERIZATION_DURATION_S,
        profile: Optional[WorkloadProfile] = None,
    ) -> GridColumns:
        """Run one workload over a batch of operating points x repetitions.

        ``repetitions`` is either a count (runs repetition indices
        ``0..n-1``) or an explicit sequence of repetition indices.  Cell
        ``[p, k]`` draws from the ``crc32``-keyed RNG stream of
        ``(workload, ops[p], indices[k], seed)``.  The WER surface and UE
        grid come back as arrays, ready to stream into a campaign's
        ``WerColumnStore`` and the dataset builders.
        """
        if duration_s <= 0:
            raise CharacterizationError("duration_s must be positive")
        if not ops:
            raise CharacterizationError("ops must contain at least one operating point")
        repetition_indices = _repetition_indices(repetitions)
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
                wer_grid = np.zeros((len(configured), 0, self.server.geometry.num_ranks))
                ue_grid: List[List[Optional[RankLocation]]] = [[] for _ in configured]
            else:
                rngs = [
                    [self._run_rng(workload, op, repetition) for repetition in repetition_indices]
                    for op in configured
                ]
                # The CE and UE models share the per-point retention failure
                # probabilities — one batched CDF evaluation serves both grids.
                p_ret = model.retention_bit_failure_probability_grid(configured)
                # One batched draw per cell: (points, repetitions, ranks), noise
                # and maturity scaling applied array-wide.
                wer_grid = model.sample_rank_wer_grid(
                    configured, behavior, workload=workload, rngs=rngs, p_ret=p_ret
                )
                # WER keeps accumulating until the run ends; a shorter run only
                # sees the fraction of error-prone locations discovered so far.
                maturity = 1.0 - float(np.exp(-duration_s / model.calibration.convergence_tau_s))
                wer_grid = wer_grid * maturity
                ue_grid = model.sample_ue_events_grid(
                    configured, behavior, workload=workload, rngs=rngs, p_ret=p_ret
                )
        ranks = list(self.server.geometry.iter_ranks())
        order = sorted(range(len(ranks)), key=lambda i: ranks[i].label)
        return GridColumns(
            workload=workload,
            ops=configured,
            ranks=[ranks[i] for i in order],
            wer=np.ascontiguousarray(wer_grid[:, :, order]),
            ue_ranks=ue_grid,
            duration_s=duration_s,
        )

    def run(
        self,
        workload: str,
        op: OperatingPoint,
        duration_s: float = units.CHARACTERIZATION_DURATION_S,
        profile: Optional[WorkloadProfile] = None,
        repetition: int = 0,
    ) -> ExperimentResult:
        """Execute one 2-hour characterization run and collect its metrics.

        A one-point, one-repetition :meth:`run_grid_columns` call.
        """
        return self.run_grid_columns(
            workload, [op], repetitions=(repetition,),
            duration_s=duration_s, profile=profile,
        ).result(0, 0)

    def wer_time_series(
        self,
        workload: str,
        op: OperatingPoint,
        duration_s: float = units.CHARACTERIZATION_DURATION_S,
        profile: Optional[WorkloadProfile] = None,
    ) -> Dict[float, float]:
        """Cumulative expected WER over one run at ``op`` (Fig. 2 / Fig. 4).

        The model's curve at the configured point; nothing is sampled.
        """
        behavior = self._behavior(workload, profile)
        return self.server.error_model.wer_time_series(
            self.server.configure(op), behavior, duration_s=duration_s, workload=workload
        )
