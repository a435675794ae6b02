"""Closed-form statistical DRAM error model used for full-scale campaigns.

Characterization campaigns need the paper's 8 GB footprints, far beyond
what a per-cell simulation holds, so they use this model: expected error
rates are computed in closed form from
the retention-failure physics, the workload's behaviour (access rate,
reuse time, data entropy, footprint) and the per-rank variation profile,
then individual runs are sampled around the expectation with
variable-retention-time (run-to-run) noise.

A deliberately *idiosyncratic* per-(workload, rank) factor — deterministic
but not derivable from the program features — represents everything the
feature vector cannot explain (exact physical page placement, allocator
behaviour, micro-architectural noise).  It is what bounds the accuracy a
perfect ML model can reach, mirroring the ~10 % residual error of the
paper's best model.

Grid engine
-----------
Campaign sweeps evaluate the model on a dense grid of operating points:
``sample_rank_wer_grid`` and ``sample_ue_events_grid`` take a sequence of
operating points plus a (points x repetitions) matrix of RNG streams and
sample every (point, repetition, rank) cell in batched numpy draws.  Each
cell consumes its RNG stream in the order of one scalar run (one normal
per rank, then one uniform, then — only on a crash — one categorical
draw), so a grid cell is bit-identical to the scalar reference run in
``tests/oracles/characterization.py`` with the same generator.  The
expensive deterministic factors (retention CDF, per-rank variation,
idiosyncratic draws) are computed once per operating point and once per
rank instead of once per (point, repetition, rank).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import units
from repro.dram.calibration import DEFAULT_CALIBRATION, DramCalibration
from repro.dram.geometry import DramGeometry, RankLocation
from repro.dram.operating import OperatingPoint
from repro.dram.retention import bit_failure_probability_grid
from repro.dram.variation import VariationProfile
from repro.errors import ConfigurationError
from repro.telemetry import get_telemetry


@dataclass(frozen=True)
class WorkloadBehavior:
    """The workload-dependent quantities the error physics responds to.

    These are derived from a workload's profile (Section III.D): the rate
    of memory accesses reaching DRAM, the average DRAM reuse time
    ``Treuse``, the data-pattern entropy ``HDP`` and the allocated
    footprint.
    """

    accesses_per_cycle: float          #: DRAM accesses per CPU cycle
    reuse_time_s: float                #: average time between accesses to a word
    data_entropy_bits: float           #: HDP, in bits (0 .. 32)
    footprint_words: int               #: allocated memory, in 64-bit words
    wait_cycle_fraction: float = 0.0   #: fraction of cycles stalled on memory

    def __post_init__(self) -> None:
        if self.accesses_per_cycle < 0:
            raise ConfigurationError("accesses_per_cycle must be non-negative")
        if self.reuse_time_s <= 0:
            raise ConfigurationError("reuse_time_s must be positive")
        if not 0.0 <= self.data_entropy_bits <= 32.0 + 1e-9:
            raise ConfigurationError("data_entropy_bits must lie in [0, 32]")
        if self.footprint_words <= 0:
            raise ConfigurationError("footprint_words must be positive")
        if not 0.0 <= self.wait_cycle_fraction <= 1.0:
            raise ConfigurationError("wait_cycle_fraction must lie in [0, 1]")


def _stable_unit_normal(*parts: str) -> float:
    """Deterministic pseudo-random N(0,1) draw keyed by strings.

    Used for the per-(workload, rank) idiosyncratic factor so that repeated
    characterizations of the same workload on the same rank see the same
    bias — exactly like a real machine would.
    """
    key = "|".join(parts)
    seed = zlib.crc32(key.encode("utf-8"))
    return float(np.random.default_rng(seed).standard_normal())


class StatisticalErrorModel:
    """Expected and sampled DRAM error metrics for arbitrary operating points."""

    def __init__(
        self,
        geometry: Optional[DramGeometry] = None,
        variation: Optional[VariationProfile] = None,
        calibration: Optional[DramCalibration] = None,
        seed: int = 2019,
    ) -> None:
        self.geometry = geometry or DramGeometry()
        self.variation = variation or VariationProfile.default(self.geometry)
        self.calibration = calibration or DEFAULT_CALIBRATION
        self.seed = seed

    # ------------------------------------------------------------------
    # building blocks
    # ------------------------------------------------------------------
    def retention_bit_failure_probability_grid(
        self, ops: Sequence[OperatingPoint]
    ) -> np.ndarray:
        """Per-point retention failure probabilities, one grid call for all points."""
        return bit_failure_probability_grid(
            [op.trefp_s for op in ops],
            [op.temperature_c for op in ops],
            [op.vdd_v for op in ops],
            self.calibration.retention,
        )

    def implicit_refresh_fraction(
        self, behavior: WorkloadBehavior, op: OperatingPoint
    ) -> float:
        """Fraction of footprint words re-accessed within one refresh period.

        Per-word reuse times are modelled as lognormally distributed around
        the workload's mean ``Treuse`` with a wide spread
        (``reuse_spread_sigma``); a word whose reuse gap is below TREFP is
        recharged by the access itself and its retention failures are
        suppressed.
        """
        sigma = self.calibration.workload.reuse_spread_sigma
        z = (math.log(op.trefp_s) - math.log(behavior.reuse_time_s)) / sigma
        # Standard normal CDF via erf keeps scipy out of the hot path.
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    def data_pattern_factor(self, behavior: WorkloadBehavior) -> float:
        """Vulnerability scaling due to the stored data pattern (entropy)."""
        cal = self.calibration.workload
        return cal.entropy_floor + cal.entropy_slope * behavior.data_entropy_bits

    def interference_factor(self, behavior: WorkloadBehavior) -> float:
        """Disturbance (cell-to-cell interference) term driven by access rate."""
        cal = self.calibration.workload
        accesses_per_kcycle = behavior.accesses_per_cycle * 1000.0
        return cal.interference_per_access_per_kcycle * accesses_per_kcycle

    def _idiosyncratic_factor(self, workload: str, rank: Optional[RankLocation]) -> float:
        if not workload:
            return 1.0
        sigma = self.calibration.workload.idiosyncratic_sigma
        rank_key = rank.label if rank is not None else "memory"
        draw = _stable_unit_normal(str(self.seed), workload, rank_key)
        return math.exp(sigma * draw)

    # ------------------------------------------------------------------
    # correctable errors (WER)
    # ------------------------------------------------------------------
    def _word_ce_probability_from_p_ret(
        self, p_ret: float, op: OperatingPoint, behavior: WorkloadBehavior
    ) -> float:
        """CE probability of one point, given its retention failure probability."""
        cal = self.calibration.workload
        refresh_fraction = self.implicit_refresh_fraction(behavior, op)
        suppression = 1.0 - refresh_fraction * (1.0 - cal.implicit_refresh_residual)
        pattern = self.data_pattern_factor(behavior)
        interference = self.interference_factor(behavior)

        p_bit = p_ret * pattern * (suppression + interference)
        p_bit = min(p_bit, 1.0)
        # Unique CE words: at least one failing data bit (64 bits per word).
        p_word = 1.0 - (1.0 - p_bit) ** units.WORD_BITS
        return float(min(p_word, 1.0))

    def word_ce_probability_grid(
        self,
        ops: Sequence[OperatingPoint],
        behavior: WorkloadBehavior,
        p_ret: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """CE probability for many operating points, as a (points,) array.

        ``p_ret`` lets a caller share one batched retention-CDF
        evaluation between the CE and UE grids (both depend on the same
        per-point probabilities).
        """
        if p_ret is None:
            p_ret = self.retention_bit_failure_probability_grid(ops)
        return np.array(
            [
                self._word_ce_probability_from_p_ret(float(p), op, behavior)
                for p, op in zip(p_ret, ops)
            ],
            dtype=np.float64,
        )

    def expected_wer(
        self, op: OperatingPoint, behavior: WorkloadBehavior, workload: str = ""
    ) -> float:
        """Expected memory-wide WER (Eq. 2) averaged over all ranks."""
        return float(np.mean(self.expected_rank_wer_grid([op], behavior, workload)[0]))

    # ------------------------------------------------------------------
    # grid engine (batched operating points)
    # ------------------------------------------------------------------
    def expected_rank_wer_grid(
        self,
        ops: Sequence[OperatingPoint],
        behavior: WorkloadBehavior,
        workload: str = "",
        p_ret: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Expected per-rank WER for many operating points, as (points, ranks).

        The workload/operating-point term (the CE probability, one
        retention-CDF evaluation for all points) and the per-rank terms
        (variation factor, idiosyncratic factor) are each computed once
        and combined by broadcasting as ``base * variation *
        idiosyncratic``.
        """
        if not ops:
            raise ConfigurationError("ops must contain at least one operating point")
        base = self.word_ce_probability_grid(ops, behavior, p_ret=p_ret)
        ranks = list(self.geometry.iter_ranks())
        factors = np.array(
            [self.variation.wer_factor(rank) for rank in ranks], dtype=np.float64
        )
        idiosyncratic = np.array(
            [self._idiosyncratic_factor(workload, rank) for rank in ranks],
            dtype=np.float64,
        )
        return base[:, None] * factors[None, :] * idiosyncratic[None, :]

    @staticmethod
    def _validated_rng_grid(
        rngs: Sequence[Sequence[np.random.Generator]], num_points: int
    ) -> List[Sequence[np.random.Generator]]:
        grid = [list(row) for row in rngs]
        if len(grid) != num_points:
            raise ConfigurationError(
                "rngs must provide one row per operating point: expected "
                f"{num_points} rows, got {len(grid)}"
            )
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise ConfigurationError("rngs rows must all have the same length")
        return grid

    def sample_rank_wer_grid(
        self,
        ops: Sequence[OperatingPoint],
        behavior: WorkloadBehavior,
        workload: str = "",
        rngs: Optional[Sequence[Sequence[np.random.Generator]]] = None,
        repetitions: int = 1,
        p_ret: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Sampled per-rank WER grid, as (points, repetitions, ranks).

        ``rngs`` is a (points x repetitions) matrix of generators — one
        independent stream per grid cell, typically keyed the way
        :meth:`CharacterizationExperiment._run_rng` keys one run.  Each
        cell draws its per-rank normals in one batched call, which
        consumes the generator's stream exactly like ``ranks`` sequential
        scalar draws.  The noise kernel is ``np.exp`` over the whole
        array.  Without ``rngs``, fresh unseeded generators are used
        (``repetitions`` cells per point).
        """
        telemetry = get_telemetry()
        with telemetry.span("statistical.wer_grid"):
            ops = list(ops)
            expected = self.expected_rank_wer_grid(ops, behavior, workload, p_ret=p_ret)
            if rngs is None:
                if repetitions <= 0:
                    raise ConfigurationError("repetitions must be positive")
                rngs = [
                    [np.random.default_rng() for _ in range(repetitions)] for _ in ops
                ]
            grid = self._validated_rng_grid(rngs, len(ops))
            num_reps = len(grid[0]) if grid else 0
            num_ranks = expected.shape[1]
            normals = np.empty((len(ops), num_reps, num_ranks), dtype=np.float64)
            for p, row in enumerate(grid):
                for k, generator in enumerate(row):
                    normals[p, k] = generator.standard_normal(num_ranks)
            noise = np.exp(self.calibration.workload.run_to_run_sigma * normals)
            if telemetry.enabled:
                telemetry.incr(
                    "statistical.wer_cells", len(ops) * num_reps * num_ranks
                )
            return expected[:, None, :] * noise

    def probability_of_ue_grid(
        self,
        ops: Sequence[OperatingPoint],
        behavior: WorkloadBehavior,
        workload: str = "",
        p_ret: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """PUE (Eq. 3) for many operating points, as a (points,) array.

        The expected-count grid shares one batched retention-CDF call;
        the final ``1 - exp(-lam)`` is per-point ``math.exp``.
        """
        if not ops:
            raise ConfigurationError("ops must contain at least one operating point")
        lam = self.expected_ue_count_grid(ops, behavior, workload, p_ret=p_ret)
        return np.array(
            [float(1.0 - math.exp(-value)) for value in lam], dtype=np.float64
        )

    def sample_ue_events_grid(
        self,
        ops: Sequence[OperatingPoint],
        behavior: WorkloadBehavior,
        workload: str = "",
        rngs: Optional[Sequence[Sequence[np.random.Generator]]] = None,
        repetitions: int = 1,
        p_ret: Optional[np.ndarray] = None,
    ) -> List[List[Optional[RankLocation]]]:
        """Sample UE outcomes for every grid cell, as (points, repetitions).

        PUE is computed once per operating point instead of once per
        cell; each cell then draws one uniform, plus one categorical
        draw only when the run crashes.  Pass the same ``rngs`` matrix
        used for :meth:`sample_rank_wer_grid`, so each generator draws
        its UE outcome after its per-rank normals.  Without ``rngs``,
        fresh unseeded generators are used (``repetitions`` cells per
        point, mirroring :meth:`sample_rank_wer_grid`).
        """
        telemetry = get_telemetry()
        with telemetry.span("statistical.ue_grid"):
            ops = list(ops)
            pue = self.probability_of_ue_grid(ops, behavior, workload, p_ret=p_ret)
            if rngs is None:
                if repetitions <= 0:
                    raise ConfigurationError("repetitions must be positive")
                rngs = [
                    [np.random.default_rng() for _ in range(repetitions)] for _ in ops
                ]
            grid = self._validated_rng_grid(rngs, len(ops))
            weights = self.variation.normalized_ue_weights()
            ranks = list(weights.keys())
            probabilities = np.array([weights[rank] for rank in ranks])
            events: List[List[Optional[RankLocation]]] = []
            pue_values = pue.tolist()
            crashes = 0
            for p, row in enumerate(grid):
                point_pue = pue_values[p]
                outcomes: List[Optional[RankLocation]] = []
                for generator in row:
                    if generator.random() >= point_pue:
                        outcomes.append(None)
                    else:
                        index = generator.choice(len(ranks), p=probabilities)
                        outcomes.append(ranks[index])
                        crashes += 1
                events.append(outcomes)
            if telemetry.enabled:
                telemetry.incr(
                    "statistical.ue_cells", sum(len(row) for row in grid)
                )
                if crashes:
                    telemetry.incr("statistical.ue_crashes", crashes)
            return events

    # ------------------------------------------------------------------
    # uncorrectable errors (PUE)
    # ------------------------------------------------------------------
    def _expected_ue_count_from_p_ret(
        self,
        p_ret: float,
        op: OperatingPoint,
        behavior: WorkloadBehavior,
        idiosyncratic: float,
    ) -> float:
        """Expected UE count of one point from its retention failure probability.

        ``idiosyncratic`` is the workload's memory-wide factor, which is
        the same for every point of a grid.
        """
        cal = self.calibration.workload
        ue_cal = self.calibration.ue
        refresh_fraction = self.implicit_refresh_fraction(behavior, op)
        suppression = 1.0 - refresh_fraction * (1.0 - cal.implicit_refresh_residual)
        pattern = self.data_pattern_factor(behavior)
        interference = self.interference_factor(behavior)

        p_bit = min(p_ret * pattern * (suppression + interference), 1.0)
        pairs = units.WORD_BITS * (units.WORD_BITS - 1) / 2.0
        clustering = ue_cal.clustering_factor * (
            op.trefp_s / ue_cal.trefp_reference_s
        ) ** ue_cal.trefp_exponent
        clustering *= math.exp(
            ue_cal.temperature_boost_per_c
            * (op.temperature_c - ue_cal.temperature_reference_c)
        )
        p_word_multi = min(clustering * pairs * p_bit ** 2, 1.0)
        lam = (
            p_word_multi
            * behavior.footprint_words
            * ue_cal.scrub_coverage
            * idiosyncratic
        )
        return float(lam)

    def expected_ue_count_grid(
        self,
        ops: Sequence[OperatingPoint],
        behavior: WorkloadBehavior,
        workload: str = "",
        p_ret: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Expected multi-bit word count of a 2-hour run, as a (points,) array."""
        if p_ret is None:
            p_ret = self.retention_bit_failure_probability_grid(ops)
        idiosyncratic = self._idiosyncratic_factor(workload, None)
        return np.array(
            [
                self._expected_ue_count_from_p_ret(float(p), op, behavior, idiosyncratic)
                for p, op in zip(p_ret, ops)
            ],
            dtype=np.float64,
        )

    # ------------------------------------------------------------------
    # time behaviour (Fig. 2 / Fig. 4)
    # ------------------------------------------------------------------
    def wer_time_series(
        self,
        op: OperatingPoint,
        behavior: WorkloadBehavior,
        duration_s: float = units.CHARACTERIZATION_DURATION_S,
        step_s: float = 10 * units.MINUTE,
        workload: str = "",
    ) -> Dict[float, float]:
        """Cumulative WER over a characterization run.

        New error-prone locations are discovered at a decaying rate, so the
        cumulative unique-CE count saturates; the paper verifies that the
        last-10-minute change of a 2-hour run is below 3 %.
        """
        if duration_s <= 0 or step_s <= 0:
            raise ConfigurationError("duration_s and step_s must be positive")
        final = self.expected_wer(op, behavior, workload)
        tau = self.calibration.convergence_tau_s
        # Generate the sampling grid as k * step_s rather than accumulating
        # t += step_s: repeated addition drifts for non-dyadic steps and can
        # drop the final sample of the run.
        num_steps = int(math.floor(duration_s / step_s + 1e-9))
        series: Dict[float, float] = {}
        for k in range(1, num_steps + 1):
            t = k * step_s
            series[t] = final * (1.0 - math.exp(-t / tau))
        return series
