"""DRAM reuse time (``Treuse``) estimation — Section III.D, Eq. 4.

``Treuse`` is the average time between accesses to the same 64-bit word.
The paper computes it from a DynamoRIO instruction trace as
``T_i_reuse = CPI x D_i_reuse`` where ``D_i_reuse`` is the number of
instructions executed since the previous reference to the address, and
averages over all memory accesses.  The estimator below follows that
definition on the instrumented trace; because the trace comes from a
miniature kernel, the result is scaled by the ratio of the paper's 8 GB
footprint to the miniature allocation (reuse gaps grow proportionally
with the data set for these workloads).

:func:`reuse_statistics` is columnar: a stable argsort by word groups
each word's accesses in program order, and a diff of their instruction
indices gives every reuse distance at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import units
from repro.errors import DataError
from repro.memsys.access import Trace, as_access_columns


@dataclass(frozen=True)
class ReuseStatistics:
    """Summary of the word-level reuse behaviour of a trace."""

    mean_reuse_distance_instructions: float   #: mean D_reuse over reused accesses
    reused_access_fraction: float             #: accesses that had a prior reference
    unique_words: int                         #: distinct 64-bit words touched
    total_accesses: int

    @property
    def accesses_per_word(self) -> float:
        if self.unique_words == 0:
            return 0.0
        return self.total_accesses / self.unique_words


def reuse_statistics(trace: Trace) -> ReuseStatistics:
    """Word-granularity reuse distances of an access trace.

    ``D_reuse`` of an access is its instruction index minus that of the
    previous access to the same 64-bit word.  The distances are summed
    in program order, so the float total is the one a running sum over
    the trace would give.
    """
    columns = as_access_columns(trace)
    total = len(columns)
    if total == 0:
        raise DataError("cannot compute reuse statistics of an empty trace")
    words = columns.word_address
    order = np.argsort(words, kind="stable")
    words = words[order]
    instructions = columns.instruction_index[order]
    repeat = words[1:] == words[:-1]
    reused = int(np.count_nonzero(repeat))
    distances = np.zeros(total, dtype=np.float64)
    distances[order[1:][repeat]] = (instructions[1:] - instructions[:-1])[repeat]
    total_distance = float(np.cumsum(distances)[-1])
    mean_distance = total_distance / reused if reused else float(total)
    return ReuseStatistics(
        mean_reuse_distance_instructions=mean_distance,
        reused_access_fraction=reused / total,
        unique_words=total - reused,
        total_accesses=total,
    )


class ReuseTimeEstimator:
    """Convert instruction-level reuse distances into seconds (Eq. 4)."""

    def __init__(self, cpu_frequency_hz: float = units.CPU_FREQ_HZ) -> None:
        if cpu_frequency_hz <= 0:
            raise DataError("cpu_frequency_hz must be positive")
        self.cpu_frequency_hz = cpu_frequency_hz

    def estimate(
        self,
        statistics: ReuseStatistics,
        cycles_per_instruction: float,
        footprint_scale: float = 1.0,
    ) -> float:
        """``Treuse`` in seconds.

        ``cycles_per_instruction`` is the *wall-clock* CPI of the whole
        program (total cycles / total instructions divided across threads),
        so parallel versions — which retire more instructions per cycle —
        naturally obtain a shorter reuse time, as observed for backprop and
        srad in Table II.
        """
        if cycles_per_instruction <= 0:
            raise DataError("cycles_per_instruction must be positive")
        if footprint_scale <= 0:
            raise DataError("footprint_scale must be positive")
        seconds_per_instruction = cycles_per_instruction / self.cpu_frequency_hz
        return (
            statistics.mean_reuse_distance_instructions
            * seconds_per_instruction
            * footprint_scale
        )
