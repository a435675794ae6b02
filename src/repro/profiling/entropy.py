"""Data-pattern entropy (``HDP``) estimation — Section III.D, Eq. 5.

``HDP`` quantifies how varied the data written to DRAM is: the Shannon
entropy of the distribution of written 32-bit values, estimated from the
write accesses captured by the instrumentation.  A solid (all-zeros)
pattern has entropy 0; a uniformly random pattern approaches the number
of bits of the sampled value space.

The estimate is columnar: ``np.unique`` counts the sampled values, and
the counts are put back in first-seen order, so the entropy sum adds
the same terms in the same order as a running tally over the trace.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import DataError
from repro.memsys.access import Trace, as_access_columns


def shannon_entropy_bits(counts: Iterable[int]) -> float:
    """Shannon entropy (bits) of a discrete distribution given raw counts."""
    values = np.asarray(
        counts if isinstance(counts, np.ndarray) else list(counts), dtype=float
    )
    values = values[values > 0]
    if values.size == 0:
        raise DataError("entropy of an empty distribution is undefined")
    probabilities = values / values.sum()
    return float(-(probabilities * np.log2(probabilities)).sum())


class DataEntropyEstimator:
    """Estimate ``HDP`` from the written values of an access trace."""

    def __init__(self, value_bits: int = 32, max_samples: int = 200_000) -> None:
        if not 1 <= value_bits <= 64:
            raise DataError("value_bits must lie in [1, 64]")
        if max_samples <= 0:
            raise DataError("max_samples must be positive")
        self.value_bits = value_bits
        self.max_samples = max_samples

    def estimate(self, trace: Trace) -> float:
        """``HDP`` in bits over the first ``max_samples`` writes of a trace.

        Each sample is the *most significant* ``value_bits`` of the stored
        64-bit word: for IEEE-754 doubles these carry the sign/exponent/
        high mantissa, so distinct small integers map to distinct samples
        while a solid pattern still collapses to a single value.  Returns
        0.0 when the trace contains no writes (a read-only phase stores no
        new data pattern).
        """
        columns = as_access_columns(trace)
        written = columns.value[columns.is_write][: self.max_samples]
        if written.size == 0:
            return 0.0
        samples = (written >> np.uint64(64 - self.value_bits)) & \
            np.uint64((1 << self.value_bits) - 1)
        _, first_seen, counts = np.unique(samples, return_index=True, return_counts=True)
        return shannon_entropy_bits(counts[np.argsort(first_seen)])

    @property
    def max_entropy_bits(self) -> float:
        """Upper bound of the estimator given the value width."""
        return float(self.value_bits)
