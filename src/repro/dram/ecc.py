"""SECDED ECC outcomes (single-error-correct, double-error-detect).

The platform protects every 64-bit word with 8 check bits (a 72,64
extended Hamming code).  Errors are classified exactly as in Table I of
the paper:

* 1 corrupted bit   -> corrected            (CE)
* 2 corrupted bits  -> detected, uncorrected (UE)
* >2 corrupted bits -> may escape detection  (SDC)

The campaigns sample WER and UE outcomes from the statistical model, so
the library needs only this classification.  A codec that makes it
emerge from real syndrome decoding lives with the tests
(``tests/oracles/ecc.py``), where the cell-array cross-check uses it.
"""

from __future__ import annotations

from enum import Enum

from repro.errors import ConfigurationError


class ErrorClass(Enum):
    """Outcome of reading one ECC codeword."""

    NO_ERROR = "none"
    CORRECTED = "CE"
    UNCORRECTABLE = "UE"
    SILENT = "SDC"


def classify_bit_errors(num_corrupted_bits: int) -> ErrorClass:
    """Table I of the paper: classification by the number of corrupted bits."""
    if num_corrupted_bits < 0:
        raise ConfigurationError("num_corrupted_bits must be non-negative")
    if num_corrupted_bits == 0:
        return ErrorClass.NO_ERROR
    if num_corrupted_bits == 1:
        return ErrorClass.CORRECTED
    if num_corrupted_bits == 2:
        return ErrorClass.UNCORRECTABLE
    return ErrorClass.SILENT
