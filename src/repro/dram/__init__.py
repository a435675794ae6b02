"""DRAM reliability simulation substrate.

Two complementary simulators are provided:

* :class:`~repro.dram.cells.CellArraySimulator` — an explicit,
  mechanism-level cell array (retention sampling, VRT, row-hammer
  interference, real SECDED decoding) for small arrays;
* :class:`~repro.dram.statistical.StatisticalErrorModel` — a calibrated
  closed-form model used by the characterization campaigns that need the
  paper's 8 GB footprints.
"""

from repro.dram.address_map import AddressMapper
from repro.dram.calibration import (
    DEFAULT_CALIBRATION,
    DramCalibration,
    RetentionCalibration,
    UeCalibration,
    WorkloadEffectCalibration,
)
from repro.dram.cells import BatchReadResult, CellArrayConfig, CellArraySimulator
from repro.dram.ecc import (
    BatchDecodeResult,
    DecodeResult,
    ErrorClass,
    SecdedCode,
    bits_to_words,
    classify_bit_errors,
    words_to_bits,
)
from repro.dram.geometry import CellLocation, DramGeometry, RankLocation, small_geometry
from repro.dram.operating import OperatingPoint
from repro.dram.records import ErrorLog, ErrorRecord
from repro.dram.retention import bit_failure_probability_grid, sample_retention_times
from repro.dram.statistical import StatisticalErrorModel, WorkloadBehavior
from repro.dram.variation import (
    DEFAULT_RANK_UE_WEIGHTS,
    DEFAULT_RANK_WER_FACTORS,
    RankProfile,
    VariationProfile,
)

__all__ = [
    "AddressMapper",
    "DEFAULT_CALIBRATION",
    "DramCalibration",
    "RetentionCalibration",
    "UeCalibration",
    "WorkloadEffectCalibration",
    "BatchDecodeResult",
    "BatchReadResult",
    "CellArrayConfig",
    "CellArraySimulator",
    "DecodeResult",
    "ErrorClass",
    "SecdedCode",
    "bits_to_words",
    "classify_bit_errors",
    "words_to_bits",
    "CellLocation",
    "DramGeometry",
    "RankLocation",
    "small_geometry",
    "OperatingPoint",
    "ErrorLog",
    "ErrorRecord",
    "bit_failure_probability_grid",
    "sample_retention_times",
    "StatisticalErrorModel",
    "WorkloadBehavior",
    "DEFAULT_RANK_UE_WEIGHTS",
    "DEFAULT_RANK_WER_FACTORS",
    "RankProfile",
    "VariationProfile",
]
