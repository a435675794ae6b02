"""DRAM reliability simulation substrate.

The characterization campaigns sample WER and UE outcomes from
:class:`~repro.dram.statistical.StatisticalErrorModel`, a calibrated
closed-form model of retention failures that scales to the paper's 8 GB
footprints.  Around it sit the retention physics, the per-rank variation
profile, the DIMM/rank geometry and address mapping, the operating point
and the Table I error classes.  A mechanism-level cell array with real
SECDED decoding cross-checks the model from the tests
(``tests/oracles/cells.py``).
"""

from repro.dram.address_map import AddressMapper
from repro.dram.calibration import (
    DEFAULT_CALIBRATION,
    DramCalibration,
    RetentionCalibration,
    UeCalibration,
    WorkloadEffectCalibration,
)
from repro.dram.ecc import ErrorClass, classify_bit_errors
from repro.dram.geometry import DramGeometry, RankLocation
from repro.dram.operating import OperatingPoint
from repro.dram.retention import bit_failure_probability_grid
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
    "ErrorClass",
    "classify_bit_errors",
    "DramGeometry",
    "RankLocation",
    "OperatingPoint",
    "bit_failure_probability_grid",
    "StatisticalErrorModel",
    "WorkloadBehavior",
    "DEFAULT_RANK_UE_WEIGHTS",
    "DEFAULT_RANK_WER_FACTORS",
    "RankProfile",
    "VariationProfile",
]
