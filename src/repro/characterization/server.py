"""The X-Gene2 server model: the experimental platform of the paper.

The server bundles the four DDR3 DIMMs with their per-rank reliability
variation, the SLIMpro management core and the statistical error model
the campaigns sample WER from.  The characterization experiments drive
everything through this class, mirroring how the paper's framework
drives the real machine.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.calibration import DEFAULT_CALIBRATION, DramCalibration
from repro.dram.geometry import DramGeometry
from repro.dram.operating import OperatingPoint
from repro.dram.statistical import StatisticalErrorModel
from repro.dram.variation import VariationProfile
from repro.characterization.slimpro import Slimpro


class XGene2Server:
    """Software model of the characterization platform."""

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
        self.slimpro = Slimpro(self.geometry)
        self.error_model = StatisticalErrorModel(
            geometry=self.geometry,
            variation=self.variation,
            calibration=self.calibration,
            seed=seed,
        )
        self.seed = seed

    # ------------------------------------------------------------------
    def configure(self, op: OperatingPoint) -> OperatingPoint:
        """Apply an operating point: MCU parameters plus DIMM temperatures.

        The campaign waits for the DIMM heaters to settle before every
        run, so each DIMM is recorded at the target temperature.
        """
        self.slimpro.set_refresh_period(op.trefp_s)
        self.slimpro.set_supply_voltage(op.vdd_v)
        for dimm_index in range(self.geometry.num_dimms):
            self.slimpro.record_dimm_temperature(dimm_index, op.temperature_c)
        return self.slimpro.operating_point

    @property
    def operating_point(self) -> OperatingPoint:
        return self.slimpro.operating_point
