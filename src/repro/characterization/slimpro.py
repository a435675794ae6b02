"""SLIMpro management-processor model.

On the X-Gene2, a separate lightweight management core (SLIMpro) is the
gateway for everything the characterization framework needs: it
configures the MCU parameters (``TREFP``, ``VDD``), exposes the on-board
temperature sensors and reports every ECC event (with DIMM/rank/bank/
row/column) to the kernel.  This class models that interface and
enforces the platform limits the paper reports.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import units
from repro.dram.ecc import ErrorClass
from repro.dram.geometry import CellLocation, DramGeometry, RankLocation
from repro.dram.operating import OperatingPoint
from repro.dram.records import ErrorLog, ErrorRecord
from repro.errors import ConfigurationError


class Slimpro:
    """Management core: parameter configuration, sensors and error reporting."""

    def __init__(self, geometry: Optional[DramGeometry] = None) -> None:
        self.geometry = geometry or DramGeometry()
        self._trefp_s = units.NOMINAL_TREFP_S
        self._vdd_v = units.NOMINAL_VDD_V
        self._dimm_temperatures: Dict[int, float] = {
            dimm: units.NOMINAL_TEMP_C for dimm in range(self.geometry.num_dimms)
        }
        self.error_log = ErrorLog()

    # -- MCU parameter configuration -----------------------------------------
    def set_refresh_period(self, trefp_s: float) -> None:
        """Configure TREFP; the X-Gene2 accepts 64 ms up to 2.283 s."""
        if not units.NOMINAL_TREFP_S <= trefp_s <= units.MAX_TREFP_S + 1e-9:
            raise ConfigurationError(
                f"TREFP={trefp_s} s outside the configurable range "
                f"[{units.NOMINAL_TREFP_S}, {units.MAX_TREFP_S}] s"
            )
        self._trefp_s = trefp_s

    def set_supply_voltage(self, vdd_v: float) -> None:
        """Configure VDD; below 1.428 V the DRAM circuitry stops working."""
        if not units.MIN_VDD_V - 1e-9 <= vdd_v <= units.NOMINAL_VDD_V + 1e-9:
            raise ConfigurationError(
                f"VDD={vdd_v} V outside the stable range "
                f"[{units.MIN_VDD_V}, {units.NOMINAL_VDD_V}] V"
            )
        self._vdd_v = vdd_v

    # -- sensors ----------------------------------------------------------
    def record_dimm_temperature(self, dimm: int, temperature_c: float) -> None:
        if dimm not in self._dimm_temperatures:
            raise ConfigurationError(f"unknown DIMM index {dimm}")
        self._dimm_temperatures[dimm] = temperature_c

    def read_dimm_temperature(self, dimm: int) -> float:
        if dimm not in self._dimm_temperatures:
            raise ConfigurationError(f"unknown DIMM index {dimm}")
        return self._dimm_temperatures[dimm]

    def mean_dram_temperature(self) -> float:
        return sum(self._dimm_temperatures.values()) / len(self._dimm_temperatures)

    # -- operating point -------------------------------------------------------
    @property
    def operating_point(self) -> OperatingPoint:
        """The currently configured circuit parameters plus mean temperature."""
        return OperatingPoint(
            trefp_s=self._trefp_s,
            vdd_v=self._vdd_v,
            temperature_c=self.mean_dram_temperature(),
        )

    # -- ECC event reporting ---------------------------------------------------
    def report_error(
        self,
        error_class: ErrorClass,
        location: CellLocation,
        timestamp_s: float,
        workload: str = "",
    ) -> ErrorRecord:
        """Log one ECC event exactly as the kernel EDAC driver would see it."""
        self.geometry.validate_cell(location)
        record = ErrorRecord(
            error_class=error_class,
            location=location,
            timestamp_s=timestamp_s,
            workload=workload,
        )
        self.error_log.append(record)
        return record

    def errors_for_rank(self, rank: RankLocation) -> int:
        """Number of logged events on one DIMM/rank."""
        return sum(1 for record in self.error_log if record.rank_location == rank)

    def clear_error_log(self) -> None:
        self.error_log.clear()
