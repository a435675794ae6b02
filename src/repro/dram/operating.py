"""Operating point of the DRAM subsystem.

An operating point bundles the two circuit parameters the study scales
(refresh period ``TREFP`` and supply voltage ``VDD``) with the DIMM
temperature the DIMM heaters hold during a run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class OperatingPoint:
    """DRAM circuit parameters plus the environmental temperature."""

    trefp_s: float = units.NOMINAL_TREFP_S
    vdd_v: float = units.NOMINAL_VDD_V
    temperature_c: float = units.NOMINAL_TEMP_C

    def __post_init__(self) -> None:
        if self.trefp_s <= 0:
            raise ConfigurationError("trefp_s must be positive")
        if not units.NOMINAL_TREFP_S <= self.trefp_s <= units.MAX_TREFP_S + 1e-9:
            raise ConfigurationError(
                f"trefp_s={self.trefp_s} outside the configurable range "
                f"[{units.NOMINAL_TREFP_S}, {units.MAX_TREFP_S}] of the platform"
            )
        if not units.MIN_VDD_V - 1e-9 <= self.vdd_v <= units.NOMINAL_VDD_V + 1e-9:
            raise ConfigurationError(
                f"vdd_v={self.vdd_v} outside the stable range "
                f"[{units.MIN_VDD_V}, {units.NOMINAL_VDD_V}] found in the paper"
            )
        if not 20.0 <= self.temperature_c <= units.MAX_TEMP_C + 1e-9:
            raise ConfigurationError(
                f"temperature_c={self.temperature_c} outside the studied range "
                f"[20, {units.MAX_TEMP_C}]"
            )

    # -- convenience constructor -------------------------------------------
    @classmethod
    def relaxed(cls, trefp_s: float, temperature_c: float = 50.0) -> "OperatingPoint":
        """Scaled refresh period with the lowered VDD used throughout Sec. V."""
        return cls(trefp_s=trefp_s, vdd_v=units.MIN_VDD_V, temperature_c=temperature_c)
