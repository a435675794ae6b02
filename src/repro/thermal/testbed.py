"""Thermal testbed: heaters, thermocouples and the 4-channel controller.

The paper attaches a resistive heating element and a thermocouple to
each DIMM and drives them with closed-loop PID controllers so every DIMM
can be held at 50, 60 or 70 C during characterization.  The plant model
here is a first-order thermal RC: the DIMM heats towards a temperature
proportional to the applied heater power and relaxes towards ambient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import ConfigurationError
from repro.thermal.pid import PidController, PidGains


@dataclass
class HeaterPlant:
    """First-order thermal model of one DIMM with its heating element."""

    ambient_c: float = 45.0
    #: steady-state temperature rise (deg C) at 100 % heater power
    max_rise_c: float = 40.0
    #: thermal time constant of the DIMM + adapter assembly
    time_constant_s: float = 60.0
    temperature_c: float = 45.0

    def step(self, heater_power_pct: float, dt_s: float) -> float:
        """Advance the plant by ``dt_s`` seconds with the given heater power."""
        if not 0.0 <= heater_power_pct <= 100.0:
            raise ConfigurationError("heater power must be within [0, 100] %")
        if dt_s <= 0:
            raise ConfigurationError("dt_s must be positive")
        target = self.ambient_c + self.max_rise_c * heater_power_pct / 100.0
        alpha = min(dt_s / self.time_constant_s, 1.0)
        self.temperature_c += (target - self.temperature_c) * alpha
        return self.temperature_c


@dataclass
class Thermocouple:
    """Temperature sensor with a small, deterministic measurement offset."""

    offset_c: float = 0.0

    def read(self, true_temperature_c: float) -> float:
        return true_temperature_c + self.offset_c


@dataclass
class ThermalChannel:
    """One DIMM: plant + sensor + PID loop."""

    name: str
    plant: HeaterPlant = field(default_factory=HeaterPlant)
    sensor: Thermocouple = field(default_factory=Thermocouple)
    controller: PidController = field(default_factory=lambda: PidController(PidGains()))

    def set_target(self, temperature_c: float) -> None:
        self.controller.setpoint = temperature_c
        self.controller.reset()

    def step(self, dt_s: float) -> float:
        measurement = self.sensor.read(self.plant.temperature_c)
        power = self.controller.update(measurement, dt_s)
        return self.plant.step(power, dt_s)

    @property
    def temperature_c(self) -> float:
        return self.sensor.read(self.plant.temperature_c)


class ThermalTestbed:
    """Per-DIMM temperature control for the whole server (4 DIMMs)."""

    def __init__(self, num_dimms: int = 4, ambient_c: float = 45.0) -> None:
        if num_dimms <= 0:
            raise ConfigurationError("num_dimms must be positive")
        self.channels: List[ThermalChannel] = [
            ThermalChannel(
                name=f"DIMM{i}",
                plant=HeaterPlant(ambient_c=ambient_c, temperature_c=ambient_c),
            )
            for i in range(num_dimms)
        ]

    def set_target(self, temperature_c: float) -> None:
        """Set the same target temperature on every DIMM (as in the campaign)."""
        for channel in self.channels:
            channel.set_target(temperature_c)

    def settle(self, duration_s: float = 1800.0, dt_s: float = 5.0) -> Dict[str, float]:
        """Run the control loops until ``duration_s`` elapses.

        Returns the final per-DIMM temperatures.  A half-hour settle with
        the default plant reaches the setpoint to within a fraction of a
        degree, which is what the campaign assumes before starting a run.
        """
        if duration_s <= 0 or dt_s <= 0:
            raise ConfigurationError("duration_s and dt_s must be positive")
        steps = int(duration_s / dt_s)
        for _ in range(steps):
            for channel in self.channels:
                channel.step(dt_s)
        return self.temperatures()

    def temperatures(self) -> Dict[str, float]:
        return {channel.name: channel.temperature_c for channel in self.channels}
