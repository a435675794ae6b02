"""Tests for the thermal testbed: PID controller, plant and 4-channel testbed."""

import pytest

from repro.errors import ConfigurationError
from repro.thermal.pid import PidController, PidGains
from repro.thermal.testbed import HeaterPlant, ThermalTestbed, Thermocouple


class TestPidController:
    def test_output_is_clamped(self):
        controller = PidController(PidGains(kp=100.0), setpoint=70.0)
        assert controller.update(20.0, dt_s=1.0) == pytest.approx(100.0)
        assert controller.update(200.0, dt_s=1.0) == pytest.approx(0.0)

    def test_zero_error_with_no_integral_gives_zero_output(self):
        controller = PidController(PidGains(kp=2.0, ki=0.0, kd=0.0), setpoint=50.0)
        assert controller.update(50.0, dt_s=1.0) == pytest.approx(0.0)

    def test_integral_accumulates(self):
        controller = PidController(PidGains(kp=0.0, ki=1.0, kd=0.0), setpoint=51.0)
        first = controller.update(50.0, dt_s=1.0)
        second = controller.update(50.0, dt_s=1.0)
        assert second > first

    def test_reset_clears_state(self):
        controller = PidController(PidGains(kp=0.0, ki=1.0, kd=0.0), setpoint=51.0)
        controller.update(50.0, dt_s=1.0)
        controller.reset()
        assert controller.update(50.0, dt_s=1.0) == pytest.approx(1.0)

    def test_invalid_dt_rejected(self):
        with pytest.raises(ConfigurationError):
            PidController().update(50.0, dt_s=0.0)

    def test_negative_gains_rejected(self):
        with pytest.raises(ConfigurationError):
            PidGains(kp=-1.0)

    def test_invalid_output_range_rejected(self):
        with pytest.raises(ConfigurationError):
            PidController(output_min=10.0, output_max=5.0)


class TestHeaterPlant:
    def test_full_power_heats_towards_maximum(self):
        plant = HeaterPlant(ambient_c=45.0, max_rise_c=40.0, temperature_c=45.0)
        for _ in range(200):
            plant.step(100.0, dt_s=5.0)
        assert plant.temperature_c == pytest.approx(85.0, abs=0.5)

    def test_no_power_relaxes_to_ambient(self):
        plant = HeaterPlant(ambient_c=45.0, temperature_c=70.0)
        for _ in range(200):
            plant.step(0.0, dt_s=5.0)
        assert plant.temperature_c == pytest.approx(45.0, abs=0.5)

    def test_invalid_power_rejected(self):
        with pytest.raises(ConfigurationError):
            HeaterPlant().step(150.0, dt_s=1.0)

    def test_thermocouple_offset(self):
        sensor = Thermocouple(offset_c=0.5)
        assert sensor.read(50.0) == pytest.approx(50.5)


class TestThermalTestbed:
    @pytest.mark.parametrize("target", [50.0, 60.0, 70.0])
    def test_testbed_reaches_campaign_setpoints(self, target):
        testbed = ThermalTestbed(num_dimms=4)
        testbed.set_target(target)
        temperatures = testbed.settle(duration_s=2400.0, dt_s=5.0)
        assert all(abs(t - target) < 1.0 for t in temperatures.values())

    def test_channels_are_independent(self):
        testbed = ThermalTestbed(num_dimms=2)
        testbed.channels[0].set_target(50.0)
        testbed.channels[1].set_target(70.0)
        for _ in range(600):
            for channel in testbed.channels:
                channel.step(dt_s=5.0)
        temps = testbed.temperatures()
        assert temps["DIMM0"] == pytest.approx(50.0, abs=1.5)
        assert temps["DIMM1"] == pytest.approx(70.0, abs=1.5)

    def test_invalid_dimm_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ThermalTestbed(num_dimms=0)

    def test_settle_rejects_invalid_duration(self):
        with pytest.raises(ConfigurationError):
            ThermalTestbed().settle(duration_s=0.0)
