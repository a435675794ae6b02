"""Retention-time physics of DRAM cells.

Cell retention times follow a lognormal distribution across the cell
population [31], shrink exponentially with temperature [19], and are
slightly reduced by lowering the supply voltage.  These functions are
shared by the explicit cell-array simulator and by the closed-form
statistical model used for full-scale campaigns.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np
from scipy.special import ndtr

from repro.dram.calibration import DEFAULT_CALIBRATION, RetentionCalibration
from repro.errors import ConfigurationError


def log_median_retention(
    temperature_c: float,
    vdd_v: float,
    calibration: Optional[RetentionCalibration] = None,
) -> float:
    """Natural log of the median cell retention time at the operating point."""
    cal = calibration or DEFAULT_CALIBRATION.retention
    delta_t = temperature_c - cal.reference_temperature_c
    delta_v = cal.nominal_vdd_v - vdd_v
    return (
        cal.log_median_retention_50c
        - cal.temperature_slope_per_c * delta_t
        - cal.vdd_slope_per_volt * delta_v
    )


def median_retention_s(
    temperature_c: float,
    vdd_v: float = 1.5,
    calibration: Optional[RetentionCalibration] = None,
) -> float:
    """Median cell retention time (seconds) at the operating point."""
    return math.exp(log_median_retention(temperature_c, vdd_v, calibration))


def _failure_z_score(
    effective_refresh_s: float,
    temperature_c: float,
    vdd_v: float,
    cal: RetentionCalibration,
) -> float:
    """Standardised log-retention z-score of one operating point.

    Shared by the scalar and grid failure-probability paths: both must
    produce bit-identical values, so the guard and the ``math.log``
    arithmetic exist exactly once.
    """
    if effective_refresh_s <= 0:
        raise ConfigurationError("effective_refresh_s must be positive")
    mu = log_median_retention(temperature_c, vdd_v, cal)
    return (math.log(effective_refresh_s) - mu) / cal.log_sigma


def bit_failure_probability(
    effective_refresh_s: float,
    temperature_c: float,
    vdd_v: float = 1.5,
    calibration: Optional[RetentionCalibration] = None,
) -> float:
    """Probability that a single cell's retention time is below the refresh interval.

    This is the lognormal CDF evaluated at the effective refresh interval.
    A longer refresh period, a higher temperature or a lower VDD all push
    the operating point further into the retention-time tail, which is
    what produces the exponential growth of WER with TREFP (Fig. 7f).
    """
    cal = calibration or DEFAULT_CALIBRATION.retention
    z = _failure_z_score(effective_refresh_s, temperature_c, vdd_v, cal)
    # This per-point function is the reference the batched grid is pinned
    # and timed against, so it keeps its original ``norm.cdf`` call.
    # scipy.stats is imported here, on first use, so that ``import repro``
    # does not pay about a second for it.
    from scipy import stats

    return float(stats.norm.cdf(z))


def bit_failure_probability_grid(
    effective_refresh_s: Union[float, np.ndarray],
    temperature_c: Union[float, np.ndarray],
    vdd_v: Union[float, np.ndarray] = 1.5,
    calibration: Optional[RetentionCalibration] = None,
) -> np.ndarray:
    """Vectorized :func:`bit_failure_probability` over a grid of points.

    ``effective_refresh_s``, ``temperature_c`` and ``vdd_v`` are
    broadcast against each other.  Each z-score is computed with the
    same per-point scalar arithmetic as the scalar function (``math.log``
    and ``math.exp`` differ from their numpy ufunc counterparts in the
    last ulp, so the cheap per-point math stays scalar); only the
    normal-CDF evaluation — the expensive part, one scipy call per grid
    instead of per point — is batched.  It calls ``ndtr``, which is what
    ``norm.cdf`` evaluates for a standard normal, elementwise.  Every entry
    is therefore bit-identical to the scalar call.
    """
    cal = calibration or DEFAULT_CALIBRATION.retention
    refresh, temps, vdds = np.broadcast_arrays(
        np.asarray(effective_refresh_s, dtype=float),
        np.asarray(temperature_c, dtype=float),
        np.asarray(vdd_v, dtype=float),
    )
    z = np.empty(refresh.shape, dtype=float)
    for index in np.ndindex(refresh.shape):
        z[index] = _failure_z_score(
            float(refresh[index]), float(temps[index]), float(vdds[index]), cal
        )
    return np.asarray(ndtr(z), dtype=float)


def sample_retention_times(
    n_cells: int,
    temperature_c: float,
    vdd_v: float = 1.5,
    calibration: Optional[RetentionCalibration] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Sample per-cell retention times (seconds) for an explicit cell array."""
    if n_cells <= 0:
        raise ConfigurationError("n_cells must be positive")
    cal = calibration or DEFAULT_CALIBRATION.retention
    generator = rng or np.random.default_rng()
    mu = log_median_retention(temperature_c, vdd_v, cal)
    return np.exp(generator.normal(mu, cal.log_sigma, size=n_cells))


def retention_halving_temperature(calibration: Optional[RetentionCalibration] = None) -> float:
    """Temperature increase (deg C) that halves the median retention time."""
    cal = calibration or DEFAULT_CALIBRATION.retention
    return math.log(2.0) / cal.temperature_slope_per_c
