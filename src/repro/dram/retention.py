"""Retention-time physics of DRAM cells.

Cell retention times follow a lognormal distribution across the cell
population [31], shrink exponentially with temperature [19], and are
slightly reduced by lowering the supply voltage.  The closed-form
statistical model evaluates these functions for every campaign point.

The standard normal CDF is an in-repo port of the Cephes ``ndtr``,
``erf`` and ``erfc`` routines (S. L. Moshier, Cephes Mathematical
Library), the code ``scipy.special.ndtr`` runs.  It keeps their
coefficient tables and operation order, so it returns the same bits as
scipy without loading it.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple, Union

import numpy as np

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


_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843E2

# erfc(x) = exp(-x^2) P(x)/Q(x) for 1 <= x < 8.
_ERFC_P = (
    2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
    4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
    9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2,
)
_ERFC_Q = (
    1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
    9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
    1.65666309194161350182E3, 5.57535340817727675546E2,
)
# erfc(x) = exp(-x^2) R(x)/S(x) for x >= 8.
_ERFC_R = (
    5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
    6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0,
)
_ERFC_S = (
    2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
    1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0,
)
# erf(x) = x T(x^2)/U(x^2) for |x| <= 1.
_ERF_T = (
    9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
    7.00332514112805075473E3, 5.55923013010394962768E4,
)
_ERF_U = (
    3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
    2.26290000613890934246E4, 4.92673942608635921086E4,
)


def _polevl(x: float, coefficients: Tuple[float, ...]) -> float:
    """Horner evaluation of a polynomial, highest degree first."""
    result = coefficients[0]
    for c in coefficients[1:]:
        result = result * x + c
    return result


def _p1evl(x: float, coefficients: Tuple[float, ...]) -> float:
    """Horner evaluation of a monic polynomial whose leading 1 is implied."""
    result = x + coefficients[0]
    for c in coefficients[1:]:
        result = result * x + c
    return result


def _erf(x: float) -> float:
    """Cephes ``erf`` for a non-NaN ``x``."""
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(a: float) -> float:
    """Cephes ``erfc`` for a non-NaN ``a``; underflows to 0 (2 below zero)."""
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0.0 else 0.0
    if x < 8.0:
        y = math.exp(z) * _polevl(x, _ERFC_P) / _p1evl(x, _ERFC_Q)
    else:
        y = math.exp(z) * _polevl(x, _ERFC_R) / _p1evl(x, _ERFC_S)
    return 2.0 - y if a < 0.0 else y


def _ndtr(a: float) -> float:
    """Standard normal CDF, bit-identical to ``scipy.special.ndtr``."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y


def _failure_z_score(
    effective_refresh_s: float,
    temperature_c: float,
    vdd_v: float,
    cal: RetentionCalibration,
) -> float:
    """Standardised log-retention z-score of one operating point."""
    if effective_refresh_s <= 0:
        raise ConfigurationError("effective_refresh_s must be positive")
    mu = log_median_retention(temperature_c, vdd_v, cal)
    return (math.log(effective_refresh_s) - mu) / cal.log_sigma


def bit_failure_probability_grid(
    effective_refresh_s: Union[float, np.ndarray],
    temperature_c: Union[float, np.ndarray],
    vdd_v: Union[float, np.ndarray] = 1.5,
    calibration: Optional[RetentionCalibration] = None,
) -> np.ndarray:
    """Probability that a cell's retention time is below the refresh interval.

    This is the lognormal CDF evaluated at the effective refresh interval.
    A longer refresh period, a higher temperature or a lower VDD all push
    the operating point further into the retention-time tail, which is
    what produces the exponential growth of WER with TREFP (Fig. 7f).

    ``effective_refresh_s``, ``temperature_c`` and ``vdd_v`` are
    broadcast against each other.  Every point is scalar arithmetic
    (``math.log`` differs from ``np.log`` in the last ulp): its z-score,
    then the in-repo normal CDF, which returns the bits of scipy's
    ``ndtr`` (what ``norm.cdf`` evaluates for a standard normal).
    """
    cal = calibration or DEFAULT_CALIBRATION.retention
    refresh, temps, vdds = np.broadcast_arrays(
        np.asarray(effective_refresh_s, dtype=float),
        np.asarray(temperature_c, dtype=float),
        np.asarray(vdd_v, dtype=float),
    )
    probabilities = np.empty(refresh.shape, dtype=float)
    for index in np.ndindex(refresh.shape):
        probabilities[index] = _ndtr(_failure_z_score(
            float(refresh[index]), float(temps[index]), float(vdds[index]), cal
        ))
    return probabilities
