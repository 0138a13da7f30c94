"""Dual-lobe directive scattering plus specular reflection off a flat wall.

Geometry convention
-------------------
Observation angles are signed degrees from the surface normal inside the
incidence plane: positive on the forward (specular) side, negative on the
source (backscatter) side. The specular direction is at +theta_i, the
backscatter direction at -theta_i. The measured arc of 10..170 degrees along
the wall maps to signed angles via ``signed = arc - 90`` (the source sits at
arc 90 - theta_i, so the specular peak appears at arc 90 + theta_i).

Model
-----
Each lobe has gain ((1 + cos(psi)) / 2) ** alpha where psi is the angle to
the lobe axis; the forward lobe points along the specular direction, the
back lobe along the backscatter direction, mixed by lambda_mix. The mixed
pattern is normalized to integrate to 1 over the upper hemisphere, making
the scattered term carry exactly S^2 * cos(theta_i) of the incident power.

The received sample at an observation angle adds, in power (the wideband
sounder averages out phase):

  * diffuse term  S^2 * cos(theta_i) * p_hat(angle) * diffuse_solid_angle_sr
  * specular term |gamma_perp|^2 * G(angle - theta_i)

G is a Gaussian main lobe whose half-power width combines the antenna HPBW
with a fixed illuminated-spot spread (the finite spot on the wall widens the
specular return seen from the 1.5 m arc). Both terms share the spherical
spreading over the TX/RX distances, so the peak-normalized pattern is
invariant to scaling or swapping the distances. The diffuse coupling solid
angle is the stand-in for the receive-side collection constant that ties a
per-steradian scattered density to the dimensionless specular power ratio.

numpy is imported inside the functions that build arrays, so importing this
module (and with it ``mmwprop`` and the CLI) does not load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    InvariantViolationError,
    MissingSpecularAngleError,
    OneSidedPatternError,
    PerfectTransmissionError,
)
from .reflection import fresnel_gamma_perp

ARC_LIMIT_DEG = 80.0  # measured arc spans 10..170 deg, i.e. signed -80..+80
DEFAULT_OBSERVATION_ANGLES_DEG = tuple(float(a) for a in range(-80, 81, 10))
DEFAULT_ARC_RADIUS_M = 1.5
DEFAULT_DIFFUSE_SOLID_ANGLE_SR = 0.01
DEFAULT_SPECULAR_SPREAD_DEG = 9.0

BACKSCATTER_MARGIN_THRESHOLD_DB = 20.0
SMOOTH_WINDOW_DEG = 10.0
SMOOTH_WINDOW_THRESHOLD_DB = 10.0

_LN2 = math.log(2.0)
_ANGLE_TOL_DEG = 1e-6


def arc_to_signed(arc_angle_deg: float) -> float:
    """Arc position along the wall (10..170 deg) to signed normal-relative angle."""
    return arc_angle_deg - 90.0


def signed_to_arc(observation_angle_deg: float) -> float:
    return observation_angle_deg + 90.0


@dataclass(frozen=True)
class DsParameters:
    """Dual-lobe directive scattering parameters.

    Defaults reproduce a drywall-like surface: most energy in the forward
    lobe, moderate lobe sharpness, scattering coefficient 0.4.
    """

    s_coeff: float = 0.4
    lambda_mix: float = 0.9
    alpha_r: int = 4
    alpha_i: int = 4

    def __post_init__(self):
        if not 0.0 <= self.s_coeff <= 1.0:
            raise InvariantViolationError("s_coeff must lie in [0, 1]")
        if not 0.0 <= self.lambda_mix <= 1.0:
            raise InvariantViolationError("lambda_mix must lie in [0, 1]")
        for name in ("alpha_r", "alpha_i"):
            value = getattr(self, name)
            if value != int(value) or value < 1:
                raise InvariantViolationError(f"{name} must be a positive integer")
            object.__setattr__(self, name, int(value))


@dataclass(frozen=True)
class ScatterGeometry:
    """One observation point on the measurement arc."""

    incident_angle_deg: float
    observation_angle_deg: float  # signed from normal; + = specular side
    tx_distance_m: float = DEFAULT_ARC_RADIUS_M
    rx_distance_m: float = DEFAULT_ARC_RADIUS_M

    def __post_init__(self):
        if not 0.0 <= self.incident_angle_deg < 90.0:
            raise InvariantViolationError("incident_angle_deg must lie in [0, 90)")
        if abs(self.observation_angle_deg) > ARC_LIMIT_DEG + _ANGLE_TOL_DEG:
            raise InvariantViolationError(
                f"observation_angle_deg must lie within the measured arc "
                f"[-{ARC_LIMIT_DEG:.0f}, {ARC_LIMIT_DEG:.0f}]")
        if not (self.tx_distance_m > 0 and self.rx_distance_m > 0):
            raise InvariantViolationError("distances must be > 0")


@dataclass(frozen=True)
class ScatterPatternPoint:
    observation_angle_deg: float
    relative_power_db: float  # relative to the pattern peak, so <= 0

    def __post_init__(self):
        if self.relative_power_db > 1e-12:
            raise InvariantViolationError("relative_power_db must be <= 0")


def sweep_geometries(
    incident_angle_deg: float,
    observation_angles_deg: Sequence[float] = DEFAULT_OBSERVATION_ANGLES_DEG,
    tx_distance_m: float = DEFAULT_ARC_RADIUS_M,
    rx_distance_m: float = DEFAULT_ARC_RADIUS_M,
) -> tuple[ScatterGeometry, ...]:
    """Build a sweep sharing one incidence geometry."""
    return tuple(
        ScatterGeometry(incident_angle_deg, float(a), tx_distance_m, rx_distance_m)
        for a in observation_angles_deg
    )


def ds_lobe_gain(psi_deg, alpha: int):
    """Single-lobe gain ((1 + cos(psi)) / 2) ** alpha; 1 on axis, 0 anti-axis."""
    import numpy as np
    if alpha < 1:
        raise InvariantViolationError("alpha must be >= 1")
    return ((1.0 + np.cos(np.radians(psi_deg))) / 2.0) ** alpha


def ds_pattern_value(polar_deg, azimuth_deg, incident_angle_deg: float,
                     params: DsParameters):
    """Unnormalized dual-lobe value for a hemisphere direction.

    polar_deg is measured from the surface normal, azimuth_deg from the
    source side of the incidence plane (the source lies at azimuth 0).
    Accepts scalars or numpy arrays.
    """
    import numpy as np
    theta_i = math.radians(incident_angle_deg)
    polar = np.radians(polar_deg)
    azimuth = np.radians(azimuth_deg)
    sin_p, cos_p = np.sin(polar), np.cos(polar)
    # specular axis (-sin ti, 0, cos ti); backscatter axis (+sin ti, 0, cos ti)
    cos_psi_r = -sin_p * np.cos(azimuth) * math.sin(theta_i) + cos_p * math.cos(theta_i)
    cos_psi_i = sin_p * np.cos(azimuth) * math.sin(theta_i) + cos_p * math.cos(theta_i)
    forward = ((1.0 + cos_psi_r) / 2.0) ** params.alpha_r
    backward = ((1.0 + cos_psi_i) / 2.0) ** params.alpha_i
    return params.lambda_mix * forward + (1.0 - params.lambda_mix) * backward


def ds_pattern_inplane(observation_angle_deg, incident_angle_deg: float,
                       params: DsParameters):
    """Dual-lobe value at a signed in-plane observation angle."""
    import numpy as np
    t = np.radians(observation_angle_deg)
    theta_i = math.radians(incident_angle_deg)
    forward = ((1.0 + np.cos(t - theta_i)) / 2.0) ** params.alpha_r
    backward = ((1.0 + np.cos(t + theta_i)) / 2.0) ** params.alpha_i
    return params.lambda_mix * forward + (1.0 - params.lambda_mix) * backward


def ds_normalization(params: DsParameters, incident_angle_deg: float,
                     polar_points: int = 64, azimuth_points: int = 128) -> float:
    """Hemisphere integral of the dual-lobe pattern.

    Gauss-Legendre in the polar coordinate times a uniform (trapezoid on a
    periodic interval) rule in azimuth. 64 x 128 keeps the relative error
    below 1e-6 against doubled resolution for lobe exponents in normal use.
    """
    import numpy as np
    nodes, weights = np.polynomial.legendre.leggauss(polar_points)
    polar = (nodes + 1.0) * (math.pi / 4.0)          # map [-1, 1] -> [0, pi/2]
    polar_w = weights * (math.pi / 4.0)
    azimuth = np.linspace(0.0, 2.0 * math.pi, azimuth_points, endpoint=False)
    azimuth_w = 2.0 * math.pi / azimuth_points

    grid_polar, grid_azimuth = np.meshgrid(polar, azimuth, indexing="ij")
    values = ds_pattern_value(np.degrees(grid_polar), np.degrees(grid_azimuth),
                              incident_angle_deg, params)
    integrand = values * np.sin(grid_polar)
    return float((integrand.sum(axis=1) * azimuth_w * polar_w).sum())


def _specular_gain(offset_deg, antenna_hpbw_deg: float, spread_deg: float):
    import numpy as np
    width = math.hypot(antenna_hpbw_deg, spread_deg)
    return np.exp(-4.0 * _LN2 * (np.asarray(offset_deg) / width) ** 2)


def predict_pattern(
    geometries: Sequence[ScatterGeometry],
    eps_r: float,
    params: DsParameters | None = None,
    antenna_hpbw_deg: float = 8.0,
    *,
    diffuse_solid_angle_sr: float = DEFAULT_DIFFUSE_SOLID_ANGLE_SR,
    specular_spread_deg: float = DEFAULT_SPECULAR_SPREAD_DEG,
) -> list[ScatterPatternPoint]:
    """Received power vs observation angle, normalized to a 0 dB peak.

    The sweep must share one incidence geometry and contain the specular
    angle, where the pattern peaks. antenna_hpbw_deg must lie in (0, 180);
    the spread and the diffuse solid angle must be >= 0.
    """
    import numpy as np
    if params is None:
        params = DsParameters()
    if not 0.0 < antenna_hpbw_deg < 180.0:
        raise InvariantViolationError("antenna_hpbw_deg must lie in (0, 180)")
    if not specular_spread_deg >= 0.0:
        raise InvariantViolationError("specular_spread_deg must be >= 0")
    if not diffuse_solid_angle_sr >= 0.0:
        raise InvariantViolationError("diffuse_solid_angle_sr must be >= 0")
    if len(geometries) < 2:
        raise InvariantViolationError("sweep needs at least 2 observation angles")
    first = geometries[0]
    for g in geometries[1:]:
        if (g.incident_angle_deg != first.incident_angle_deg
                or g.tx_distance_m != first.tx_distance_m
                or g.rx_distance_m != first.rx_distance_m):
            raise InvariantViolationError("sweep mixes incidence geometries")
    theta_i = first.incident_angle_deg
    angles = np.array([g.observation_angle_deg for g in geometries])
    if not np.any(np.abs(angles - theta_i) <= _ANGLE_TOL_DEG):
        raise MissingSpecularAngleError(
            f"sweep does not include the specular angle {theta_i} deg")

    normalization = ds_normalization(params, theta_i)
    gamma_sq = fresnel_gamma_perp(theta_i, eps_r) ** 2
    cos_theta = math.cos(math.radians(theta_i))

    diffuse = (params.s_coeff ** 2 * cos_theta * diffuse_solid_angle_sr
               * ds_pattern_inplane(angles, theta_i, params) / normalization)
    specular = gamma_sq * _specular_gain(angles - theta_i, antenna_hpbw_deg,
                                         specular_spread_deg)
    spreading = 1.0 / (first.tx_distance_m * first.rx_distance_m) ** 2
    power = (diffuse + specular) * spreading
    peak = power.max()
    if peak <= 0.0:
        raise PerfectTransmissionError(
            "pattern carries no power (eps_r = 1 with s_coeff = 0)")
    relative_db = 10.0 * np.log10(power / peak)
    return [ScatterPatternPoint(float(a), min(0.0, float(p)))
            for a, p in zip(angles, relative_db)]


def backscatter_margin(pattern: Sequence[ScatterPatternPoint],
                       incident_angle_deg: float) -> float:
    """Peak power minus the strongest return on the source side of the normal."""
    if not pattern:
        raise OneSidedPatternError("pattern is empty")
    back = [p.relative_power_db for p in pattern if p.observation_angle_deg < 0.0]
    forward = [p for p in pattern if p.observation_angle_deg > 0.0]
    if not back or not forward:
        raise OneSidedPatternError("pattern must cover both sides of the normal")
    peak = max(p.relative_power_db for p in pattern)
    return peak - max(back)


def classify_smooth(pattern: Sequence[ScatterPatternPoint],
                    incident_angle_deg: float) -> bool:
    """Smooth-surface test: big backscatter margin and a filled specular window.

    True when the backscatter margin exceeds 20 dB and every pattern point
    within +/-10 deg of the specular angle stays within 10 dB of the peak.
    """
    margin = backscatter_margin(pattern, incident_angle_deg)
    if margin <= BACKSCATTER_MARGIN_THRESHOLD_DB:
        return False
    peak = max(p.relative_power_db for p in pattern)
    window = [p.relative_power_db for p in pattern
              if abs(p.observation_angle_deg - incident_angle_deg)
              <= SMOOTH_WINDOW_DEG + _ANGLE_TOL_DEG]
    return all(peak - p <= SMOOTH_WINDOW_THRESHOLD_DB for p in window)
