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
the scattered term carry exactly S^2 * cos(theta_i) of the incident power;
the normalisation is an exact Legendre series (``_lobe_integral``).

The received sample at an observation angle adds, in power (the wideband
sounder averages out phase):

  * diffuse term  S^2 * cos(theta_i) * p_hat(angle) * diffuse_solid_angle_sr
  * specular term |gamma_perp|^2 * G(angle - theta_i)

G is a Gaussian main lobe whose half-power width combines the antenna HPBW
with a fixed illuminated-spot spread (the finite spot on the wall widens the
specular return seen from the 1.5 m arc). Both terms share the spherical
spreading over the TX/RX distances, and the pattern is normalized to its
peak, so the spreading cancels and the model takes no distances. The diffuse
coupling solid angle is the stand-in for the receive-side collection constant
that ties a per-steradian scattered density to the dimensionless specular
power ratio.

``predict_pattern`` adds the terms as logarithms (log-sum-exp), so no product
over- or underflows and every level is finite. It makes one pass per angle
and adds the three exponentials left to right, without ``sum``, so a level's
bits do not depend on the Python version (from 3.12 ``sum`` of floats is
compensated). The model uses only ``math``.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Sequence

from .datasets import _checked
from .errors import (
    InvariantViolationError,
    MissingSpecularAngleError,
    OneSidedPatternError,
    PerfectTransmissionError,
)
from .reflection import _ANGLE_TOL_DEG, fresnel_gamma_perp

ARC_LIMIT_DEG = 80.0  # measured arc spans 10..170 deg, i.e. signed -80..+80
MIN_SWEEP_STEP_DEG = 0.01  # at most 16 001 grid angles over the 160 deg arc
DEFAULT_DIFFUSE_SOLID_ANGLE_SR = 0.01
DEFAULT_SPECULAR_SPREAD_DEG = 9.0

BACKSCATTER_MARGIN_THRESHOLD_DB = 20.0
SMOOTH_WINDOW_DEG = 10.0
SMOOTH_WINDOW_THRESHOLD_DB = 10.0
MAX_LOBE_EXPONENT = 10 ** 6  # the normalisation then costs a few ms
MIN_HPBW_DEG = 1e-6  # keeps every specular level in dB within float range

_LN2 = math.log(2.0)
_DB_PER_LN = 10.0 / math.log(10.0)  # 10 log10(x) = _DB_PER_LN * ln(x)


class DsParameters(_checked("DsParameters", [("s_coeff", float), ("lambda_mix", float),
                                             ("alpha_r", int), ("alpha_i", int)])):
    """Dual-lobe directive scattering parameters.

    Defaults reproduce a drywall-like surface: most energy in the forward
    lobe, moderate lobe sharpness, scattering coefficient 0.4.
    """

    __slots__ = ()

    def __new__(cls, s_coeff=0.4, lambda_mix=0.9, alpha_r=4, alpha_i=4):
        if not 0.0 <= s_coeff <= 1.0:
            raise InvariantViolationError("s_coeff must lie in [0, 1]")
        if not 0.0 <= lambda_mix <= 1.0:
            raise InvariantViolationError("lambda_mix must lie in [0, 1]")
        for name, value in (("alpha_r", alpha_r), ("alpha_i", alpha_i)):
            if not 1 <= value <= MAX_LOBE_EXPONENT or value != int(value):
                raise InvariantViolationError(
                    f"{name} must be an integer in [1, {MAX_LOBE_EXPONENT}]")
        return tuple.__new__(cls, (s_coeff, lambda_mix, int(alpha_r), int(alpha_i)))


class ScatterGeometry(_checked("ScatterGeometry", [
        ("incident_angle_deg", float), ("observation_angles_deg", tuple)])):
    """A sweep along the measurement arc at one incidence angle; + is the specular side."""

    __slots__ = ()

    def __new__(cls, incident_angle_deg, observation_angles_deg):
        if not 0.0 <= incident_angle_deg < 90.0:
            raise InvariantViolationError("incident_angle_deg must lie in [0, 90)")
        angles = tuple(map(float, observation_angles_deg))
        if not all(abs(a) <= ARC_LIMIT_DEG + _ANGLE_TOL_DEG for a in angles):  # NaN too
            raise InvariantViolationError(
                f"observation_angle_deg must lie within the measured arc "
                f"[-{ARC_LIMIT_DEG:.0f}, {ARC_LIMIT_DEG:.0f}]")
        return tuple.__new__(cls, (incident_angle_deg, angles))


class ScatterPatternPoint(_checked("ScatterPatternPoint", [
        ("observation_angle_deg", float), ("relative_power_db", float)])):
    """relative_power_db is relative to the pattern peak, so <= 0."""

    __slots__ = ()

    def __new__(cls, observation_angle_deg, relative_power_db):
        if relative_power_db > 1e-12:
            raise InvariantViolationError("relative_power_db must be <= 0")
        return tuple.__new__(cls, (observation_angle_deg, relative_power_db))

    @classmethod
    def _from_columns(cls, angles, levels) -> list:
        """The points of a pattern's angle and level columns, checked once per pattern."""
        if max(levels, default=0.0) > 1e-12:
            raise InvariantViolationError("relative_power_db must be <= 0")
        return list(map(tuple.__new__, repeat(cls), zip(angles, levels)))


def sweep_angles(incident_angle_deg: float, step_deg: float = 10.0) -> list[float]:
    """The arc grid -80, -80 + step, ... up to +80 deg, plus the specular
    angle when it lies on the arc and no grid angle lies within 1e-6 deg of it."""
    if not step_deg > 0:
        raise InvariantViolationError("sweep step must be > 0")
    if step_deg < MIN_SWEEP_STEP_DEG:
        raise InvariantViolationError(f"sweep step must be >= {MIN_SWEEP_STEP_DEG} deg")
    count = int(round(2 * ARC_LIMIT_DEG / step_deg))
    angles = [-ARC_LIMIT_DEG + i * step_deg for i in range(count + 1)]
    angles = [a for a in angles if abs(a) <= ARC_LIMIT_DEG + 1e-9]
    if (abs(incident_angle_deg) <= ARC_LIMIT_DEG + _ANGLE_TOL_DEG
            and not any(abs(a - incident_angle_deg) <= _ANGLE_TOL_DEG for a in angles)):
        angles.append(incident_angle_deg)
    return sorted(angles)


def sweep_geometries(
    incident_angle_deg: float,
    observation_angles_deg: Sequence[float] | None = None,
) -> ScatterGeometry:
    """The sweep at one incidence angle, by default over ``sweep_angles``'s grid."""
    if observation_angles_deg is None:
        observation_angles_deg = sweep_angles(incident_angle_deg)
    return ScatterGeometry(incident_angle_deg, observation_angles_deg)


def _lobe_integral(alpha: int, cos_axis: float) -> float:
    """Exact upper-hemisphere integral of ((1 + cos psi) / 2) ** alpha.

    Funk-Hecke on the Legendre series of the hemisphere indicator, with
    c_0 = 1/2 and c_l = (P_{l-1}(0) - P_{l+1}(0)) / 2, gives
    2 pi sum c_l mu_l P_l(cos_axis) with the lobe's Legendre moments
    mu_0 = 2 / (alpha + 1), mu_l = mu_{l-1} (alpha - l + 1) / (alpha + l + 1).
    mu_l is 0 above l = alpha and falls like exp(-l^2 / alpha), so about
    6.4 sqrt(alpha) terms bring it below 1e-18 of the sum.
    """
    mu = 2.0 / (alpha + 1)
    total = 0.5 * mu
    p_prev, p = 1.0, cos_axis  # P_{l-1}(cos_axis), P_l(cos_axis)
    z_prev, z = 1.0, 0.0       # P_{l-1}(0), P_l(0)
    l = 1
    while True:
        mu *= (alpha - l + 1) / (alpha + l + 1)
        if mu < 1e-18 * total:
            return 2.0 * math.pi * total
        z_next = -l * z_prev / (l + 1)
        total += 0.5 * (z_prev - z_next) * mu * p
        p_prev, p = p, ((2 * l + 1) * cos_axis * p - l * p_prev) / (l + 1)
        z_prev, z = z, z_next
        l += 1


def ds_normalization(params: DsParameters, incident_angle_deg: float) -> float:
    """Exact hemisphere integral of the dual-lobe pattern; both axes are theta_i off normal."""
    cos_axis = math.cos(math.radians(incident_angle_deg))
    return (params.lambda_mix * _lobe_integral(params.alpha_r, cos_axis)
            + (1.0 - params.lambda_mix) * _lobe_integral(params.alpha_i, cos_axis))


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def predict_pattern(
    sweep: ScatterGeometry,
    eps_r: float,
    params: DsParameters | None = None,
    antenna_hpbw_deg: float = 8.0,
    *,
    diffuse_solid_angle_sr: float = DEFAULT_DIFFUSE_SOLID_ANGLE_SR,
    specular_spread_deg: float = DEFAULT_SPECULAR_SPREAD_DEG,
) -> list[ScatterPatternPoint]:
    """Received power at each observation angle of the sweep, normalized to a 0 dB peak.

    The sweep must hold at least 2 angles, among them the specular angle,
    where the pattern peaks. antenna_hpbw_deg must lie in
    [MIN_HPBW_DEG, 180); the spread and the diffuse solid angle must be finite and >= 0.
    """
    if params is None:
        params = DsParameters()
    if not 0.0 < antenna_hpbw_deg < 180.0:
        raise InvariantViolationError("antenna_hpbw_deg must lie in (0, 180)")
    if antenna_hpbw_deg < MIN_HPBW_DEG:
        raise InvariantViolationError(f"antenna_hpbw_deg must be >= {MIN_HPBW_DEG:g}")
    for name, value in (("specular_spread_deg", specular_spread_deg),
                        ("diffuse_solid_angle_sr", diffuse_solid_angle_sr)):
        if not 0.0 <= value < math.inf:
            raise InvariantViolationError(f"{name} must be {'finite' if value > 0 else '>= 0'}")
    theta_i, angles = sweep
    if len(angles) < 2:
        raise InvariantViolationError("sweep needs at least 2 observation angles")
    if not any(abs(a - theta_i) <= _ANGLE_TOL_DEG for a in angles):
        raise MissingSpecularAngleError(
            f"sweep does not include the specular angle {theta_i} deg")

    # ln of each power term; their shared spherical spreading cancels, so it is left out
    ti = math.radians(theta_i)
    diffuse = (2.0 * _log(params.s_coeff) + math.log(math.cos(ti))
               + _log(diffuse_solid_angle_sr) - math.log(ds_normalization(params, theta_i)))
    forward = diffuse + _log(params.lambda_mix)
    backward = diffuse + _log(1.0 - params.lambda_mix)
    specular = 2.0 * _log(abs(fresnel_gamma_perp(theta_i, eps_r)))
    width = math.hypot(antenna_hpbw_deg, specular_spread_deg)
    alpha_r, alpha_i, gauss = params.alpha_r, params.alpha_i, 4.0 * _LN2
    cos, log, exp, radians, inf = math.cos, math.log, math.exp, math.radians, math.inf
    log_power = []  # log-sum-exp, added left to right and not by sum(): same bits on any Python
    for a in angles:
        r = radians(a)
        x = (1.0 + cos(r - ti)) / 2.0
        f = forward + alpha_r * (log(x) if x > 0.0 else -inf)
        x = (1.0 + cos(r + ti)) / 2.0
        b = backward + alpha_i * (log(x) if x > 0.0 else -inf)
        s = specular - gauss * ((a - theta_i) / width) ** 2
        top = max(f, b, s)
        log_power.append(top if top == -inf
                         else top + log(exp(f - top) + exp(b - top) + exp(s - top)))
    peak = max(log_power)
    if peak == -math.inf:
        raise PerfectTransmissionError("pattern carries no power (eps_r = 1 with s_coeff = 0)")
    return ScatterPatternPoint._from_columns(
        angles, [(p - peak) * _DB_PER_LN for p in log_power])


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
