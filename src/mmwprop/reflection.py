"""Perpendicular-polarization Fresnel reflection off a lossless dielectric.

The reflection coefficient for the E-field normal to the incidence plane is

    gamma_perp = (cos(theta) - sqrt(eps_r - sin^2(theta)))
                 / (cos(theta) + sqrt(eps_r - sin^2(theta)))

with theta measured from the surface normal. For eps_r >= 1 the radicand is
never negative and |gamma_perp| <= 1. Measured losses in dB map to magnitude
via |gamma|^2 = 10^(-loss_db / 10) (power ratio).
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple, Sequence

from .datasets import ReflectionSample, same_freq
from .errors import (
    DegenerateAnglesError,
    EstimateAtBoundError,
    FlatObjectiveError,
    InvariantViolationError,
    MixedFrequenciesError,
    PerfectTransmissionError,
    TooFewSamplesError,
)

EPS_SEARCH_RANGE = (1.0, 30.0)
_SEARCH_GRID_POINTS = 300
_EPS_TOLERANCE = 1e-4
_ANGLE_TOL_DEG = 1e-6  # two angles this close are the same angle


def fresnel_gamma_perp(incident_angle_deg: float, eps_r: float) -> float:
    """Signed reflection coefficient; non-positive, as eps_r must be finite and >= 1."""
    if not 0 <= incident_angle_deg < 90:
        raise InvariantViolationError("incident_angle_deg must lie in [0, 90)")
    if not 1 <= eps_r < math.inf:
        raise InvariantViolationError(f"eps_r must be {'finite' if eps_r > 1 else '>= 1'}")
    theta = math.radians(incident_angle_deg)
    root = math.sqrt(eps_r - math.sin(theta) ** 2)
    return (math.cos(theta) - root) / (math.cos(theta) + root)


def reflection_loss_db(incident_angle_deg: float, eps_r: float) -> float:
    """Reflection loss -20*log10(|gamma_perp|), a non-negative dB number."""
    magnitude = abs(fresnel_gamma_perp(incident_angle_deg, eps_r))
    if magnitude == 0.0:
        raise PerfectTransmissionError(
            f"|gamma_perp| = 0 at {incident_angle_deg} deg, eps_r = {eps_r}; "
            "loss in dB is unbounded")
    return -20.0 * math.log10(magnitude)


def measured_magnitude(sample: ReflectionSample) -> float:
    """|gamma_perp| implied by a stored positive dB power loss."""
    return 10.0 ** (-sample.reflection_loss_db / 20.0)


def _check_samples(samples: Sequence[ReflectionSample]) -> None:
    """The estimators' precondition: at least 2 samples, all at one frequency."""
    if len(samples) < 2:
        raise TooFewSamplesError("need at least 2 reflection samples")
    if any(not same_freq(s.freq_hz, samples[0].freq_hz) for s in samples):
        raise MixedFrequenciesError("samples span more than one frequency")


def _sample_terms(samples: Sequence[ReflectionSample]) -> list[tuple[float, float, float]]:
    """(measured |gamma_perp|^2, cos(theta), sin^2(theta)) per sample."""
    terms = []
    for s in samples:
        theta = math.radians(s.incident_angle_deg)
        terms.append((10.0 ** (-s.reflection_loss_db / 10.0),
                      math.cos(theta), math.sin(theta) ** 2))
    return terms


def _mse(eps_r: float, terms: Sequence[tuple[float, float, float]]) -> float:
    """Mean squared |gamma_perp|^2 error at eps_r over _sample_terms.

    gamma is fresnel_gamma_perp's bits. Each square is a product, which is
    correctly rounded where ``x ** 2`` goes through the C library's pow, and
    the samples are summed in order, so from the terms on the result depends
    on neither the Python version nor the C library.
    """
    sqrt = math.sqrt
    total = 0.0
    for measured, cos_t, sin2 in terms:
        root = sqrt(eps_r - sin2)
        gamma = (cos_t - root) / (cos_t + root)
        error = measured - gamma * gamma
        total += error * error
    return total / len(terms)


def _inverted_permittivity(measured: float, cos_t: float, sin2: float) -> float:
    """The eps_r whose modeled |gamma_perp|^2 equals the measured one; inf at 0 dB."""
    r = math.sqrt(measured)
    if r >= 1.0:
        return math.inf
    return (cos_t * (1.0 + r) / (1.0 - r)) ** 2 + sin2


class PermittivityEstimate(NamedTuple):
    eps_r: float
    mse: float
    samples_used: int


def _golden_section(func, lo: float, hi: float, tol: float) -> float:
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - ratio * (hi - lo)
    d = lo + ratio * (hi - lo)
    fc, fd = func(c), func(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = func(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = func(d)
    return (lo + hi) / 2.0


def estimate_permittivity_mmse(samples: Sequence[ReflectionSample]) -> PermittivityEstimate:
    """MMSE estimate of eps_r from measured reflection losses at one frequency.

    Minimizes the squared error over |gamma_perp|^2. The search brackets the
    first minimum of a 300-point grid over eps_r in [1, 30], then refines it
    by golden-section search to a 1e-4 tolerance. Each sample's modeled
    |gamma_perp|^2 rises with eps_r, so its error term falls until the
    sample's inverted permittivity eps_k and rises after it. The grid is
    therefore evaluated only between the smallest and largest eps_k, and
    beyond them only where rounding could let a point tie the best.
    Raises EstimateAtBoundError when the minimum lies at either end of [1, 30],
    and FlatObjectiveError when every grid point is within rounding of the best.
    """
    _check_samples(samples)
    terms = _sample_terms(samples)

    lo, hi = EPS_SEARCH_RANGE
    last = _SEARCH_GRID_POINTS - 1
    step = (hi - lo) / last
    at = cache(lambda i: _mse(lo + i * step, terms))
    inverted = [min(_inverted_permittivity(*t), hi) for t in terms]
    first = max(math.floor((min(inverted) - lo) / step), 0)
    stop = min(math.ceil((max(inverted) - lo) / step), last)
    # Outside the eps_k the objective is monotone only to within its rounding
    # error, at most (len(terms) + 64) * 2**-53; past the first point more than
    # twice that above the best, no point can reach the best. At eps_r = 1,
    # eps_r - sin^2(theta) can round to below cos^2(theta) for theta within
    # about 1e-6 deg of 90, so that point is always a candidate.
    rounding = (len(terms) + 64) * 2.0 ** -52
    ceiling = min(map(at, range(first, stop + 1))) + rounding
    while first > 0 and at(first - 1) <= ceiling:
        first -= 1
    while stop < last and at(stop + 1) <= ceiling:
        stop += 1
    best = min((0, *range(first, stop + 1)), key=at)
    if (first, stop) == (0, last) and max(map(at, range(last + 1))) <= at(best) + rounding:
        raise FlatObjectiveError(
            f"the MMSE objective is flat to within rounding over [{lo:g}, {hi:g}]; "
            "the samples do not determine eps_r")
    bracket_lo = lo + max(best - 1, 0) * step
    bracket_hi = lo + min(best + 1, last) * step
    eps_r = _golden_section(lambda e: _mse(e, terms), bracket_lo, bracket_hi, _EPS_TOLERANCE)
    if min(eps_r - lo, hi - eps_r) <= _EPS_TOLERANCE:
        raise EstimateAtBoundError(
            f"eps_r estimate {eps_r:.4f} lies at the search bound; the minimum "
            f"is outside [{lo:g}, {hi:g}] or indistinguishable from its end")
    return PermittivityEstimate(eps_r=eps_r, mse=_mse(eps_r, terms),
                                samples_used=len(samples))


class LinearReflectionFit(NamedTuple):
    """|gamma_perp| modeled as slope * theta_deg + intercept."""

    slope: float
    intercept: float


def fit_linear_reflection(
    samples: Sequence[ReflectionSample],
) -> tuple[LinearReflectionFit, float]:
    """Ordinary least squares of |gamma_perp| against incidence angle in degrees.

    Returns the fit and its RMSE over the input samples, which must share
    one frequency.
    """
    _check_samples(samples)
    angles = [s.incident_angle_deg for s in samples]
    if max(angles) - min(angles) <= _ANGLE_TOL_DEG:
        raise DegenerateAnglesError(
            f"all samples share one incidence angle, to within {_ANGLE_TOL_DEG:g} deg")
    mags = [measured_magnitude(s) for s in samples]
    mean_x = sum(angles) / len(angles)
    mean_y = sum(mags) / len(mags)
    var_x = sum((x - mean_x) ** 2 for x in angles)
    cov_xy = sum((x - mean_x) * (y - mean_y) for x, y in zip(angles, mags))
    slope = cov_xy / var_x
    intercept = mean_y - slope * mean_x
    residual_sq = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(angles, mags))
    rmse = math.sqrt(residual_sq / len(samples))
    return LinearReflectionFit(slope=slope, intercept=intercept), rmse
