"""The closed-form lobe normalisation against a dense quadrature, the
range property of the log-domain pattern, and the pattern against a scalar
oracle, bit for bit.

The normalisation oracle is the hemisphere quadrature the closed form
replaced (Gauss-Legendre in the polar angle times a uniform azimuth rule),
run at 8 x the old resolution, over the lobe formula of ``lobe_oracle``,
which shares no code with ``mmwprop.scattering``. The pattern oracle takes
each angle's log-sum-exp over a tuple of its three terms, step by step, apart
from the library's one-pass loop.
"""

import math

import numpy as np
import pytest

from mmwprop.errors import InvariantViolationError, MmwPropError, PerfectTransmissionError
from mmwprop.reflection import fresnel_gamma_perp
from mmwprop.scattering import (
    MAX_LOBE_EXPONENT,
    MIN_HPBW_DEG,
    DsParameters,
    ScatterPatternPoint,
    ds_normalization,
    predict_pattern,
    sweep_angles,
    sweep_geometries,
)

from lobe_oracle import dual_lobe

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def oracle_normalization(params, incident_angle_deg, polar_points=512, azimuth_points=1024):
    nodes, weights = np.polynomial.legendre.leggauss(polar_points)
    polar = (nodes + 1.0) * (math.pi / 4.0)
    azimuth = np.linspace(0.0, 2.0 * math.pi, azimuth_points, endpoint=False)
    p, a = np.meshgrid(polar, azimuth, indexing="ij")
    values = dual_lobe(p, a, math.radians(incident_angle_deg), params)
    per_polar = (values * np.sin(p)).sum(axis=1) * (2.0 * math.pi / azimuth_points)
    return float((per_polar * weights * (math.pi / 4.0)).sum())


@pytest.mark.parametrize("alpha_r, alpha_i", [(1, 1), (4, 4), (3, 40), (12, 1), (40, 4), (100, 40)])
def test_normalization_matches_dense_grid(alpha_r, alpha_i):
    params = DsParameters(lambda_mix=0.9, alpha_r=alpha_r, alpha_i=alpha_i)
    for ti in (0.0, 10.0, 30.0, 45.0, 60.0, 80.0, 89.9):
        exact = ds_normalization(params, ti)
        assert abs(exact / oracle_normalization(params, ti) - 1.0) <= 1e-12, ti


def test_normalization_at_the_exponent_cap():
    # a lobe this narrow lies wholly inside the hemisphere: the integral is
    # the full-sphere value 2 pi * 2 / (alpha + 1)
    alpha = MAX_LOBE_EXPONENT
    params = DsParameters(alpha_r=alpha, alpha_i=alpha)
    assert ds_normalization(params, 30.0) == pytest.approx(4.0 * math.pi / (alpha + 1),
                                                           rel=1e-12)


@pytest.mark.parametrize("alpha", [0, MAX_LOBE_EXPONENT + 1, 10 ** 23, 2.5,
                                   float("inf"), float("nan")])
def test_exponent_outside_the_range_is_rejected(alpha):
    with pytest.raises(InvariantViolationError):
        DsParameters(alpha_r=alpha)


_unit = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))
_exponent = st.one_of(st.sampled_from((1, MAX_LOBE_EXPONENT)),
                      st.integers(1, MAX_LOBE_EXPONENT))


@hypothesis.settings(max_examples=200)
@hypothesis.example(theta=30.0, eps_r=6.4, s_coeff=0.0, lambda_mix=0.9, alpha_r=4,
                    alpha_i=4, hpbw=1.0, spread=0.0, solid_angle=0.01)
@hypothesis.example(theta=30.0, eps_r=6.4, s_coeff=0.0, lambda_mix=0.9, alpha_r=4,
                    alpha_i=4, hpbw=MIN_HPBW_DEG, spread=0.0, solid_angle=0.0)
@hypothesis.example(theta=80.0, eps_r=1.0, s_coeff=1.0, lambda_mix=0.0,
                    alpha_r=MAX_LOBE_EXPONENT, alpha_i=MAX_LOBE_EXPONENT,
                    hpbw=179.0, spread=0.0, solid_angle=1e-300)
@hypothesis.given(
    theta=st.floats(0.0, 80.0),
    eps_r=st.one_of(st.just(1.0), st.floats(1.0, 1e6)),
    s_coeff=_unit,
    lambda_mix=_unit,
    alpha_r=_exponent,
    alpha_i=_exponent,
    hpbw=st.floats(MIN_HPBW_DEG, 180.0, exclude_max=True),
    spread=st.one_of(st.just(0.0), st.floats(0.0, 1e300)),
    solid_angle=st.one_of(st.just(0.0), st.floats(0.0, 1e300)),
)
def test_pattern_is_finite_and_peaks_at_zero_db(theta, eps_r, s_coeff, lambda_mix,
                                                alpha_r, alpha_i, hpbw, spread, solid_angle):
    params = DsParameters(s_coeff=s_coeff, lambda_mix=lambda_mix,
                          alpha_r=alpha_r, alpha_i=alpha_i)
    try:
        pattern = predict_pattern(sweep_geometries(theta), eps_r, params, hpbw,
                                  diffuse_solid_angle_sr=solid_angle,
                                  specular_spread_deg=spread)
    except MmwPropError:
        return
    levels = [p.relative_power_db for p in pattern]
    assert all(math.isfinite(v) and v <= 0.0 for v in levels), levels
    assert max(levels) == 0.0


def _ln(x):
    return math.log(x) if x > 0.0 else -math.inf


def oracle_levels(sweep, eps_r, params, hpbw, solid_angle, spread):
    """The pattern in dB, one angle at a time: the three ln terms in a tuple,
    their log-sum-exp with the exponentials added left to right, then the
    peak taken off."""
    theta_i, angles = sweep
    ti = math.radians(theta_i)
    diffuse = (2.0 * _ln(params.s_coeff) + math.log(math.cos(ti)) + _ln(solid_angle)
               - math.log(ds_normalization(params, theta_i)))
    forward = diffuse + _ln(params.lambda_mix)
    backward = diffuse + _ln(1.0 - params.lambda_mix)
    specular = 2.0 * _ln(abs(fresnel_gamma_perp(theta_i, eps_r)))
    width = math.hypot(hpbw, spread)
    log_power = []
    for a in angles:
        terms = (
            forward + params.alpha_r * _ln((1.0 + math.cos(math.radians(a) - ti)) / 2.0),
            backward + params.alpha_i * _ln((1.0 + math.cos(math.radians(a) + ti)) / 2.0),
            specular - 4.0 * math.log(2.0) * ((a - theta_i) / width) ** 2,
        )
        top = max(terms)
        if top == -math.inf:
            log_power.append(top)
        else:
            shares = [math.exp(t - top) for t in terms]
            log_power.append(top + math.log(shares[0] + shares[1] + shares[2]))
    peak = max(log_power)
    if peak == -math.inf:
        raise PerfectTransmissionError("pattern carries no power (eps_r = 1 with s_coeff = 0)")
    return [(p - peak) * (10.0 / math.log(10.0)) for p in log_power]


def _outcome(call):
    try:
        return call()
    except MmwPropError as error:
        return type(error), str(error)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.example(theta=30.0, step=10.0, eps_r=6.4, s_coeff=0.4, lambda_mix=0.9,
                    alpha_r=4, alpha_i=4, hpbw=8.0, spread=9.0, solid_angle=0.01)
@hypothesis.example(theta=30.0, step=1.0, eps_r=1.0, s_coeff=0.0, lambda_mix=0.9,
                    alpha_r=4, alpha_i=4, hpbw=8.0, spread=9.0, solid_angle=0.01)
@hypothesis.example(theta=0.0, step=1.0, eps_r=1.0, s_coeff=0.4, lambda_mix=1.0,
                    alpha_r=MAX_LOBE_EXPONENT, alpha_i=1, hpbw=MIN_HPBW_DEG, spread=0.0,
                    solid_angle=0.01)
@hypothesis.example(theta=80.0, step=10.0, eps_r=4.7, s_coeff=1.0, lambda_mix=0.0,
                    alpha_r=1, alpha_i=MAX_LOBE_EXPONENT, hpbw=MIN_HPBW_DEG, spread=0.0,
                    solid_angle=1e300)
@hypothesis.given(
    theta=st.one_of(st.sampled_from((0.0, 30.0, 80.0)), st.floats(0.0, 80.0)),
    step=st.sampled_from((10.0, 1.0)),  # the default 17-angle and the 161-angle sweeps
    eps_r=st.one_of(st.just(1.0), st.floats(1.0, 1e6)),
    s_coeff=_unit,
    lambda_mix=_unit,
    alpha_r=_exponent,
    alpha_i=_exponent,
    hpbw=st.one_of(st.just(MIN_HPBW_DEG), st.floats(MIN_HPBW_DEG, 180.0, exclude_max=True)),
    spread=st.one_of(st.just(0.0), st.floats(0.0, 1e300)),
    solid_angle=st.one_of(st.just(0.0), st.floats(0.0, 1e300)),
)
def test_pattern_matches_scalar_oracle_bit_for_bit(theta, step, eps_r, s_coeff, lambda_mix,
                                                   alpha_r, alpha_i, hpbw, spread,
                                                   solid_angle):
    params = DsParameters(s_coeff=s_coeff, lambda_mix=lambda_mix,
                          alpha_r=alpha_r, alpha_i=alpha_i)
    sweep = sweep_geometries(theta, sweep_angles(theta, step))
    got = _outcome(lambda: predict_pattern(sweep, eps_r, params, hpbw,
                                           diffuse_solid_angle_sr=solid_angle,
                                           specular_spread_deg=spread))
    expected = _outcome(lambda: oracle_levels(sweep, eps_r, params, hpbw, solid_angle, spread))
    if isinstance(expected, tuple):  # an error: the same class and message
        assert got == expected
        return
    assert [p.observation_angle_deg for p in got] == list(sweep.observation_angles_deg)
    assert [p.relative_power_db for p in got] == expected
    assert {type(p) for p in got} == {ScatterPatternPoint}


def test_points_from_columns_check_the_levels_like_the_constructor():
    with pytest.raises(InvariantViolationError) as single:
        ScatterPatternPoint(10.0, 2e-12)
    with pytest.raises(InvariantViolationError) as column:
        ScatterPatternPoint._from_columns((-10.0, 10.0), (0.0, 2e-12))
    assert str(column.value) == str(single.value) == "relative_power_db must be <= 0"
    points = ScatterPatternPoint._from_columns((-10.0, 10.0), (-3.0, 1e-12))
    assert points == [ScatterPatternPoint(-10.0, -3.0), ScatterPatternPoint(10.0, 1e-12)]
    assert ScatterPatternPoint._from_columns((), ()) == []


@pytest.mark.parametrize("levels", [(0.0, math.nan), (math.nan, 0.0), (-math.inf, 0.0),
                                    (0.0, math.inf), (math.inf, -math.inf)])
def test_points_from_columns_refuse_a_level_that_is_not_finite(levels):
    """A NaN or infinite level is refused wherever it sits, with the message
    the constructor gives; a -inf back point would make the margin inf, and
    the greatest of (0, NaN) is 0."""
    with pytest.raises(InvariantViolationError) as column:
        ScatterPatternPoint._from_columns((-10.0, 10.0), levels)
    assert str(column.value) == "relative_power_db must be finite"
