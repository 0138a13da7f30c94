"""The closed-form lobe normalisation against a dense quadrature, and the
range property of the log-domain pattern.

The oracle below is the hemisphere quadrature the closed form replaced
(Gauss-Legendre in the polar angle times a uniform azimuth rule), run at
8 x the old resolution, over the lobe formula of ``lobe_oracle``, which
shares no code with ``mmwprop.scattering``.
"""

import math

import numpy as np
import pytest

from mmwprop.errors import InvariantViolationError, MmwPropError
from mmwprop.scattering import (
    MAX_LOBE_EXPONENT,
    MIN_HPBW_DEG,
    DsParameters,
    ds_normalization,
    predict_pattern,
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
