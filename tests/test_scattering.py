import math

import numpy as np
import pytest

from mmwprop.errors import (
    InvariantViolationError,
    MissingSpecularAngleError,
    OneSidedPatternError,
)
from mmwprop.reflection import fresnel_gamma_perp
from mmwprop.scattering import (
    DsParameters,
    ScatterGeometry,
    ScatterPatternPoint,
    backscatter_margin,
    classify_smooth,
    ds_normalization,
    predict_pattern,
    sweep_geometries,
)

from lobe_oracle import ds_lobe_gain, ds_pattern_value

# (eps_r, arc-antenna HPBW) per band
BANDS = {28e9: (4.7, 10.0), 73e9: (5.2, 7.0), 142e9: (6.4, 8.0)}
INCIDENT_ANGLES = (10.0, 30.0, 60.0, 80.0)


def default_pattern(incident_angle_deg, eps_r, hpbw_deg, **kwargs):
    geoms = sweep_geometries(incident_angle_deg)
    return predict_pattern(geoms, eps_r, antenna_hpbw_deg=hpbw_deg, **kwargs)


def peak_angle(pattern):
    return max(pattern, key=lambda p: p.relative_power_db).observation_angle_deg


def midpoint_hemisphere_integral(params, incident_angle_deg, n=600):
    """Independent quadrature route (midpoint rule on both axes)."""
    polar = (np.arange(n) + 0.5) * (math.pi / 2) / n
    azimuth = (np.arange(n) + 0.5) * (2 * math.pi) / n
    grid_p, grid_a = np.meshgrid(polar, azimuth, indexing="ij")
    values = ds_pattern_value(np.degrees(grid_p), np.degrees(grid_a),
                              incident_angle_deg, params) * np.sin(grid_p)
    return float(values.sum() * (math.pi / 2 / n) * (2 * math.pi / n))


class TestLobeGain:
    def test_on_axis(self):
        assert ds_lobe_gain(0.0, 4) == 1.0

    def test_anti_axis(self):
        assert ds_lobe_gain(180.0, 1) == pytest.approx(0.0, abs=1e-30)

    def test_quarter_at_90_degrees(self):
        assert ds_lobe_gain(90.0, 2) == pytest.approx(0.25, abs=1e-12)

    def test_gain_bounded(self):
        psi = np.linspace(0.0, 180.0, 181)
        gains = ds_lobe_gain(psi, 6)
        assert np.all(gains >= 0.0) and np.all(gains <= 1.0)


class TestNormalization:
    def test_single_lobe_at_normal_incidence_analytic(self):
        # hemisphere integral of (1 + cos theta)/2 is 3*pi/2
        params = DsParameters(s_coeff=0.0, lambda_mix=1.0, alpha_r=1, alpha_i=1)
        assert ds_normalization(params, 0.0) == pytest.approx(
            1.5 * math.pi, rel=1e-9)

    def test_linear_in_lobe_mix(self):
        forward_only = DsParameters(lambda_mix=1.0, alpha_r=3, alpha_i=5)
        back_only = DsParameters(lambda_mix=0.0, alpha_r=3, alpha_i=5)
        mixed = DsParameters(lambda_mix=0.5, alpha_r=3, alpha_i=5)
        for ti in (15.0, 60.0):
            expected = 0.5 * (ds_normalization(forward_only, ti)
                              + ds_normalization(back_only, ti))
            assert ds_normalization(mixed, ti) == pytest.approx(expected, rel=1e-12)

    def test_inplane_pattern_is_the_hemisphere_value(self):
        # eps_r = 1 removes the specular term, leaving the in-plane lobe shape
        params = DsParameters(lambda_mix=0.7, alpha_r=5, alpha_i=3)
        for ti in (10.0, 45.0):
            angles = sorted({-60.0, -10.0, 0.0, 25.0, 70.0, ti})
            pattern = predict_pattern(sweep_geometries(ti, angles), 1.0, params)
            values = np.array([ds_pattern_value(abs(t), 180.0 if t > 0 else 0.0, ti, params)
                               for t in angles])
            expected = 10.0 * np.log10(values / values.max())
            assert [p.relative_power_db for p in pattern] == pytest.approx(
                list(expected), abs=1e-10)

    def test_normalized_pattern_integrates_to_one(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            params = DsParameters(
                s_coeff=rng.uniform(0.0, 1.0),
                lambda_mix=rng.uniform(0.0, 1.0),
                alpha_r=int(rng.integers(1, 9)),
                alpha_i=int(rng.integers(1, 9)),
            )
            ti = float(rng.uniform(0.0, 85.0))
            total = midpoint_hemisphere_integral(params, ti)
            assert abs(total / ds_normalization(params, ti) - 1.0) < 1e-4

    def test_scattered_power_bookkeeping(self):
        # hemisphere integral of the scattered density is S^2 cos(theta_i)
        params = DsParameters(s_coeff=0.4)
        for ti in (10.0, 60.0):
            normalization = ds_normalization(params, ti)
            density_total = (params.s_coeff ** 2 * math.cos(math.radians(ti))
                             * midpoint_hemisphere_integral(params, ti) / normalization)
            expected = params.s_coeff ** 2 * math.cos(math.radians(ti))
            assert abs(density_total / expected - 1.0) < 1e-4


class TestPredictPattern:
    @pytest.mark.parametrize("freq", sorted(BANDS))
    @pytest.mark.parametrize("incident", INCIDENT_ANGLES)
    def test_peak_at_specular_angle(self, freq, incident):
        eps, hpbw = BANDS[freq]
        pattern = default_pattern(incident, eps, hpbw)
        assert peak_angle(pattern) == incident
        peak_db = max(p.relative_power_db for p in pattern)
        assert peak_db == 0.0

    def test_peak_power_grows_toward_grazing(self):
        # stronger reflection (and so a hotter peak) at larger incidence
        eps, hpbw = BANDS[142e9]
        def absolute_peak(ti):
            geoms = sweep_geometries(ti)
            params = DsParameters()
            gamma_sq = fresnel_gamma_perp(ti, eps) ** 2
            scattered = (params.s_coeff ** 2 * math.cos(math.radians(ti))
                         * ds_pattern_value(ti, 180.0, ti, params)
                         / ds_normalization(params, ti) * 0.01)
            return gamma_sq + scattered
        peaks = [absolute_peak(ti) for ti in INCIDENT_ANGLES]
        assert all(b > a for a, b in zip(peaks, peaks[1:]))

    def test_scattering_disabled_leaves_pure_antenna_lobe(self):
        for freq, (eps, hpbw) in BANDS.items():
            ti = 30.0
            angles = sorted({ti, ti + 3 * hpbw, ti - 3 * hpbw, -10.0, -40.0})
            pattern = predict_pattern(
                sweep_geometries(ti, angles), eps,
                DsParameters(s_coeff=0.0), antenna_hpbw_deg=hpbw)
            by_angle = {p.observation_angle_deg: p.relative_power_db for p in pattern}
            assert by_angle[ti + 3 * hpbw] < -40.0
            assert by_angle[ti - 3 * hpbw] < -40.0

    def test_default_sweep_includes_the_specular_angle(self):
        geoms = sweep_geometries(25.0)
        assert list(geoms.observation_angles_deg) == sorted(
            [float(a) for a in range(-80, 81, 10)] + [25.0])
        assert peak_angle(predict_pattern(geoms, 6.4)) == 25.0

    def test_missing_specular_angle(self):
        geoms = sweep_geometries(25.0, (-60.0, -30.0, 0.0, 30.0, 60.0))
        with pytest.raises(MissingSpecularAngleError):
            predict_pattern(geoms, 6.4, antenna_hpbw_deg=8.0)

    def test_off_arc_incidence_is_a_missing_specular_angle(self):
        # 85 deg lies past the +80 deg arc, so the default sweep is the grid alone
        geoms = sweep_geometries(85.0)
        assert list(geoms.observation_angles_deg) == [float(a) for a in range(-80, 81, 10)]
        with pytest.raises(MissingSpecularAngleError, match="specular angle 85.0 deg"):
            predict_pattern(geoms, 6.4)

    @pytest.mark.parametrize("kwargs", [
        dict(antenna_hpbw_deg=0.0),
        dict(antenna_hpbw_deg=-5.0),
        dict(antenna_hpbw_deg=180.0),
        dict(specular_spread_deg=-1.0),
        dict(diffuse_solid_angle_sr=-1.0),
    ])
    def test_pattern_argument_ranges(self, kwargs):
        with pytest.raises(InvariantViolationError):
            predict_pattern(sweep_geometries(30.0), 6.4, **kwargs)

    def test_zero_spread_and_diffuse_are_valid(self):
        pattern = predict_pattern(sweep_geometries(30.0), 6.4, antenna_hpbw_deg=8.0,
                                  specular_spread_deg=0.0, diffuse_solid_angle_sr=0.0)
        assert peak_angle(pattern) == 30.0
        assert all(math.isfinite(p.relative_power_db) for p in pattern)

    @pytest.mark.parametrize("name", ["specular_spread_deg", "diffuse_solid_angle_sr"])
    @pytest.mark.parametrize("params", [DsParameters(), DsParameters(lambda_mix=1.0),
                                        DsParameters(s_coeff=0.0)])
    def test_infinite_spread_or_solid_angle_is_refused(self, name, params):
        # an infinite solid angle used to give a NaN level at every angle
        with pytest.raises(InvariantViolationError, match=f"^{name} must be finite$"):
            predict_pattern(sweep_geometries(30.0), 6.4, params, **{name: math.inf})

    @pytest.mark.parametrize("name", ["specular_spread_deg", "diffuse_solid_angle_sr"])
    def test_nan_spread_or_solid_angle_is_refused(self, name):
        with pytest.raises(InvariantViolationError, match=f"^{name} must be >= 0$"):
            predict_pattern(sweep_geometries(30.0), 6.4, **{name: math.nan})

    def test_sweep_too_small(self):
        with pytest.raises(InvariantViolationError):
            predict_pattern(sweep_geometries(30.0, (30.0,)), 6.4)

    def test_peak_stays_specular_for_forward_dominated_surfaces(self):
        rng = np.random.default_rng(1101)
        for _ in range(30):
            ti = float(rng.uniform(5.0, 80.0))
            eps = float(rng.uniform(2.0, 10.0))
            gamma = abs(fresnel_gamma_perp(ti, eps))
            params = DsParameters(
                s_coeff=float(rng.uniform(0.0, 1.0)) * gamma,
                lambda_mix=float(rng.uniform(0.5, 1.0)),
                alpha_r=int(rng.integers(1, 9)),
                alpha_i=int(rng.integers(1, 9)),
            )
            pattern = predict_pattern(sweep_geometries(ti), eps, params,
                                      antenna_hpbw_deg=8.0)
            assert peak_angle(pattern) == pytest.approx(ti)


class TestBackscatterMargin:
    @pytest.mark.parametrize("freq", sorted(BANDS))
    def test_drywall_margins_exceed_20db(self, freq):
        eps, hpbw = BANDS[freq]
        for ti in INCIDENT_ANGLES:
            pattern = default_pattern(ti, eps, hpbw)
            assert backscatter_margin(pattern, ti) > 20.0

    def test_no_back_lobe_margin_exceeds_30db(self):
        for freq, (eps, hpbw) in BANDS.items():
            pattern = default_pattern(60.0, eps, hpbw,
                                      params=DsParameters(lambda_mix=1.0))
            assert backscatter_margin(pattern, 60.0) > 30.0

    def test_symmetric_pattern_has_zero_margin(self):
        pattern = [ScatterPatternPoint(-30.0, 0.0),
                   ScatterPatternPoint(0.0, -12.0),
                   ScatterPatternPoint(30.0, 0.0)]
        assert backscatter_margin(pattern, 30.0) == 0.0

    def test_one_sided_pattern_rejected(self):
        forward_only = [ScatterPatternPoint(10.0, 0.0),
                        ScatterPatternPoint(40.0, -3.0)]
        with pytest.raises(OneSidedPatternError):
            backscatter_margin(forward_only, 30.0)
        with pytest.raises(OneSidedPatternError):
            backscatter_margin([], 30.0)

    def test_margin_is_non_negative(self):
        pattern = [ScatterPatternPoint(-50.0, -4.0),
                   ScatterPatternPoint(50.0, 0.0)]
        assert backscatter_margin(pattern, 50.0) == pytest.approx(4.0)


class TestClassifySmooth:
    @pytest.mark.parametrize("freq", sorted(BANDS))
    def test_drywall_defaults_classify_smooth(self, freq):
        eps, hpbw = BANDS[freq]
        for ti in INCIDENT_ANGLES:
            pattern = default_pattern(ti, eps, hpbw)
            assert classify_smooth(pattern, ti) is True

    def test_insufficient_margin_fails(self):
        pattern = [ScatterPatternPoint(-30.0, -15.0),
                   ScatterPatternPoint(30.0, 0.0),
                   ScatterPatternPoint(40.0, -5.0)]
        assert classify_smooth(pattern, 30.0) is False

    def test_hollow_specular_window_fails(self):
        # margin fine, but the point 10 deg off specular dips below -10 dB
        pattern = [ScatterPatternPoint(-30.0, -35.0),
                   ScatterPatternPoint(20.0, -14.0),
                   ScatterPatternPoint(30.0, 0.0)]
        assert classify_smooth(pattern, 30.0) is False


class TestGeometryAndConversions:
    def test_observation_angle_limited_to_arc(self):
        with pytest.raises(InvariantViolationError):
            ScatterGeometry(30.0, (30.0, 85.0))
        with pytest.raises(InvariantViolationError):
            sweep_geometries(30.0, (-80.5, 30.0))

    def test_sweep_holds_its_angles_as_a_float_tuple(self):
        sweep = sweep_geometries(30, [-40, 30])
        assert sweep == ScatterGeometry(30, (-40.0, 30.0))
        assert [type(a) for a in sweep.observation_angles_deg] == [float, float]

    def test_pattern_point_must_be_relative(self):
        with pytest.raises(InvariantViolationError):
            ScatterPatternPoint(0.0, 0.5)

    def test_parameter_ranges(self):
        with pytest.raises(InvariantViolationError):
            DsParameters(s_coeff=1.2)
        with pytest.raises(InvariantViolationError):
            DsParameters(lambda_mix=-0.1)
        with pytest.raises(InvariantViolationError):
            DsParameters(alpha_r=0)
        assert DsParameters(alpha_r=3.0).alpha_r == 3
