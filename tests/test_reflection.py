import math
from fractions import Fraction

import pytest

from mmwprop.datasets import ReflectionSample, paper_dataset
from mmwprop.errors import (
    DegenerateAnglesError,
    EstimateAtBoundError,
    InvariantViolationError,
    MixedFrequenciesError,
    PerfectTransmissionError,
    TooFewSamplesError,
)
from mmwprop.reflection import (
    EPS_SEARCH_RANGE,
    estimate_permittivity_mmse,
    fit_linear_reflection,
    fresnel_gamma_perp,
    _mse,
    _sample_terms,
    reflection_loss_db,
)

# Frozen from a 50-digit mpmath evaluation of the coefficient formula.
GAMMA_MAG_0_64 = 0.433399211801962
LOSS_0_64 = 7.26223765683394
LOSS_30_47 = 7.57852550823958


def synthetic_samples(eps_r, angles=(10.0, 30.0, 60.0, 80.0), freq_hz=142e9):
    return [
        ReflectionSample(freq_hz, a, reflection_loss_db(a, eps_r))
        for a in angles
    ]


class TestFresnelGammaPerp:
    def test_vacuum_reflects_nothing(self):
        assert fresnel_gamma_perp(0.0, 1.0) == 0.0

    def test_normal_incidence_matches_oracle(self):
        assert abs(fresnel_gamma_perp(0.0, 6.4)) == pytest.approx(
            GAMMA_MAG_0_64, abs=1e-12)

    def test_oracle_value_reproducible_at_high_precision(self):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        mp.dps = 40
        root = mpmath.sqrt(mpmath.mpf("6.4"))
        expected = (root - 1) / (root + 1)
        assert abs(float(expected) - GAMMA_MAG_0_64) < 1e-13

    def test_signed_value_is_non_positive(self):
        for angle in (0.0, 25.0, 70.0):
            for eps in (1.5, 4.7, 20.0):
                assert fresnel_gamma_perp(angle, eps) <= 0.0

    def test_grazing_limit(self):
        assert abs(fresnel_gamma_perp(89.999, 6.4)) == pytest.approx(1.0, abs=1e-3)

    def test_monotone_in_angle(self):
        for eps in (1.5, 4.7, 5.2, 6.4, 15.0):
            mags = [abs(fresnel_gamma_perp(a, eps)) for a in range(0, 90, 2)]
            assert all(b >= a - 1e-15 for a, b in zip(mags, mags[1:]))

    def test_monotone_in_permittivity(self):
        for angle in (0.0, 20.0, 45.0, 75.0):
            mags = [abs(fresnel_gamma_perp(angle, e))
                    for e in [1.0 + 0.5 * i for i in range(30)]]
            assert all(b >= a - 1e-15 for a, b in zip(mags, mags[1:]))

    @pytest.mark.parametrize("angle,eps", [(90.0, 4.0), (-1.0, 4.0), (30.0, 0.5)])
    def test_domain_violations(self, angle, eps):
        with pytest.raises(InvariantViolationError):
            fresnel_gamma_perp(angle, eps)

    @pytest.mark.parametrize("function", [fresnel_gamma_perp, reflection_loss_db])
    @pytest.mark.parametrize("eps, message", [(math.inf, "eps_r must be finite"),
                                              (math.nan, "eps_r must be >= 1"),
                                              (0.5, "eps_r must be >= 1")])
    def test_permittivity_must_be_finite_and_at_least_one(self, function, eps, message):
        # an infinite eps_r used to give a nan coefficient and a nan loss
        with pytest.raises(InvariantViolationError, match=f"^{message}$"):
            function(30.0, eps)


class TestReflectionLoss:
    def test_predicted_drywall_loss_at_normal_incidence(self):
        # 142 GHz drywall: quoted prediction is 7.25 dB
        assert reflection_loss_db(0.0, 6.4) == pytest.approx(7.25, abs=0.05)

    def test_matches_oracle(self):
        assert reflection_loss_db(0.0, 6.4) == pytest.approx(LOSS_0_64, abs=1e-12)
        assert reflection_loss_db(30.0, 4.7) == pytest.approx(LOSS_30_47, abs=1e-12)

    def test_perfect_transmission(self):
        with pytest.raises(PerfectTransmissionError):
            reflection_loss_db(0.0, 1.0)

    def test_table2_142ghz_spread(self):
        data = paper_dataset()
        spread = (data.reflection_loss_db(142e9, 10.0)
                  - data.reflection_loss_db(142e9, 80.0))
        assert spread == pytest.approx(9.45, abs=1e-12)
        assert abs(spread - 9.4) < 0.1


class TestMmseEstimator:
    def test_round_trip_52(self):
        estimate = estimate_permittivity_mmse(synthetic_samples(5.2))
        assert estimate.eps_r == pytest.approx(5.2, abs=1e-3)
        assert estimate.mse < 1e-12
        assert estimate.samples_used == 4

    def test_round_trip_random_permittivities(self):
        import random
        rng = random.Random(1207)
        for _ in range(40):
            eps = rng.uniform(1.5, 20.0)
            estimate = estimate_permittivity_mmse(synthetic_samples(eps))
            assert abs(estimate.eps_r - eps) < 1e-3

    def test_single_sample_rejected(self):
        with pytest.raises(TooFewSamplesError):
            estimate_permittivity_mmse(synthetic_samples(5.2, angles=(30.0,)))

    def test_mixed_frequencies_rejected(self):
        samples = [ReflectionSample(28e9, 10.0, 12.98),
                   ReflectionSample(73e9, 30.0, 8.08)]
        with pytest.raises(MixedFrequenciesError):
            estimate_permittivity_mmse(samples)

    def test_table2_estimates_near_published(self):
        data = paper_dataset()
        published = {28e9: 4.7, 73e9: 5.2, 142e9: 6.4}
        for freq, eps in published.items():
            estimate = estimate_permittivity_mmse(list(data.reflection_samples(freq)))
            assert abs(estimate.eps_r - eps) <= 1.0

    def test_lossless_reflection_hits_the_upper_bound(self):
        # 0 dB means |gamma|^2 = 1, which no finite eps_r reaches
        samples = [ReflectionSample(28e9, a, 0.0) for a in (10.0, 30.0, 60.0, 80.0)]
        with pytest.raises(EstimateAtBoundError, match="search bound"):
            estimate_permittivity_mmse(samples)

    def test_interior_minimum_near_one_is_returned(self):
        samples = [ReflectionSample(28e9, a, 80.0) for a in (10.0, 30.0)]
        estimate = estimate_permittivity_mmse(samples)
        assert round(estimate.eps_r, 4) == 1.0003

    def test_objective_matches_fresnel_per_sample(self):
        # left to right: sum() is compensated from Python 3.12
        samples = synthetic_samples(5.2)
        total = 0.0
        for s in samples:
            gamma = fresnel_gamma_perp(s.incident_angle_deg, 6.0)
            error = 10.0 ** (-s.reflection_loss_db / 10.0) - gamma * gamma
            total += error * error
        assert _mse(6.0, _sample_terms(samples)) == total / len(samples)

    def test_objective_squares_are_correctly_rounded(self):
        """An example from glibc's pow, which rounds this sample's gamma ** 2
        off by an ulp: with glibc 2.36 the objective is 0x1.d1b87ee29aa18p-5,
        and was ...aa1ap-5 when it squared with ``** 2``."""
        gamma = fresnel_gamma_perp(30.0, 4.3254)
        error = 10.0 ** (-4.0 / 10.0) - float(Fraction(gamma) ** 2)
        expected = float(Fraction(error) ** 2)  # the mean of one sample
        assert _mse(4.3254, _sample_terms([ReflectionSample(73e9, 30.0, 4.0)])) == expected

    def test_objective_beats_uniform_grid(self):
        # oracle cross-check: no point of a 1000-point grid does better
        samples = list(paper_dataset().reflection_samples(142e9))
        estimate = estimate_permittivity_mmse(samples)
        lo, hi = EPS_SEARCH_RANGE
        grid = [lo + (hi - lo) * i / 999 for i in range(1000)]
        terms = _sample_terms(samples)
        best_on_grid = min(_mse(e, terms) for e in grid)
        assert estimate.mse <= best_on_grid + 1e-15


class TestLinearFit:
    def test_exact_line_through_two_points(self):
        # |gamma| of 0.2 at 10 deg and 0.9 at 80 deg
        samples = [
            ReflectionSample(142e9, 10.0, -20 * math.log10(0.2)),
            ReflectionSample(142e9, 80.0, -20 * math.log10(0.9)),
        ]
        fit, rmse = fit_linear_reflection(samples)
        assert fit.slope == pytest.approx(0.01, abs=1e-12)
        assert fit.intercept == pytest.approx(0.1, abs=1e-12)
        assert rmse == pytest.approx(0.0, abs=1e-12)

    def test_constant_samples_give_zero_slope(self):
        samples = [ReflectionSample(142e9, a, 6.0) for a in (10.0, 40.0, 70.0)]
        fit, rmse = fit_linear_reflection(samples)
        assert fit.slope == pytest.approx(0.0, abs=1e-15)
        assert fit.intercept == pytest.approx(10 ** (-6.0 / 20.0), abs=1e-12)
        assert rmse == pytest.approx(0.0, abs=1e-12)

    def test_table2_slope_positive(self):
        # |gamma| grows toward grazing at every band
        data = paper_dataset()
        for freq in data.frequencies:
            fit, _ = fit_linear_reflection(list(data.reflection_samples(freq)))
            assert fit.slope > 0.0

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            fit_linear_reflection([ReflectionSample(142e9, 10.0, 9.81)])

    def test_degenerate_angles(self):
        samples = [ReflectionSample(142e9, 30.0, 7.53),
                   ReflectionSample(142e9, 30.0, 7.60)]
        with pytest.raises(DegenerateAnglesError):
            fit_linear_reflection(samples)


@pytest.mark.parametrize("estimator", [estimate_permittivity_mmse, fit_linear_reflection])
@pytest.mark.parametrize("samples, error", [
    ([], TooFewSamplesError),
    ([ReflectionSample(142e9, 10.0, 9.81)], TooFewSamplesError),
    # mixed frequencies win over coincident angles
    ([ReflectionSample(28e9, 30.0, 4.22), ReflectionSample(142e9, 30.0, 7.53)],
     MixedFrequenciesError),
])
def test_estimators_share_one_precondition(estimator, samples, error):
    with pytest.raises(error):
        estimator(samples)
