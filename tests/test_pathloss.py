import math
import random

import pytest

from mmwprop.datasets import Environment, PathLossSample, paper_dataset
from mmwprop.errors import (
    AllAtReferenceDistanceError,
    BelowReferenceDistanceError,
    InvariantViolationError,
    MixedFrequenciesError,
    NonPositiveExponentError,
    TooFewSamplesError,
)
from mmwprop.pathloss import (
    CiModel,
    ci_path_loss_db,
    fit_ci,
    fspl_db,
    reduce_directional,
)

# Frozen from a 50-digit mpmath evaluation of 20*log10(4*pi*d*f/c).
FSPL_142G_1M = 75.4935501095445
FSPL_28G_1M = 61.3909438487278
FSPL_142G_3M = 85.0359752039378


def make_sample(distance_m, path_loss_db, freq_hz=142e9, env="NLOS",
                tx_id="tx1", rx_id="rx1", tx_az=0.0, rx_az=0.0):
    return PathLossSample(
        freq_hz=freq_hz, tx_id=tx_id, rx_id=rx_id, distance_m=distance_m,
        environment=env, tx_az_deg=tx_az, tx_el_deg=0.0, rx_az_deg=rx_az,
        rx_el_deg=0.0, tx_pol="V", rx_pol="V", path_loss_db=path_loss_db)


class TestFspl:
    def test_oracle_values(self):
        assert fspl_db(142e9, 1.0) == pytest.approx(FSPL_142G_1M, abs=1e-10)
        assert fspl_db(28e9, 1.0) == pytest.approx(FSPL_28G_1M, abs=1e-10)
        assert fspl_db(142e9, 3.0) == pytest.approx(FSPL_142G_3M, abs=1e-10)

    def test_live_high_precision_cross_check(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        expected = 20 * mpmath.log10(
            4 * mpmath.pi * mpmath.mpf(142e9) / mpmath.mpf(299792458))
        assert fspl_db(142e9, 1.0) == pytest.approx(float(expected), abs=1e-12)

    def test_doubling_distance_adds_6db(self):
        delta = fspl_db(73e9, 8.0) - fspl_db(73e9, 4.0)
        assert delta == pytest.approx(20 * math.log10(2.0), abs=1e-12)

    @pytest.mark.parametrize("freq,dist", [(0.0, 1.0), (28e9, 0.0), (-1.0, 2.0)])
    def test_domain_violations(self, freq, dist):
        with pytest.raises(InvariantViolationError):
            fspl_db(freq, dist)


class TestCiModel:
    def test_reference_anchor(self):
        for ple in (1.2, 2.0, 4.7):
            model = CiModel(142e9, ple, 0.0)
            assert ci_path_loss_db(model, 1.0) == pytest.approx(
                fspl_db(142e9, 1.0), abs=1e-12)

    def test_table5_los_at_10m(self):
        model = CiModel(142e9, 1.99, 2.71)
        assert ci_path_loss_db(model, 10.0) == pytest.approx(
            FSPL_142G_1M + 19.9, abs=1e-10)

    def test_ple_two_equals_free_space(self):
        model = CiModel(28e9, 2.0, 0.0)
        for d in (1.0, 2.5, 7.0, 31.0, 100.0):
            assert ci_path_loss_db(model, d) == pytest.approx(
                fspl_db(28e9, d), abs=1e-9)

    def test_below_reference_distance(self):
        with pytest.raises(BelowReferenceDistanceError):
            ci_path_loss_db(CiModel(142e9, 2.0, 0.0), 0.5)

    def test_invalid_parameters(self):
        with pytest.raises(InvariantViolationError):
            CiModel(142e9, 0.0, 1.0)
        with pytest.raises(InvariantViolationError):
            CiModel(142e9, 2.0, -1.0)


class TestFitCi:
    def test_noiseless_round_trip_is_exact(self):
        model_in = CiModel(142e9, 2.0, 0.0)
        samples = [make_sample(d, ci_path_loss_db(model_in, d))
                   for d in (1.5, 3.0, 9.0, 20.0, 45.0)]
        fit = fit_ci(samples, 142e9)
        assert fit.ple == pytest.approx(2.0, abs=1e-9)
        assert fit.sigma_db == pytest.approx(0.0, abs=1e-9)

    def test_monte_carlo_recovery_nlos(self):
        # Table V NLOS row: n = 4.70, sigma = 14.10 dB
        rng = random.Random(142)
        anchor = fspl_db(142e9, 1.0)
        samples = []
        for _ in range(10_000):
            d = rng.uniform(1.5, 40.0)
            pl = anchor + 10 * 4.70 * math.log10(d) + rng.gauss(0.0, 14.10)
            samples.append(make_sample(d, pl))
        fit = fit_ci(samples, 142e9)
        assert fit.ple == pytest.approx(4.70, abs=0.1)
        assert fit.sigma_db == pytest.approx(14.10, abs=0.5)

    @pytest.mark.parametrize("offset_db", [0.0, -0.5, -30.0])
    def test_losses_at_or_below_the_anchor_have_no_exponent(self, offset_db):
        # on the anchor the fitted slope is exactly 0; below it, negative
        anchor = fspl_db(142e9, 1.0)
        samples = [make_sample(d, anchor + offset_db) for d in (2.0, 4.0, 8.0)]
        with pytest.raises(NonPositiveExponentError, match="free-space loss at 1 m"):
            fit_ci(samples, 142e9)

    def test_sigma_is_rms_of_residuals(self):
        rng = random.Random(7)
        samples = [make_sample(d, 70 + 30 * math.log10(d) + rng.gauss(0, 5))
                   for d in (2.0, 4.0, 8.0, 16.0, 32.0)]
        fit = fit_ci(samples, 142e9)
        residuals = [s.path_loss_db - ci_path_loss_db(fit, s.distance_m)
                     for s in samples]
        rms = math.sqrt(sum(r * r for r in residuals) / len(residuals))
        assert fit.sigma_db == pytest.approx(rms, abs=1e-9)

    def test_order_invariance(self):
        rng = random.Random(99)
        samples = [make_sample(rng.uniform(1.0, 30.0), rng.uniform(60.0, 140.0))
                   for _ in range(50)]
        forward = fit_ci(samples, 142e9)
        shuffled = samples[:]
        rng.shuffle(shuffled)
        backward = fit_ci(shuffled, 142e9)
        assert forward.ple == pytest.approx(backward.ple, abs=1e-12)
        assert forward.sigma_db == pytest.approx(backward.sigma_db, abs=1e-12)

    def test_all_at_reference_distance(self):
        samples = [make_sample(1.0, 80.0), make_sample(1.0, 82.0)]
        with pytest.raises(AllAtReferenceDistanceError):
            fit_ci(samples, 142e9)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            fit_ci([make_sample(5.0, 90.0)], 142e9)

    def test_mixed_frequencies(self):
        samples = [make_sample(5.0, 90.0), make_sample(9.0, 95.0, freq_hz=28e9)]
        with pytest.raises(MixedFrequenciesError):
            fit_ci(samples, 142e9)

    def test_checks_run_in_order_on_the_distinct_values(self):
        """Too few samples, then a frequency off the match rule, then a
        distance below 1 m (``_replace`` skips the sample's own check)."""
        near = make_sample(5.0, 90.0)._replace(distance_m=0.5)
        off = make_sample(9.0, 95.0, freq_hz=28e9)
        with pytest.raises(TooFewSamplesError):
            fit_ci([off._replace(distance_m=0.5)], 142e9)
        with pytest.raises(MixedFrequenciesError):
            fit_ci([make_sample(5.0, 90.0)] * 50 + [near, off], 142e9)
        with pytest.raises(BelowReferenceDistanceError):
            fit_ci([make_sample(5.0, 90.0)] * 50 + [near], 142e9)
        within_rule = make_sample(9.0, 95.0, freq_hz=142e9 * (1 + 5e-10))
        assert fit_ci([make_sample(5.0, 90.0), within_rule], 142e9).freq_hz == 142e9

    def test_table5_ple_ordering(self):
        data = paper_dataset()
        for freq in data.frequencies:
            los = data.ci_fit(freq, "LOS").ple
            best = data.ci_fit(freq, "NLOS_BEST").ple
            nlos = data.ci_fit(freq, "NLOS").ple
            assert los < best < nlos


class TestReduceDirectional:
    def test_minimum_loss_selected(self):
        samples = [make_sample(5.0, pl, tx_az=az)
                   for pl, az in ((100.0, 0.0), (95.0, 45.0), (110.0, 90.0))]
        reduction = reduce_directional(samples)
        assert len(reduction.nlos_best) == 1
        assert reduction.nlos_best[0].path_loss_db == 95.0

    def test_empty_input(self):
        reduction = reduce_directional([])
        assert reduction.los == ()
        assert reduction.nlos_all == ()
        assert reduction.nlos_best == ()

    def test_one_best_per_location(self):
        samples = [
            make_sample(5.0, 100.0, rx_id="rx1", tx_az=0.0),
            make_sample(5.0, 96.0, rx_id="rx1", tx_az=45.0),
            make_sample(8.0, 120.0, rx_id="rx2", tx_az=0.0),
            make_sample(8.0, 118.0, rx_id="rx2", tx_az=45.0),
        ]
        reduction = reduce_directional(samples)
        assert len(reduction.nlos_best) == 2
        assert [s.path_loss_db for s in reduction.nlos_best] == [96.0, 118.0]

    def test_tie_breaks_on_lowest_azimuth_pair(self):
        samples = [
            make_sample(5.0, 100.0, tx_az=90.0, rx_az=0.0),
            make_sample(5.0, 100.0, tx_az=45.0, rx_az=180.0),
            make_sample(5.0, 100.0, tx_az=45.0, rx_az=30.0),
        ]
        best = reduce_directional(samples).nlos_best[0]
        assert (best.tx_az_deg, best.rx_az_deg) == (45.0, 30.0)

    @pytest.mark.parametrize("changes, message", [
        (dict(tx_id=None), "tx_id must be a str, got NoneType"),
        (dict(tx_id=None, distance_m=0.5),
         "distance_m must be >= 1 (close-in reference distance)"),
    ])
    def test_non_text_id_is_rejected_before_the_reduction(self, changes, message):
        # a None id once reached reduce_directional, whose sorted() raised TypeError
        with pytest.raises(InvariantViolationError) as info:
            reduce_directional([make_sample(5.0, 100.0),
                                make_sample(**{"distance_m": 5.0, "path_loss_db": 99.0,
                                               **changes})])
        assert str(info.value) == message

    def test_los_kept_separate(self):
        samples = [make_sample(5.0, 80.0, env="LOS"),
                   make_sample(5.0, 100.0, env="NLOS")]
        reduction = reduce_directional(samples)
        assert len(reduction.los) == 1
        assert len(reduction.nlos_all) == len(reduction.nlos_best) == 1
        assert reduction.los[0].environment is Environment.LOS
