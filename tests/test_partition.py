import math

import pytest

from mmwprop.datasets import CLEAR_GLASS, DRYWALL, paper_dataset
from mmwprop.errors import InvariantViolationError, OverUnityBudgetError
from mmwprop.partition import (
    PowerBudget,
    depolarization_margin,
    partition_loss,
    power_budget,
    xpd_from_path_losses,
)
from mmwprop.pathloss import fspl_db
from mmwprop.reflection import reflection_loss_db

FSPL_142G_3M = 85.0359752039378  # mpmath oracle


def measured_loss(tx_dbm, rx_dbm, d=3.0, f=142e9):
    return partition_loss(tx_dbm, rx_dbm, d, f)


class TestPartitionLoss:
    def test_free_space_link_has_zero_loss(self):
        rx = 10.0 - fspl_db(142e9, 4.0)
        result = measured_loss(10.0, rx, d=4.0)
        assert result.loss_db == pytest.approx(0.0, abs=1e-12)
        assert not result.negative_loss

    def test_reproduces_clear_glass_vv_mean(self):
        # received power constructed so the loss equals the 142 GHz V-V mean
        rx = -(10.22 + FSPL_142G_3M)
        result = measured_loss(0.0, rx)
        assert result.loss_db == pytest.approx(10.22, abs=1e-9)

    def test_negative_loss_is_flagged_not_rejected(self):
        rx = 0.0 - fspl_db(142e9, 3.0) + 2.0  # 2 dB hotter than free space
        result = measured_loss(0.0, rx)
        assert result.loss_db == pytest.approx(-2.0, abs=1e-12)
        assert result.negative_loss

    def test_antisymmetry_in_received_power(self):
        base = measured_loss(0.0, -95.0).loss_db
        for extra in (0.5, 3.0, 17.0):
            boosted = measured_loss(0.0, -95.0 + extra).loss_db
            assert boosted == pytest.approx(base - extra, abs=1e-12)

    def test_invalid_geometry(self):
        with pytest.raises(InvariantViolationError, match="distance_m must be > 0"):
            measured_loss(0.0, -90.0, d=0.0)
        with pytest.raises(InvariantViolationError, match="freq_hz must be > 0"):
            measured_loss(0.0, -90.0, f=0.0)


class TestXpd:
    def test_142ghz_xpd_from_path_losses(self):
        assert xpd_from_path_losses(124.18, 80.0) == pytest.approx(44.18, abs=1e-12)

    def test_identical_inputs_give_zero(self):
        assert xpd_from_path_losses(91.3, 91.3) == 0.0

    def test_translation_invariance(self):
        base = xpd_from_path_losses(110.0, 82.0)
        for offset in (-40.0, 3.5, 60.0):
            assert xpd_from_path_losses(110.0 + offset, 82.0 + offset) == \
                pytest.approx(base, abs=1e-12)


class TestDepolarizationMargin:
    @pytest.mark.parametrize("freq,expected", [
        (28e9, 6.40), (73e9, -4.76), (142e9, -17.54),
    ])
    def test_drywall_margins(self, freq, expected):
        data = paper_dataset()
        cross_mean = (data.partition_mean_db(DRYWALL, freq, "V", "H")
                      + data.partition_mean_db(DRYWALL, freq, "H", "V")) / 2.0
        margin = depolarization_margin(cross_mean, data.xpd_db(freq))
        assert margin == pytest.approx(expected, abs=0.01)

    def test_sign_means_depolarization(self):
        # cross-pol loss below the antenna XPD implies polarization coupling
        assert depolarization_margin(26.64, 44.18) < 0.0
        assert depolarization_margin(25.70, 19.30) > 0.0


class TestPowerBudget:
    def test_drywall_142ghz_split(self):
        budget = power_budget(7.25, 8.46)
        assert budget.reflected_fraction == pytest.approx(0.188364908949, abs=1e-9)
        assert budget.transmitted_fraction == pytest.approx(0.14256075936, abs=1e-9)
        assert budget.absorbed_fraction == pytest.approx(0.669074331691, abs=1e-9)

    def test_round_numbers(self):
        budget = power_budget(10.0, 10.0)
        assert budget.reflected_fraction == pytest.approx(0.1, abs=1e-12)
        assert budget.transmitted_fraction == pytest.approx(0.1, abs=1e-12)
        assert budget.absorbed_fraction == pytest.approx(0.8, abs=1e-12)

    def test_total_reflection_rejects_any_transmission(self):
        with pytest.raises(OverUnityBudgetError):
            power_budget(0.0, 3.0)

    def test_total_reflection_with_opaque_partition(self):
        budget = power_budget(0.0, math.inf)
        assert budget.reflected_fraction == 1.0
        assert budget.transmitted_fraction == 0.0
        assert budget.absorbed_fraction == 0.0

    def test_negative_losses_rejected(self):
        with pytest.raises(InvariantViolationError):
            power_budget(-0.1, 5.0)

    def test_fractions_always_sum_to_one(self):
        for refl, part in ((3.0, 5.0), (7.25, 8.46), (20.0, 0.5), (1.0, 30.0)):
            budget = power_budget(refl, part)
            total = (budget.reflected_fraction + budget.transmitted_fraction
                     + budget.absorbed_fraction)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_budget_type_validates_sum(self):
        with pytest.raises(InvariantViolationError):
            PowerBudget(0.5, 0.5, 0.5)
        with pytest.raises(InvariantViolationError):
            PowerBudget(1.2, -0.1, -0.1)


class TestEmbeddedTablesFeedTheOperations:
    def test_all_cross_pol_rows_produce_margins(self):
        data = paper_dataset()
        for material in (CLEAR_GLASS, DRYWALL):
            for freq in data.frequencies:
                cross = [r.mean_loss_db
                         for r in data.partition_records(material, freq)
                         if r.tx_pol is not r.rx_pol]
                margin = depolarization_margin(sum(cross) / len(cross),
                                               data.xpd_db(freq))
                assert math.isfinite(margin)

    def test_all_co_pol_rows_produce_valid_budgets(self):
        data = paper_dataset()
        for material in (CLEAR_GLASS, DRYWALL):
            for freq in data.frequencies:
                refl = reflection_loss_db(0.0, data.permittivity(freq))
                for record in data.partition_records(material, freq):
                    if record.tx_pol is record.rx_pol:
                        budget = power_budget(refl, record.mean_loss_db)
                        assert 0.0 <= budget.absorbed_fraction <= 1.0

    def test_glass_vh_hv_asymmetry_at_142ghz(self):
        data = paper_dataset()
        vh = data.partition_mean_db(CLEAR_GLASS, 142e9, "V", "H")
        hv = data.partition_mean_db(CLEAR_GLASS, 142e9, "H", "V")
        assert vh - hv == pytest.approx(9.55, abs=1e-9)
