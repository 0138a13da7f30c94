"""Partition loss, antenna XPD extraction and the power-budget split.

Partition loss of a material under test at distance d:

    L = P_tx[dBm] - P_rx[dBm] - FSPL(f, d)[dB]

Antenna gains are assumed already removed from P_rx; the CLI offers an
optional subtraction. A negative L (received more than free space predicts)
is flagged rather than rejected, since measurement noise can produce it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvariantViolationError, OverUnityBudgetError
from .pathloss import fspl_db


class PartitionLossResult(NamedTuple):
    loss_db: float
    negative_loss: bool  # set when the link beat free space (noise artifact)


def partition_loss(tx_power_dbm: float, rx_power_dbm: float, distance_m: float,
                   freq_hz: float) -> PartitionLossResult:
    """Free-space-corrected loss across a partition; ``fspl_db`` checks the link."""
    loss = tx_power_dbm - rx_power_dbm - fspl_db(freq_hz, distance_m)
    return PartitionLossResult(loss_db=loss, negative_loss=loss < 0.0)


def xpd_from_path_losses(pl_cross_db: float, pl_co_db: float) -> float:
    """Cross-polarization discrimination: cross-pol minus co-pol path loss."""
    return pl_cross_db - pl_co_db


def depolarization_margin(cross_pol_partition_mean_db: float, xpd_db: float) -> float:
    """Cross-polarized partition loss minus antenna XPD.

    Negative values mean the material converts polarization: the cross-pol
    link lost less than the antennas' own discrimination accounts for.
    """
    return cross_pol_partition_mean_db - xpd_db


class PowerBudget(NamedTuple("PowerBudget", [
        ("reflected_fraction", float), ("transmitted_fraction", float),
        ("absorbed_fraction", float)])):
    __slots__ = ()

    def __new__(cls, reflected_fraction, transmitted_fraction, absorbed_fraction):
        fractions = (reflected_fraction, transmitted_fraction, absorbed_fraction)
        for name, value in zip(cls._fields, fractions):
            if not 0.0 <= value <= 1.0:
                raise InvariantViolationError(f"{name} must lie in [0, 1], got {value}")
        total = reflected_fraction + transmitted_fraction + absorbed_fraction
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise InvariantViolationError(f"fractions must sum to 1, got {total}")
        return tuple.__new__(cls, fractions)


def power_budget(reflection_loss_db: float, partition_loss_db: float) -> PowerBudget:
    """Split incident power into reflected / transmitted / absorbed fractions."""
    if reflection_loss_db < 0 or partition_loss_db < 0:
        raise InvariantViolationError("losses must be >= 0 dB")
    reflected = 10.0 ** (-reflection_loss_db / 10.0)
    transmitted = 10.0 ** (-partition_loss_db / 10.0)
    if reflected + transmitted > 1.0:
        raise OverUnityBudgetError(
            f"reflected ({reflected:.4f}) + transmitted ({transmitted:.4f}) exceeds 1; "
            "the loss inputs are inconsistent")
    return PowerBudget(
        reflected_fraction=reflected,
        transmitted_fraction=transmitted,
        absorbed_fraction=1.0 - reflected - transmitted,
    )
