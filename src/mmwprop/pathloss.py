"""Friis free-space path loss and the close-in (1 m) path-loss model.

The CI model anchors at FSPL(f, 1 m) and has a single slope parameter, the
path-loss exponent n:

    PL(d) = FSPL(f, 1 m) + 10 * n * log10(d / 1 m)

Fitting is the anchored least squares n = sum(A*B) / sum(B^2) with
A = PL_i - FSPL(f, 1 m) and B = 10*log10(d_i). The shadow-fading sigma is the
RMS residual with 1/N normalization (sample count is exposed so callers can
recompute an unbiased variant).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .datasets import CiFitRecord, Environment, PathLossSample, _checked, same_freq
from .errors import (
    AllAtReferenceDistanceError,
    BelowReferenceDistanceError,
    InvariantViolationError,
    MixedFrequenciesError,
    NonPositiveExponentError,
    TooFewSamplesError,
    UndeterminedExponentError,
    _finite,
)

SPEED_OF_LIGHT_M_S = 299_792_458.0
REFERENCE_DISTANCE_M = 1.0


def fspl_db(freq_hz: float, distance_m: float) -> float:
    """Free-space path loss 20*log10(4*pi*d*f/c) between isotropic antennas."""
    if not freq_hz > 0:
        raise InvariantViolationError("freq_hz must be > 0")
    if not distance_m > 0:
        raise InvariantViolationError("distance_m must be > 0")
    ratio = 4.0 * math.pi * distance_m * freq_hz / SPEED_OF_LIGHT_M_S
    if ratio == 0.0:
        raise InvariantViolationError("4*pi*d*f/c underflows to 0, so the loss in dB is unbounded")
    return 20.0 * math.log10(ratio)


class CiModel(_checked("CiModel", [("freq_hz", float), ("ple", float), ("sigma_db", float)])):
    __slots__ = ()

    _validate = CiFitRecord._check


def ci_path_loss_db(model: CiModel, distance_m: float) -> float:
    """Mean CI path loss at distance_m; sigma is metadata, not added here."""
    if distance_m < REFERENCE_DISTANCE_M:
        raise BelowReferenceDistanceError(
            f"distance {distance_m} m is below the {REFERENCE_DISTANCE_M} m reference")
    return (fspl_db(model.freq_hz, REFERENCE_DISTANCE_M)
            + 10.0 * model.ple * math.log10(distance_m / REFERENCE_DISTANCE_M))


def fit_ci(samples: Sequence[PathLossSample], freq_hz: float) -> CiModel:
    """Fit the single-parameter CI model through the 1 m anchor."""
    if len(samples) < 2:
        raise TooFewSamplesError("need at least 2 path-loss samples")
    if not all(same_freq(f, freq_hz) for f in {s.freq_hz for s in samples}):
        raise MixedFrequenciesError(f"samples do not all sit at {freq_hz} Hz")

    anchor = fspl_db(freq_hz, REFERENCE_DISTANCE_M)
    a = [s.path_loss_db - anchor for s in samples]
    b = [10.0 * math.log10(s.distance_m / REFERENCE_DISTANCE_M) for s in samples]
    denom = sum(x * x for x in b)
    if denom == 0.0:
        raise AllAtReferenceDistanceError(
            "every sample is at the reference distance; slope is undefined")
    if denom < 1.0:  # the exponent's standard error is sigma / sqrt(denom)
        raise UndeterminedExponentError(
            f"the distances barely leave the {REFERENCE_DISTANCE_M:g} m anchor: sum of "
            f"(10 log10 d)^2 is {denom:.4g} dB^2, under 1, so 1 dB of path-loss scatter "
            f"moves the fitted exponent by more than 1")
    ple = sum(x * y for x, y in zip(a, b)) / denom
    if ple <= 0.0:
        raise NonPositiveExponentError(
            f"fitted path-loss exponent {ple:.4g} is not > 0: the losses lie at or below "
            f"the {anchor:.2f} dB free-space loss at {REFERENCE_DISTANCE_M:g} m")
    # r * r overflows to inf, reported below; float ** would raise
    residual_sq = sum(r * r for r in (y - ple * x for x, y in zip(b, a)))
    sigma = math.sqrt(residual_sq / len(samples))
    return CiModel(freq_hz=freq_hz, ple=_finite(ple), sigma_db=_finite(sigma))


class DirectionalReduction(NamedTuple):
    """LOS / NLOS split plus the best pointing per NLOS TX-RX location."""

    los: tuple[PathLossSample, ...]
    nlos_all: tuple[PathLossSample, ...]
    nlos_best: tuple[PathLossSample, ...]


def reduce_directional(samples: Sequence[PathLossSample]) -> DirectionalReduction:
    """Partition by environment and pick the lowest-loss NLOS pointing per link.

    Ties on path loss break toward the lowest (tx_az_deg, rx_az_deg) pair.
    The nlos_best entries are ordered by (tx_id, rx_id).
    """
    los: list[PathLossSample] = []
    nlos: list[PathLossSample] = []
    # (tx_id, rx_id) -> ((path_loss_db, tx_az_deg, rx_az_deg), best sample so far)
    best: dict[tuple[str, str], tuple[tuple[float, float, float], PathLossSample]] = {}
    for s in samples:
        environment = s.environment
        if environment is Environment.LOS:
            los.append(s)
        elif environment is Environment.NLOS:
            nlos.append(s)
            key = (s.tx_id, s.rx_id)
            rank = (s.path_loss_db, s.tx_az_deg, s.rx_az_deg)
            current = best.get(key)
            if current is None or rank < current[0]:
                best[key] = (rank, s)
    nlos_best = tuple(best[k][1] for k in sorted(best))
    return DirectionalReduction(los=tuple(los), nlos_all=tuple(nlos), nlos_best=nlos_best)
