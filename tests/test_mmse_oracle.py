"""The MMSE permittivity search against a scalar copy of the original loops.

The oracle below is the pure-Python search the vectorised grid stage
replaced: it evaluates the objective point by point with the Fresnel
formula written out, so it shares no code with ``mmwprop.reflection``.
"""

import math

import pytest

from mmwprop.datasets import ReflectionSample, paper_dataset
from mmwprop.errors import EstimateAtBoundError
from mmwprop.reflection import (
    _EPS_TOLERANCE,
    _SEARCH_GRID_POINTS,
    EPS_SEARCH_RANGE,
    estimate_permittivity_mmse,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _oracle_gamma(incident_angle_deg, eps_r):
    theta = math.radians(incident_angle_deg)
    root = math.sqrt(eps_r - math.sin(theta) ** 2)
    return (math.cos(theta) - root) / (math.cos(theta) + root)


def _oracle_objective(eps_r, samples):
    total = 0.0
    for s in samples:
        measured = 10.0 ** (-s.reflection_loss_db / 10.0)
        modeled = _oracle_gamma(s.incident_angle_deg, eps_r) ** 2
        total += (measured - modeled) ** 2
    return total / len(samples)


def _oracle_golden(func, lo, hi, tol):
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


def oracle_estimate(samples):
    """(eps_r, mse) from the scalar grid-then-golden-section search."""
    lo, hi = EPS_SEARCH_RANGE
    step = (hi - lo) / (_SEARCH_GRID_POINTS - 1)
    grid = [lo + i * step for i in range(_SEARCH_GRID_POINTS)]
    values = [_oracle_objective(e, samples) for e in grid]
    best = values.index(min(values))
    eps_r = _oracle_golden(lambda e: _oracle_objective(e, samples),
                           grid[max(best - 1, 0)],
                           grid[min(best + 1, _SEARCH_GRID_POINTS - 1)],
                           _EPS_TOLERANCE)
    return eps_r, _oracle_objective(eps_r, samples)


def _at_bound(eps_r):
    lo, hi = EPS_SEARCH_RANGE
    return min(eps_r - lo, hi - eps_r) <= _EPS_TOLERANCE


@pytest.mark.parametrize("freq_hz", [28e9, 73e9, 142e9])
def test_table2_sets_equal_the_oracle_exactly(freq_hz):
    samples = list(paper_dataset().reflection_samples(freq_hz))
    estimate = estimate_permittivity_mmse(samples)
    assert (estimate.eps_r, estimate.mse) == oracle_estimate(samples)


_ANGLES = st.floats(min_value=0.0, max_value=90.0, exclude_min=True, exclude_max=True)
_LOSSES = st.floats(min_value=0.0, max_value=40.0)


# Lists drawn with a free length stay short, so the length is drawn first.
_SAMPLE_ROWS = st.integers(min_value=2, max_value=200).flatmap(
    lambda n: st.lists(st.tuples(_ANGLES, _LOSSES), min_size=n, max_size=n))


# No shrink phase: shrinking a failure would rerun the scalar oracle (up to
# 0.1 s a call) until Hypothesis gives up after minutes. The failing input
# is reported as drawn.
@hypothesis.settings(max_examples=60, phases=(hypothesis.Phase.explicit,
                                              hypothesis.Phase.generate))
@hypothesis.given(_SAMPLE_ROWS)
def test_search_agrees_with_scalar_oracle(rows):
    samples = [ReflectionSample(73e9, angle, loss) for angle, loss in rows]
    want_eps, want_mse = oracle_estimate(samples)
    if _at_bound(want_eps):
        with pytest.raises(EstimateAtBoundError):
            estimate_permittivity_mmse(samples)
        return
    estimate = estimate_permittivity_mmse(samples)
    assert abs(estimate.eps_r - want_eps) <= _EPS_TOLERANCE
    assert abs(estimate.mse - want_mse) <= 1e-12
    assert estimate.samples_used == len(samples)
