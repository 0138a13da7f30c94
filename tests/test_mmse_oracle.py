"""The MMSE permittivity search against a scalar full-grid search.

The oracle below evaluates the objective at every one of the 300 grid
points, with the Fresnel formula written out, so it shares no code with
``mmwprop.reflection``, which evaluates only the points that can hold the
grid's first minimum. The two must agree bit for bit. The oracle squares
by multiplication, which is correctly rounded on every C library, where
``x ** 2`` goes through pow.
"""

import math

import pytest

from mmwprop.datasets import ReflectionSample, paper_dataset
from mmwprop.errors import EstimateAtBoundError, FlatObjectiveError
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
        gamma = _oracle_gamma(s.incident_angle_deg, eps_r)
        error = measured - gamma * gamma
        total += error * error
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
    """(eps_r, mse) from the scalar grid-then-golden-section search, or None
    when every grid value lies within the objective's rounding bound,
    (N + 64) * 2**-52, of the least."""
    lo, hi = EPS_SEARCH_RANGE
    step = (hi - lo) / (_SEARCH_GRID_POINTS - 1)
    grid = [lo + i * step for i in range(_SEARCH_GRID_POINTS)]
    values = [_oracle_objective(e, samples) for e in grid]
    if max(values) <= min(values) + (len(samples) + 64) * 2.0 ** -52:
        return None
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


# Angles anywhere, and within 1e-3 deg of normal and of grazing incidence.
_ANGLES = st.one_of(
    st.floats(min_value=0.0, max_value=90.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=0.0, max_value=1e-3, exclude_min=True),
    st.floats(min_value=90.0 - 1e-3, max_value=90.0, exclude_max=True))
# A 0 dB loss inverts to an infinite permittivity.
_LOSSES = st.one_of(st.floats(min_value=0.0, max_value=40.0), st.just(0.0))


def _row_above_30(angle, fraction):
    """The angle and a loss below the one eps_r = 30 gives: eps_k exceeds 30."""
    return angle, fraction * -10.0 * math.log10(_oracle_gamma(angle, 30.0) ** 2)


_ROWS_ABOVE_30 = st.tuples(_ANGLES, st.floats(min_value=0.0, max_value=1.0,
                                              exclude_max=True)).map(
    lambda row: _row_above_30(*row))


# Lists drawn with a free length stay short, so the length is drawn first.
_SAMPLE_ROWS = st.integers(min_value=2, max_value=200).flatmap(
    lambda n: st.one_of(st.lists(st.tuples(_ANGLES, _LOSSES), min_size=n, max_size=n),
                        st.lists(_ROWS_ABOVE_30, min_size=n, max_size=n)))


# No shrink phase: shrinking a failure would rerun the scalar oracle (up to
# 0.1 s a call) until Hypothesis gives up after minutes. The failing input
# is reported as drawn. The explicit examples are sets where the search must
# look beyond the samples' inverted permittivities: two grazing sets whose
# objective is flat to within rounding over the whole grid, which both
# searches refuse; a grazing set whose grid minimum lies at eps_r = 1, where
# rounding breaks monotonicity; a set whose objective has more than one
# local minimum; and a set whose mse differs in its last bits when the
# squares go through glibc's pow.
@hypothesis.settings(max_examples=60, phases=(hypothesis.Phase.explicit,
                                              hypothesis.Phase.generate))
@hypothesis.given(_SAMPLE_ROWS)
@hypothesis.example([(89.99999999999999, 0.0), (89.99999999999999, 0.0)])
@hypothesis.example([(89.99999999999953, 3.1822806396258537e-14)] * 2)
@hypothesis.example([(89.99999940568404, 3.204939591466497e-08), (89.99999940568404, 0.0)])
@hypothesis.example([(21.609041398907614, 5e-324), (89.7435237070727, 0.0010007097368713858),
                     (86.83201767713945, 30.62495491845709), (3.725918232600513, 20.03848874383622),
                     (0.0002675600258751, 28.568065394509034)])
@hypothesis.example([(30.0, 12.22), (60.0, 7.07)])
def test_search_agrees_with_scalar_oracle(rows):
    samples = [ReflectionSample(73e9, angle, loss) for angle, loss in rows]
    want = oracle_estimate(samples)
    if want is None:
        with pytest.raises(FlatObjectiveError):
            estimate_permittivity_mmse(samples)
        return
    want_eps, want_mse = want
    if _at_bound(want_eps):
        with pytest.raises(EstimateAtBoundError):
            estimate_permittivity_mmse(samples)
        return
    estimate = estimate_permittivity_mmse(samples)
    assert (estimate.eps_r, estimate.mse) == (want_eps, want_mse)
    assert estimate.samples_used == len(samples)
