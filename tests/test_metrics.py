"""Measure and classification behaviour, including the sandwich bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim.errors import BadParameterError
from gossipsim.montecarlo import Classification
from reference import MeasureSample, classify, measure


def sample(k, spread, *, x_min=0.0, dispersion=0.0):
    return MeasureSample(k=k, x_max=x_min + spread, x_min=x_min,
                         spread=spread, dispersion=dispersion)


def test_measure_exact_values():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    m = measure(x, 7, 2.5)
    assert m.k == 7
    assert m.x_max == 4.0
    assert m.x_min == 1.0
    assert m.spread == 3.0
    # (1.5^2 + 0.5^2) * 2 = 5
    assert m.dispersion == 5.0


def test_measure_single_point_reference():
    x = np.array([2.0, 2.0, 2.0])
    m = measure(x, 0, 0.0)
    assert m.spread == 0.0
    assert m.dispersion == 12.0


def test_measure_off_interval_reference():
    # Reference outside [min, max] still produces a measurement; only the
    # sandwich upper bound loses validity.
    x = np.array([1.0, 3.0])
    m = measure(x, 0, 10.0)
    assert m.dispersion == 81.0 + 49.0


def test_classify_agreed():
    samples = [sample(0, 3.0), sample(100, 1e-9)]
    assert classify(samples, 1e-6, 1e6) is Classification.AGREED


def test_classify_final_spread_at_eps_is_undecided():
    samples = [sample(0, 3.0), sample(100, 1e-6)]
    assert classify(samples, 1e-6, 1e6) is Classification.UNDECIDED


def test_classify_spread_at_big_m_is_not_diverged():
    samples = [sample(0, 3.0), sample(50, 1e6), sample(100, 0.5)]
    assert classify(samples, 1e-6, 1e6) is Classification.UNDECIDED


def test_classify_excursion_above_big_m_sticks():
    # Divergence is sticky: a later recovery does not undo it.
    samples = [sample(0, 3.0), sample(50, 2e6), sample(100, 1e-9)]
    assert classify(samples, 1e-6, 1e6) is Classification.DIVERGED


def test_classify_nonfinite_flag_wins():
    samples = [sample(0, 3.0), sample(100, 1e-9)]
    assert classify(samples, 1e-6, 1e6, nonfinite=True) is Classification.DIVERGED


def test_classify_undecided():
    samples = [sample(0, 3.0), sample(100, 0.5)]
    assert classify(samples, 1e-6, 1e6) is Classification.UNDECIDED


def test_classify_validation():
    with pytest.raises(BadParameterError):
        classify([], 1e-6, 1e6)
    with pytest.raises(BadParameterError):
        classify([sample(0, 3.0)], 0.0, 1e6)
    with pytest.raises(BadParameterError):
        classify([sample(0, 3.0)], -1e-6, 1e6)
    # big_m must strictly exceed the initial spread
    with pytest.raises(BadParameterError):
        classify([sample(0, 3.0)], 1e-6, 3.0)


@settings(max_examples=100)
@given(data=st.data(),
       n=st.integers(2, 12),
       seed=st.integers(0, 2**32 - 1))
def test_sandwich_bounds_for_interior_reference(data, n, seed):
    """spread^2 / 2 <= L <= n * spread^2 whenever ref lies in [min, max]."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-50.0, 50.0, size=n)
    lo, hi = float(x.min()), float(x.max())
    ref = data.draw(st.floats(lo, hi, allow_nan=False))
    m = measure(x, 0, ref)
    slack = 1e-9 * max(1.0, m.spread**2)
    assert m.dispersion >= 0.5 * m.spread**2 - slack
    assert m.dispersion <= n * m.spread**2 + slack
