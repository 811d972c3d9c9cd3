"""Property tests over arbitrary inputs (hypothesis-driven)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from oodlab.detection import mad, select_threshold
from oodlab.nets import softmax
from oodlab.wasserstein import binary_cost_matrix, wasserstein_score

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


@given(st.lists(finite_floats, min_size=2, max_size=8))
def test_softmax_emits_probability_vector(logits):
    out = softmax(np.array(logits))
    assert (out >= 0).all()
    assert abs(out.sum() - 1.0) < 1e-12


@given(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2,
                max_size=6),
       st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_softmax_shift_invariance(logits, shift):
    z = np.array(logits)
    np.testing.assert_allclose(softmax(z + shift), softmax(z), atol=1e-12)


@st.composite
def probability_vectors(draw, max_k=6):
    k = draw(st.integers(min_value=2, max_value=max_k))
    raw = draw(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=k, max_size=k))
    arr = np.array(raw)
    return arr / arr.sum()


@given(probability_vectors())
def test_score_closed_form_and_bounds(p):
    K = p.size
    score, k_star = wasserstein_score(p, binary_cost_matrix(K))
    assert abs(score - (1.0 - p.max())) < 1e-12
    assert 0.0 <= score <= 1.0 - 1.0 / K + 1e-15
    assert 1 <= k_star <= K


@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=1, max_size=300),
       st.sampled_from([0.5, 0.9, 0.95, 0.99, 1.0]))
@settings(max_examples=200)
def test_threshold_calibration_sound_and_minimal(scores, target):
    arr = np.array(scores)
    eta = select_threshold(arr, target)
    n = arr.size
    assert np.sum(arr <= eta) / n >= target
    for candidate in np.unique(arr[arr < eta]):
        assert np.sum(arr <= candidate) / n < target


@given(st.lists(finite_floats, min_size=1, max_size=50))
def test_mad_nonnegative_and_tiny_for_constants(values):
    assert mad(values) >= 0.0
    # The mean of repeated values is only exact up to rounding, so a constant
    # list deviates by at most a few ulps of the value itself.
    assert mad([values[0]] * 5) <= max(1e-12, abs(values[0]) * 1e-12)
