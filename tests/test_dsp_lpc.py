import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emodeid.dsp import (
    hann_window,
    lpc_levinson,
    lpc_residual,
    poly_roots,
    synthesize,
)
from emodeid.errors import InvalidParamError


def normal_equation_order1(frame):
    """Independent oracle: solve the 1-step normal equation directly."""
    r = np.correlate(frame, frame, mode="full")[len(frame) - 1 :]
    return -r[1] / r[0]


def test_ar1_coefficient_recovered():
    rng = np.random.default_rng(3)
    x = np.zeros(8000)
    e = rng.standard_normal(8000)
    for n in range(1, 8000):
        x[n] = 0.9 * x[n - 1] + e[n]
    coeffs, err = lpc_levinson(x, 1)
    assert coeffs[0] == 1.0
    assert abs(coeffs[1] - (-0.9)) < 0.05
    assert err > 0.0


def test_order1_matches_normal_equation_oracle():
    frame = np.ones(64)
    coeffs, _ = lpc_levinson(frame, 1)
    assert coeffs[1] == pytest.approx(normal_equation_order1(frame), abs=1e-6)


def test_all_zero_frame_fallback():
    coeffs, err = lpc_levinson(np.zeros(100), 2)
    np.testing.assert_array_equal(coeffs, [1.0, 0.0, 0.0])
    assert err == 0.0


def test_order_must_be_less_than_frame_length():
    with pytest.raises(InvalidParamError):
        lpc_levinson(np.ones(10), 10)


def test_levinson_is_minimum_phase():
    rng = np.random.default_rng(7)
    window = hann_window(320)
    for _ in range(50):
        coeffs, _ = lpc_levinson(rng.standard_normal(320) * window, 20)
        roots = poly_roots(coeffs)
        assert np.max(np.abs(roots)) < 1.0


def test_residual_identity_filter():
    frame = np.random.default_rng(0).standard_normal(50)
    np.testing.assert_array_equal(lpc_residual(frame, [1.0]), frame)


def test_residual_by_hand():
    np.testing.assert_allclose(
        lpc_residual([1.0, 0.0, 0.0, 0.0], [1.0, -0.5]), [1.0, -0.5, 0.0, 0.0]
    )


def test_residual_requires_monic():
    with pytest.raises(InvalidParamError):
        lpc_residual(np.ones(10), [0.5, 1.0])


def test_residual_energy_drops_for_matched_ar_frame():
    rng = np.random.default_rng(11)
    x = np.zeros(2000)
    e = rng.standard_normal(2000)
    for n in range(1, 2000):
        x[n] = 0.95 * x[n - 1] + e[n]
    res = lpc_residual(x, [1.0, -0.95])
    assert np.sum(res**2) < np.sum(x**2)


def test_synthesize_inverts_residual():
    rng = np.random.default_rng(5)
    frame = rng.standard_normal(320) * hann_window(320)
    coeffs, _ = lpc_levinson(frame, 20)
    rec = synthesize(lpc_residual(frame, coeffs), coeffs)
    assert np.linalg.norm(rec - frame) / np.linalg.norm(frame) < 1e-8


def test_synthesize_identity_coefficients():
    res = np.random.default_rng(1).standard_normal(64)
    np.testing.assert_array_equal(synthesize(res, [1.0]), res)


def test_synthesize_geometric_impulse_response():
    out = synthesize([1.0, 0.0, 0.0, 0.0], [1.0, -0.5])
    np.testing.assert_allclose(out, [1.0, 0.5, 0.25, 0.125])


def test_synthesize_rejects_unstable_filter():
    with pytest.raises(InvalidParamError,
                       match="synthesis filter has poles outside the unit circle"):
        synthesize(np.ones(10), [1.0, -1.5])


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    order=st.integers(2, 24),
)
def test_round_trip_property(seed, order):
    rng = np.random.default_rng(seed)
    frame = rng.standard_normal(320) * hann_window(320)
    coeffs, _ = lpc_levinson(frame, order)
    rec = synthesize(lpc_residual(frame, coeffs), coeffs)
    assert np.linalg.norm(rec - frame) / np.linalg.norm(frame) < 1e-8
