import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ar_signal, speech_like_poles, speech_with_pauses
from emodeid.anonymize import (
    BLOCK_FRAMES,
    AnonymizationParams,
    _synthesize_rows,
    anonymize_mcadams,
    warp_pole_angles,
)
from emodeid.dsp import (
    AudioSignal,
    FrameParams,
    PoleSet,
    frame_signal,
    hann_window,
    lpc_levinson,
    lpc_residual,
    overlap_add,
    poles_to_coeffs,
    poly_roots,
    synthesize,
)
from emodeid.errors import EmptyInputError, InvalidParamError, UnstableFilterError

RATE = 16000
# The batched anonymizer sums in another order than this per-frame loop. The
# loop itself moves by up to ~5e-10 (relative L2) when its input moves by
# 1e-16..1e-15 relative, because frames at the edge of a pause give
# ill-conditioned LPC fits; 1e-8 leaves room for that and nothing more.
ORACLE_REL_L2 = 1e-8


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def random_pole_set(rng, max_pairs=10):
    n_pairs = int(rng.integers(1, max_pairs + 1))
    poles = []
    for _ in range(n_pairs):
        z = rng.uniform(0.05, 0.999) * np.exp(1j * rng.uniform(1e-4, np.pi - 1e-4))
        poles.extend([z, np.conj(z)])
    if rng.random() < 0.3:
        poles.append(complex(rng.uniform(-0.999, 0.999)))
    return PoleSet(np.array(poles))


def test_warp_known_pole():
    pole_set = PoleSet(np.array([0.95 * np.exp(0.5j), 0.95 * np.exp(-0.5j)]))
    warped = warp_pole_angles(pole_set, 0.8, 1e-6)
    assert np.angle(warped.poles[0]) == pytest.approx(0.5**0.8, abs=1e-12)
    assert abs(warped.poles[0]) == pytest.approx(0.95, abs=1e-12)
    assert warped.poles[1] == np.conj(warped.poles[0])


def test_warp_lambda_one_is_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pole_set = random_pole_set(rng)
        warped = warp_pole_angles(pole_set, 1.0, 1e-6)
        np.testing.assert_array_equal(warped.poles, pole_set.poles)


def test_warp_leaves_real_poles_alone():
    pole_set = PoleSet(np.array([0.9 + 0j, -0.7 + 0j]))
    for lam in (0.5, 0.8, 1.3):
        np.testing.assert_array_equal(
            warp_pole_angles(pole_set, lam, 1e-6).poles, pole_set.poles
        )


def test_warp_magnitude_invariance_and_angle_compression():
    rng = np.random.default_rng(1)
    for _ in range(200):
        pole_set = random_pole_set(rng)
        warped = warp_pole_angles(pole_set, 0.8, 1e-6)
        np.testing.assert_allclose(
            np.abs(warped.poles), np.minimum(np.abs(pole_set.poles), 1 - 1e-6), atol=1e-9
        )
        for old, new in zip(pole_set.poles, warped.poles):
            theta, theta_new = abs(np.angle(old)), abs(np.angle(new))
            if 1e-6 < theta < np.pi - 1e-6:
                assert abs(theta_new - 1.0) <= abs(theta - 1.0) + 1e-12
                assert np.sign(theta - 1.0) == np.sign(theta_new - 1.0) or theta == 1.0
                assert 0.0 < theta_new < np.pi


def test_warp_expands_angles_for_lambda_above_one():
    pole_set = PoleSet(np.array([0.9 * np.exp(0.5j), 0.9 * np.exp(-0.5j),
                                 0.9 * np.exp(2.0j), 0.9 * np.exp(-2.0j)]))
    warped = warp_pole_angles(pole_set, 1.2, 1e-6)
    for old, new in zip(pole_set.poles, warped.poles):
        theta, theta_new = abs(np.angle(old)), abs(np.angle(new))
        assert abs(theta_new - 1.0) >= abs(theta - 1.0) - 1e-12


def test_warp_output_conjugate_closed():
    rng = np.random.default_rng(2)
    for _ in range(100):
        warped = warp_pole_angles(random_pole_set(rng), 0.8, 1e-6)
        poles = sorted(
            (z for z in warped.poles if z.imag != 0), key=lambda z: (z.real, z.imag)
        )
        for i in range(0, len(poles), 2):
            assert poles[i] == np.conj(poles[i + 1])


def test_identity_lambda_on_speech_like_signal():
    rng = np.random.default_rng(3)
    x = ar_signal(rng, 32000, speech_like_poles())
    out = anonymize_mcadams(AudioSignal(x, 16000), AnonymizationParams(mcadams_lambda=1.0))
    assert rel_l2(out.samples, x) < 1e-4


def test_output_length_rate_and_realness():
    rng = np.random.default_rng(4)
    x = rng.uniform(-0.5, 0.5, 12345)
    out = anonymize_mcadams(AudioSignal(x, 16000), AnonymizationParams(mcadams_lambda=0.7))
    assert out.samples.size == 12345
    assert out.sample_rate_hz == 16000
    assert out.samples.dtype == np.float64
    assert np.all(np.isfinite(out.samples))
    assert np.max(np.abs(out.samples)) <= 1.0


def test_determinism():
    rng = np.random.default_rng(5)
    x = ar_signal(rng, 16000, speech_like_poles())
    params = AnonymizationParams(mcadams_lambda=0.8)
    a = anonymize_mcadams(AudioSignal(x, 16000), params)
    b = anonymize_mcadams(AudioSignal(x, 16000), params)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_empty_audio_rejected():
    with pytest.raises(EmptyInputError):
        anonymize_mcadams(AudioSignal(np.zeros(0), 16000), AnonymizationParams())


def test_params_validation():
    with pytest.raises(InvalidParamError):
        AnonymizationParams(mcadams_lambda=0.0)
    with pytest.raises(InvalidParamError):
        AnonymizationParams(mcadams_lambda=2.0)
    with pytest.raises(InvalidParamError):
        AnonymizationParams(complex_angle_epsilon=0.0)


def dominant_complex_angles(samples, order=8):
    coeffs, _ = lpc_levinson(samples * np.hanning(samples.size), order)
    roots = poly_roots(coeffs)
    complex_roots = roots[np.abs(roots.imag) > 1e-6]
    return np.sort(np.unique(np.round(np.abs(np.angle(complex_roots)), 6)))


def test_formants_move_toward_one_radian():
    # AR resonances at 0.3 and 1.2 rad; with lambda=0.8 they should land
    # near 0.3^0.8 = 0.382 and 1.2^0.8 = 1.157, both closer to 1 radian.
    rng = np.random.default_rng(6)
    x = ar_signal(rng, 48000, speech_like_poles())
    out = anonymize_mcadams(AudioSignal(x, 16000), AnonymizationParams(mcadams_lambda=0.8))
    angles = dominant_complex_angles(out.samples[16000:32000])
    low = angles[np.argmin(np.abs(angles - 0.3**0.8))]
    high = angles[np.argmin(np.abs(angles - 1.2**0.8))]
    assert abs(low - 1.0) < abs(0.3 - 1.0)
    assert abs(high - 1.0) < abs(1.2 - 1.0)
    assert low == pytest.approx(0.3**0.8, abs=0.1)
    assert high == pytest.approx(1.2**0.8, abs=0.1)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lam=st.floats(0.6, 1.4))
def test_any_lambda_preserves_length(seed, lam):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(500, 4000))
    x = rng.uniform(-0.5, 0.5, n)
    out = anonymize_mcadams(
        AudioSignal(x, 16000),
        AnonymizationParams(frame=FrameParams(20.0, 10.0, 12), mcadams_lambda=lam),
    )
    assert out.samples.size == n


def per_frame_anonymize(x, params):
    """Reference McAdams loop, one frame at a time, from the per-frame dsp functions."""
    shift = params.frame.shift_samples(RATE)
    padded = AudioSignal(np.pad(x, (shift, shift)), RATE)
    frames = frame_signal(padded, params.frame) * hann_window(params.frame.win_samples(RATE))
    out = np.empty_like(frames)
    for i, frame in enumerate(frames):
        coeffs, _ = lpc_levinson(frame, params.frame.lpc_order)
        warped = warp_pole_angles(
            PoleSet(poly_roots(coeffs)), params.mcadams_lambda, params.complex_angle_epsilon
        )
        out[i] = synthesize(lpc_residual(frame, coeffs), poles_to_coeffs(warped))
    y = overlap_add(out, params.frame, RATE, padded.samples.size)[shift : shift + x.size]
    peak = np.max(np.abs(y))
    return y * (0.99 / peak) if peak > 1.0 else y


@pytest.mark.parametrize("lam", [0.7, 0.8, 1.0, 1.3])
def test_matches_per_frame_oracle_on_speech_with_pauses(lam):
    x = speech_with_pauses(np.random.default_rng(40), 2 * RATE)
    assert np.sum(x == 0.0) > 0.15 * x.size
    params = AnonymizationParams(mcadams_lambda=lam)
    out = anonymize_mcadams(AudioSignal(x, RATE), params)
    assert rel_l2(out.samples, per_frame_anonymize(x, params)) <= ORACLE_REL_L2


def test_matches_per_frame_oracle_on_noise():
    x = np.random.default_rng(41).uniform(-0.5, 0.5, 2 * RATE)
    params = AnonymizationParams()
    out = anonymize_mcadams(AudioSignal(x, RATE), params)
    assert rel_l2(out.samples, per_frame_anonymize(x, params)) <= ORACLE_REL_L2


def test_matches_per_frame_oracle_across_blocks():
    shift = FrameParams().shift_samples(RATE)
    x = speech_with_pauses(np.random.default_rng(42), (BLOCK_FRAMES + 150) * shift)
    params = AnonymizationParams()
    out = anonymize_mcadams(AudioSignal(x, RATE), params)
    assert rel_l2(out.samples, per_frame_anonymize(x, params)) <= ORACLE_REL_L2


def test_all_zero_signal_stays_zero():
    x = np.zeros(5000)
    params = AnonymizationParams()
    out = anonymize_mcadams(AudioSignal(x, RATE), params)
    np.testing.assert_array_equal(out.samples, per_frame_anonymize(x, params))
    np.testing.assert_array_equal(out.samples, x)


def test_batched_synthesis_rejects_one_unstable_row():
    stable = np.poly([0.5, -0.3]).real
    coeffs = np.array([stable, [1.0, -2.5, 1.0], stable])
    residual = np.ones((3, 16))
    rows = _synthesize_rows(residual[[0, 2]], coeffs[[0, 2]])
    np.testing.assert_allclose(rows[0], synthesize(residual[0], stable), rtol=1e-12)
    with pytest.raises(UnstableFilterError):
        _synthesize_rows(residual, coeffs)
