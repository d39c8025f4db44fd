import numpy as np
import pytest

from emodeid.dsp import (
    AudioSignal,
    FrameParams,
    frame_signal,
    hann_window,
    overlap_add,
)
from emodeid.errors import InvalidParamError


def test_one_second_at_16k_gives_99_frames():
    audio = AudioSignal(np.random.default_rng(0).standard_normal(16000), 16000)
    frames = frame_signal(audio, FrameParams(20.0, 10.0, 20))
    assert frames.shape == (99, 320)
    # frame i starts at i*shift
    for i in (0, 1, 50):
        start = i * 160
        np.testing.assert_array_equal(frames[i], audio.samples[start : start + 320])


def test_exact_window_length_gives_single_frame():
    samples = np.arange(320, dtype=float)
    frames = frame_signal(AudioSignal(samples, 16000), FrameParams())
    assert frames.shape == (1, 320)
    np.testing.assert_array_equal(frames[0], samples)


def test_short_signal_zero_padded_to_one_frame():
    frames = frame_signal(AudioSignal([1.0, 2.0, 3.0], 16000), FrameParams())
    assert frames.shape == (1, 320)
    np.testing.assert_array_equal(frames[0][:3], [1.0, 2.0, 3.0])
    assert not np.any(frames[0][3:])


def test_empty_audio_rejected():
    with pytest.raises(InvalidParamError, match="cannot frame an empty signal"):
        frame_signal(AudioSignal(np.zeros(0), 16000), FrameParams())


def test_hann_window_length_4():
    np.testing.assert_allclose(hann_window(4), [0.0, 0.5, 1.0, 0.5])


def test_hann_window_starts_at_zero():
    for length in (2, 5, 64, 321):
        assert hann_window(length)[0] == 0.0


def test_hann_window_too_short():
    with pytest.raises(InvalidParamError):
        hann_window(1)


def test_hann_cola_at_half_overlap():
    w = hann_window(320)
    overlap_sum = w[:160] + w[160:]
    np.testing.assert_allclose(overlap_sum, 1.0, atol=1e-6)


def test_overlap_add_reconstructs_constant_signal():
    params = FrameParams(20.0, 10.0, 20)
    audio = AudioSignal(np.ones(3200), 16000)
    frames = frame_signal(audio, params) * hann_window(320)
    out = overlap_add(frames, params, 16000, 3200)
    # interior samples (full window coverage) come back exactly
    np.testing.assert_allclose(out[160:-160], 1.0, atol=1e-6)


def test_overlap_add_single_frame_no_overlap():
    params = FrameParams(20.0, 20.0, 20)
    window = hann_window(320)
    frame = np.sin(np.arange(320) / 20.0) * window
    out = overlap_add(frame[None, :], params, 16000, 320)
    interior = window > 1e-6
    np.testing.assert_allclose(
        out[interior] * window[interior], frame[interior], atol=1e-6
    )


def test_overlap_add_zero_frames_gives_zero_signal():
    out = overlap_add(np.zeros((0, 320)), FrameParams(), 16000, 100)
    np.testing.assert_array_equal(out, np.zeros(100))


def test_frame_params_validation():
    with pytest.raises(InvalidParamError):
        FrameParams(10.0, 20.0, 20)  # shift > win
    with pytest.raises(InvalidParamError):
        FrameParams(20.0, 10.0, 0)
    with pytest.raises(InvalidParamError):
        FrameParams(20.0, 10.0, 320).validate_for_rate(16000)
