import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import emodeid
from emodeid import dsp
from emodeid.dsp import (
    MEL_LOG_FLOOR,
    STFT_HOP_S,
    STFT_NFFT,
    STFT_WIN_S,
    AudioSignal,
    hann_window,
    hz_to_mel,
    mel_filterbank,
    mel_spectrogram,
    mel_to_hz,
)
from emodeid.errors import InvalidParamError

from conftest import speech_with_pauses


def sine(freq_hz, duration_s, rate_hz, amplitude=1.0):
    t = np.arange(int(duration_s * rate_hz)) / rate_hz
    return AudioSignal(amplitude * np.sin(2 * np.pi * freq_hz * t), rate_hz)


def test_mel_shape_two_second_clip():
    audio = AudioSignal(np.random.default_rng(0).standard_normal(32000) * 0.1, 16000)
    spec = mel_spectrogram(audio, bins=128)
    assert spec.values.shape == (128, 198)
    assert np.all(np.isfinite(spec.values))


def test_mel_silence_hits_log_floor():
    spec = mel_spectrogram(AudioSignal(np.zeros(32000), 16000))
    np.testing.assert_allclose(spec.values, np.log(1e-6))


def test_mel_short_input_rejected():
    with pytest.raises(InvalidParamError, match="signal is shorter than one analysis window"):
        mel_spectrogram(AudioSignal(np.zeros(100), 16000))


@pytest.mark.parametrize("rate", [1, 40, 50])
def test_mel_rejects_a_rate_whose_window_or_hop_rounds_below_one_step(rate):
    # At 50 Hz and below the 25 ms window is under 2 samples and the 10 ms hop under 1.
    with pytest.raises(InvalidParamError, match=rf"^sample rate {rate} Hz is too low"):
        mel_spectrogram(AudioSignal(np.zeros(4 * rate), rate))


def _filter_centers(bins, sample_rate_hz):
    """Center frequencies (Hz) of the triangular mel filters: equally spaced
    mel points from 0 to f_s/2, without the two end points."""
    return mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate_hz / 2.0), bins + 2))[1:-1]


def test_mel_tone_argmax_is_nearest_center():
    spec = mel_spectrogram(sine(1000, 2.0, 16000))
    argmax = np.argmax(spec.values, axis=0)
    assert np.all(argmax == argmax[0])
    centers = _filter_centers(128, 16000)
    assert argmax[0] == np.argmin(np.abs(centers - 1000.0))


def test_mel_filterbank_properties():
    fb = mel_filterbank(128, 512, 16000)
    assert np.all(fb >= 0.0)
    centers = _filter_centers(128, 16000)
    assert np.all(np.diff(centers) > 0.0)
    # unimodal: once a filter starts descending it never rises again
    for row in fb:
        diffs = np.diff(row[row > 0.0])
        if diffs.size:
            first_drop = np.argmax(diffs < 0) if np.any(diffs < 0) else diffs.size
            assert np.all(diffs[first_drop:] <= 0.0)


def test_mel_filterbank_is_built_once_and_read_only():
    fb = mel_filterbank(64, 512, 16000)
    assert mel_filterbank(64, 512, 16000) is fb
    assert not fb.flags.writeable
    with pytest.raises(ValueError):
        fb[0, 0] = 1.0


def test_cached_filterbank_keeps_mel_values_bit_identical(monkeypatch):
    audio = AudioSignal(np.random.default_rng(5).standard_normal(16000) * 0.1, 16000)
    mel_spectrogram(audio, bins=40)  # fills the cache
    cached = mel_spectrogram(audio, bins=40).values
    monkeypatch.setattr("emodeid.dsp.mel_filterbank", mel_filterbank.__wrapped__)
    monkeypatch.setattr("emodeid.dsp._mel_filterbank_csr", dsp._mel_filterbank_csr.__wrapped__)
    fresh = mel_spectrogram(audio, bins=40).values
    assert cached.tobytes() == fresh.tobytes()


def dense_reference_mel(audio, bins):
    """Log-mel by fancy-index framing and a dense filterbank product."""
    rate = audio.sample_rate_hz
    win = int(round(STFT_WIN_S * rate))
    hop = int(round(STFT_HOP_S * rate))
    n_frames = 1 + (audio.samples.size - win) // hop
    idx = np.arange(win)[None, :] + hop * np.arange(n_frames)[:, None]
    power = np.abs(np.fft.rfft(audio.samples[idx] * hann_window(win), n=STFT_NFFT, axis=1)) ** 2
    return np.log(mel_filterbank(bins, STFT_NFFT, rate) @ power.T + MEL_LOG_FLOOR)


@pytest.mark.parametrize("rate", [8000, 16000, 44100])
@pytest.mark.parametrize("bins", [1, 40, 128, 300])
def test_mel_matches_the_dense_filterbank_product(bins, rate):
    # 300 bins is more than the 257 FFT bins, so some filter rows are empty.
    audio = AudioSignal(speech_with_pauses(np.random.default_rng(bins), rate), rate)
    got = mel_spectrogram(audio, bins=bins).values
    want = dense_reference_mel(audio, bins)
    assert got.shape == want.shape
    # An absolute bound on log values is a relative bound on mel power; a
    # relative one on log values would fail wherever the power is near 1.
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


MEL_DIGEST_CHILD = """
import hashlib, sys
import numpy as np
from emodeid.dsp import AudioSignal, mel_spectrogram
spec = mel_spectrogram(AudioSignal(np.load(sys.argv[1]), 16000))
print(hashlib.sha256(spec.values.tobytes()).hexdigest())
"""


def test_mel_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    clip = tmp_path / "speech.npy"
    np.save(clip, speech_with_pauses(np.random.default_rng(8), 20 * 16000))
    src = str(Path(emodeid.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-c", MEL_DIGEST_CHILD, str(clip)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        digests.append(child.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
