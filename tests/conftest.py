import numpy as np
import pytest

from emodeid.synthetic import make_mock_dataset

__all__ = ["ar_signal", "speech_like_poles", "speech_with_pauses", "make_mock_dataset"]


def ar_signal(rng, n, poles):
    """AR-filtered white noise, peak-normalized to 0.5."""
    from scipy import signal as sps

    coeffs = np.poly(poles).real
    x = sps.lfilter([1.0], coeffs, rng.standard_normal(n))
    return x / np.max(np.abs(x)) * 0.5


def speech_like_poles():
    return [
        0.97 * np.exp(1j * 0.3),
        0.97 * np.exp(-1j * 0.3),
        0.95 * np.exp(1j * 1.2),
        0.95 * np.exp(-1j * 1.2),
    ]


def speech_with_pauses(rng, n):
    """Tapered AR bursts of 0.15-0.35 s at 16 kHz, each followed by an
    exact-zero pause a quarter of its length, so framing sees voiced frames,
    all-zero frames and the near-silent frames at the edge of a pause."""
    out = np.zeros(n)
    pos = 0
    while pos < n:
        length = int(rng.integers(2400, 5600))
        burst = ar_signal(rng, length, speech_like_poles()) * np.hanning(length)
        stop = min(pos + length, n)
        out[pos:stop] = burst[: stop - pos]
        pos = stop + length // 4
    return out


@pytest.fixture
def mock_dataset(tmp_path):
    return make_mock_dataset(tmp_path)
