"""Signal-processing primitives: framing, LPC, pole algebra, mel features.

All functions are pure and operate on immutable inputs; they are safe to call
from concurrent workers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse

from .errors import InvalidParamError

MEL_LOG_FLOOR = 1e-6
STFT_WIN_S = 0.025
STFT_HOP_S = 0.010
STFT_NFFT = 512


@dataclass
class AudioSignal:
    """Mono sample sequence with its sample rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise InvalidParamError("audio samples must be one-dimensional")
        if self.sample_rate_hz <= 0:
            raise InvalidParamError("sample_rate_hz must be positive")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise InvalidParamError("audio samples must be finite")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass
class MelSpectrogram:
    """Log-mel feature matrix, rows = mel bins, columns = time frames."""

    values: np.ndarray


def frame_signal(samples: np.ndarray, win: int, shift: int) -> np.ndarray:
    """Slice samples into frames of ``win`` samples; the last frame is zero-padded.

    Returns an array of shape (n_frames, win); frame i starts at sample
    i * shift.
    """
    if samples.size == 0:
        raise InvalidParamError("cannot frame an empty signal")
    # Zero-pad a short signal to one window, a longer one to a whole number
    # of shifts past its first window.
    short = win - samples.size
    padded = np.pad(samples, (0, max(short, short % shift)))
    return sliding_window_view(padded, win)[::shift].copy()


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window; 50%-overlapped copies sum to a constant."""
    if length < 2:
        raise InvalidParamError("window length must be at least 2")
    n = np.arange(length)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * n / length))


def lpc_levinson(frame: np.ndarray, order: int) -> tuple[np.ndarray, float]:
    """Autocorrelation-method LPC via the Levinson-Durbin recursion.

    Returns (coefficients a_0..a_p with a_0 = 1, prediction error power).
    An all-zero frame yields the identity filter with zero error power.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if order >= frame.size:
        raise InvalidParamError("LPC order must be less than the frame length")
    if not np.any(frame):
        return np.r_[1.0, np.zeros(order)], 0.0
    r = np.correlate(frame, frame, mode="full")[frame.size - 1 : frame.size + order]
    r = r.copy()
    # Keeps the Toeplitz system positive definite on near-silent frames.
    r[0] = r[0] * (1.0 + 1e-9) + 1e-12
    a = np.zeros(order)
    err = r[0]
    for i in range(1, order + 1):
        acc = r[i] - np.dot(a[: i - 1], r[i - 1 : 0 : -1])
        k = acc / err
        a_new = a.copy()
        a_new[i - 1] = k
        a_new[: i - 1] = a[: i - 1] - k * a[i - 2 :: -1][: i - 1]
        a = a_new
        err = (1.0 - k * k) * err
    return np.r_[1.0, -a], float(err)


def lpc_residual(frame: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """FIR analysis filtering: residual[n] = sum_k a_k * frame[n-k], zero state."""
    # Imported here and in ``synthesize`` only: scipy.signal takes most of a second to load.
    from scipy import signal as sps

    coefficients = np.asarray(coefficients, dtype=np.float64)
    if coefficients[0] != 1.0:
        raise InvalidParamError("analysis polynomial must be monic (a_0 == 1)")
    return sps.lfilter(coefficients, [1.0], np.asarray(frame, dtype=np.float64))


def _newton_polish(coefficients: np.ndarray, roots: np.ndarray, steps: int = 4) -> np.ndarray:
    """Refine companion eigenvalues with Newton steps on the polynomial itself.

    The eigenvalue solver's error scales with the companion matrix norm, so
    clustered roots of a high-degree polynomial can come back several times
    further off than the coefficients' own rounding allows. The residual is
    evaluated in extended precision where the platform has it. A step is
    kept only when it lowers |p(z)| and moves z less than half the way to
    its nearest neighbour, so no root can jump onto another.
    """
    c = coefficients.astype(np.longdouble)
    dc = np.polyder(c)
    z = roots.astype(np.clongdouble)
    gap = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(gap, np.inf)
    reach = 0.5 * gap.min(axis=1)
    for _ in range(steps):
        value = np.polyval(c, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = value / np.polyval(dc, z)
        moved = z - step
        keep = (
            np.isfinite(step)
            & (np.abs(step) < reach)
            & (np.abs(np.polyval(c, moved)) < np.abs(value))
        )
        z = np.where(keep, moved, z)
    return z.astype(np.complex128)


def poly_roots(coefficients: np.ndarray) -> np.ndarray:
    """Roots of sum_k a_k z^(p-k) via companion-matrix eigenvalues, Newton-polished.

    Near-real roots are snapped to the real axis and complex roots are
    re-paired into exact conjugate pairs so downstream reconstruction
    produces real coefficients.
    """
    coefficients = np.asarray(coefficients, dtype=np.float64)
    if coefficients.size == 0 or coefficients[0] == 0.0:
        raise InvalidParamError("leading coefficient must be nonzero")
    if coefficients.size == 1:
        return np.zeros(0, dtype=np.complex128)
    roots = _newton_polish(coefficients, np.roots(coefficients))
    roots = np.where(np.abs(roots.imag) < 1e-10, roots.real + 0j, roots)
    real = [z for z in roots if z.imag == 0.0]
    upper = sorted((z for z in roots if z.imag > 0.0), key=lambda z: (z.real, z.imag))
    lower = sorted((z for z in roots if z.imag < 0.0), key=lambda z: (z.real, -z.imag))
    # Companion eigenvalues of a real polynomial can drift slightly off
    # conjugacy; average each pair back onto it. Unbalanced leftovers are
    # forced real (smallest imaginary part first).
    while len(upper) != len(lower):
        bucket = upper if len(upper) > len(lower) else lower
        idx = min(range(len(bucket)), key=lambda i: abs(bucket[i].imag))
        real.append(bucket.pop(idx).real + 0j)
    paired = []
    for zu, zl in zip(upper, lower):
        z = 0.5 * (zu + np.conj(zl))
        paired.extend([z, np.conj(z)])
    return np.array(real + paired, dtype=np.complex128)


def _check_conjugate_closed(poles: np.ndarray, tol: float = 1e-8) -> None:
    remaining = [z for z in poles if z.imag != 0.0]
    while remaining:
        z = remaining.pop()
        match = min(
            range(len(remaining)),
            key=lambda i: abs(remaining[i] - np.conj(z)),
            default=None,
        )
        if match is None or abs(remaining[match] - np.conj(z)) > tol * max(1.0, abs(z)):
            raise InvalidParamError("pole set is not closed under conjugation")
        remaining.pop(match)


def poles_to_coeffs(poles: np.ndarray) -> np.ndarray:
    """Expand prod(z - p_i) into monic real coefficients."""
    p = np.asarray(poles, dtype=np.complex128)
    if p.size == 0:
        return np.array([1.0])
    _check_conjugate_closed(p)
    coeffs = np.poly(p)
    if np.max(np.abs(coeffs.imag)) >= 1e-8:
        raise InvalidParamError("pole expansion left a non-negligible imaginary part")
    return coeffs.real


def synthesize(residual: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """All-pole IIR filtering, zero initial state; inverse of lpc_residual."""
    from scipy import signal as sps

    coefficients = np.asarray(coefficients, dtype=np.float64)
    if coefficients[0] != 1.0:
        raise InvalidParamError("synthesis polynomial must be monic (a_0 == 1)")
    if coefficients.size > 1:
        roots = poly_roots(coefficients)
        if roots.size and np.max(np.abs(roots)) >= 1.0:
            raise InvalidParamError("synthesis filter has poles outside the unit circle")
    return sps.lfilter([1.0], coefficients, np.asarray(residual, dtype=np.float64))


def overlap_add(frames: np.ndarray, window: np.ndarray, shift: int, total_length: int) -> np.ndarray:
    """Sum windowed frames at their offsets and normalize by the window overlap.

    Expects each frame to carry one application of ``window``; the divisor
    is the pointwise sum of shifted windows, floored at 1e-6. Frame i starts
    at sample i * shift; samples past total_length are dropped.
    """
    frames = np.asarray(frames, dtype=np.float64)
    n, win = frames.shape
    pieces = -(-win // shift)
    rows = max(n + pieces, -(-total_length // shift))
    # Row q of each buffer holds samples q*shift .. (q+1)*shift - 1, and piece
    # j of frame i lands on row i + j. Adding the last piece first sums every
    # sample's terms in frame order, like a loop over frames would.
    out = np.zeros((rows, shift))
    den = np.zeros((rows, shift))
    for j in reversed(range(pieces)):
        lo, hi = j * shift, min((j + 1) * shift, win)
        out[j : j + n, : hi - lo] += frames[:, lo:hi]
        den[j : j + n, : hi - lo] += window[lo:hi]
    out /= np.maximum(den, 1e-6, out=den)
    return out.ravel()[:total_length]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(bins: int, nfft: int, sample_rate_hz: int) -> np.ndarray:
    """Triangular mel filterbank of shape (bins, nfft//2 + 1).

    Built once per argument triple; the cached array is read-only.
    """
    if bins < 1:
        raise InvalidParamError("mel bin count must be at least 1")
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate_hz / 2.0), bins + 2))
    fft_freqs = np.fft.rfftfreq(nfft, d=1.0 / sample_rate_hz)
    fb = np.zeros((bins, fft_freqs.size))
    for j in range(bins):
        left, center, right = edges[j], edges[j + 1], edges[j + 2]
        rising = (fft_freqs - left) / max(center - left, 1e-12)
        falling = (right - fft_freqs) / max(right - center, 1e-12)
        fb[j] = np.maximum(0.0, np.minimum(rising, falling))
    fb.flags.writeable = False
    return fb


@functools.lru_cache(maxsize=16)
def _mel_filterbank_csr(bins: int, nfft: int, sample_rate_hz: int) -> sparse.csr_array:
    """`mel_filterbank` in CSR form, built once per argument triple; the
    cached arrays are read-only."""
    fb = sparse.csr_array(mel_filterbank(bins, nfft, sample_rate_hz))
    for part in (fb.data, fb.indices, fb.indptr):
        part.flags.writeable = False
    return fb


def mel_spectrogram(audio: AudioSignal, bins: int = 128) -> MelSpectrogram:
    """Log-compressed mel power spectrogram (25 ms window, 10 ms hop, FFT 512).

    The filterbank is applied as a sparse CSR product, which sums each bin's
    few nonzero terms in a fixed order and calls no BLAS routine: the values
    do not depend on the BLAS thread count, so replay keys hashed from them
    hold on any machine, and concurrent workers start no BLAS threads.
    """
    if bins < 1:
        raise InvalidParamError("mel bin count must be at least 1")
    win = int(round(STFT_WIN_S * audio.sample_rate_hz))
    hop = int(round(STFT_HOP_S * audio.sample_rate_hz))
    if win < 2 or hop < 1:
        raise InvalidParamError(
            f"sample rate {audio.sample_rate_hz} Hz is too low for a mel spectrogram"
            f" ({win}-sample window, {hop}-sample hop)")
    if audio.samples.size < win:
        raise InvalidParamError("signal is shorter than one analysis window")
    frames = sliding_window_view(audio.samples, win)[::hop] * hann_window(win)
    spectrum = np.abs(np.fft.rfft(frames, n=STFT_NFFT, axis=1)) ** 2
    fb = _mel_filterbank_csr(bins, STFT_NFFT, audio.sample_rate_hz)
    return MelSpectrogram(np.log(fb @ spectrum.T + MEL_LOG_FLOOR))
