"""McAdams speaker anonymization: LPC pole-angle warping per frame, batched over frames."""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import AudioSignal, frame_signal, hann_window, overlap_add
from .errors import InvalidParamError

MAX_POLE_MAGNITUDE = 1.0 - 1e-6
# Poles within this angle of 0 or pi count as real; warped angles stay this
# far inside (0, pi).
ANGLE_EPSILON = 1e-6
# Companion-matrix entries per batch of array operations: 1024 frames at the
# default LPC order of 20. Enough frames that numpy's per-call overhead is
# spread thin, few enough that the (n, p, p) companion stack stays a few MB
# whatever the order.
BLOCK_ENTRIES = 1024 * 20 * 20


def block_frames(order: int) -> int:
    """Frames per block at LPC order ``order``: the stack holds BLOCK_ENTRIES."""
    return max(1, BLOCK_ENTRIES // (order * order))


@dataclass(frozen=True)
class AnonymizationParams:
    """Analysis framing (window and shift in milliseconds, LPC order) plus the
    McAdams coefficient."""

    win_ms: float = 20.0
    shift_ms: float = 10.0
    lpc_order: int = 20
    mcadams_lambda: float = 0.8

    def __post_init__(self):
        if not (0 < self.win_ms < math.inf and 0 < self.shift_ms < math.inf):
            raise InvalidParamError("win_ms and shift_ms must be positive and finite")
        if self.shift_ms > self.win_ms:
            raise InvalidParamError("shift_ms must not exceed win_ms")
        if self.lpc_order < 1:
            raise InvalidParamError("lpc_order must be a positive integer")
        if not 0.0 < self.mcadams_lambda < 2.0:
            raise InvalidParamError("mcadams_lambda must be in (0, 2)")


def warp_pole_angles(poles: np.ndarray, mcadams_lambda: float) -> np.ndarray:
    """Raise each complex pole angle to the power lambda, magnitude unchanged.

    Real poles (angle within ANGLE_EPSILON of 0 or pi) are left alone; warped
    angles are clamped back into (ANGLE_EPSILON, pi - ANGLE_EPSILON) and
    magnitudes capped just inside the unit circle so the synthesis filter
    stays stable. Works on a pole array of any shape; a pole the warp would
    not change is returned bit for bit.
    """
    angle = np.angle(poles)
    theta = np.abs(angle)
    mag = np.abs(poles)
    capped = np.minimum(mag, MAX_POLE_MAGNITUDE)
    new_theta = np.clip(theta**mcadams_lambda, ANGLE_EPSILON, np.pi - ANGLE_EPSILON)
    keep = (
        (theta <= ANGLE_EPSILON)
        | (theta >= np.pi - ANGLE_EPSILON)
        | ((new_theta == theta) & (capped == mag))
    )
    warped = capped * np.exp(1j * np.sign(angle) * new_theta)
    return np.where(keep, poles, warped)


def _dot_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise inner products through the BLAS dot product that ``np.dot`` and
    ``np.correlate`` use, so each row sums like ``lpc_levinson`` does."""
    return np.matmul(u[:, None, :], np.ascontiguousarray(v)[:, :, None])[:, 0, 0]


def _levinson_rows(x: np.ndarray, order: int) -> np.ndarray:
    """``lpc_levinson`` on every row of ``x``: (n, order + 1) coefficients.

    An all-zero row has zero autocorrelation past lag 0, so every reflection
    coefficient is 0 and the row gets the identity filter, as in
    ``lpc_levinson``. The inner products go through ``_dot_rows`` because
    frames at the edge of a pause make the recursion ill-conditioned, and a
    different summation order there moves the output far more than rounding.
    """
    win = x.shape[1]
    r = np.stack([_dot_rows(x[:, : win - k], x[:, k:]) for k in range(order + 1)], axis=1)
    r[:, 0] = r[:, 0] * (1.0 + 1e-9) + 1e-12
    a = np.zeros((x.shape[0], order))
    err = r[:, 0]
    for i in range(1, order + 1):
        acc = r[:, i] - _dot_rows(a[:, : i - 1], r[:, i - 1 : 0 : -1])
        k = acc / err
        a[:, : i - 1] = a[:, : i - 1] - k[:, None] * a[:, : i - 1][:, ::-1]
        a[:, i - 1] = k
        err = (1.0 - k * k) * err
    return np.hstack([np.ones((x.shape[0], 1)), -a])


def _fir_rows(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``lpc_residual`` on every row: residual[n] = sum_k a_k x[n-k], zero state."""
    p = coeffs.shape[1] - 1
    # lags[i, n, j] = x[i, n + j - p], with zeros before the row starts.
    lags = sliding_window_view(np.pad(x, ((0, 0), (p, 0))), p + 1, axis=1)
    return np.einsum("inj,ij->in", lags, coeffs[:, ::-1])


def usable_cpus() -> int:
    """CPUs this process may run on, from its affinity mask: the eigenvalue
    share count here, and ``run-pipeline``'s default ``--workers``."""
    return len(os.sched_getaffinity(0))


def _roots_rows(coeffs: np.ndarray) -> np.ndarray:
    """``poly_roots`` on every monic row, from stacked eigenvalue calls.

    The companion stack is split into one contiguous share of rows per
    usable CPU. The calling thread solves the first share while a pool
    solves the rest; ``eigvals`` releases the GIL inside LAPACK, and each
    matrix's eigenvalues do not depend on the other rows, so the result is
    the same bit for bit whatever the share count. LAPACK returns the
    complex eigenvalues of a real matrix in exact conjugate pairs, so only
    ``poly_roots``' snap to the real axis is needed. Its Newton polish is
    left out: LPC rows are low-order and well separated, and the per-frame
    oracle agrees to 1e-8 without it.
    """
    n, p = coeffs.shape[0], coeffs.shape[1] - 1
    companion = np.zeros((n, p, p))
    companion[:, 0, :] = -coeffs[:, 1:]
    companion[:, np.arange(1, p), np.arange(p - 1)] = 1.0
    shares = np.array_split(companion, min(n, usable_cpus()))
    # The pool starts at most one thread per task, so one share starts none.
    with ThreadPoolExecutor(len(shares)) as pool:
        rest = pool.map(np.linalg.eigvals, shares[1:])
        roots = np.concatenate([np.linalg.eigvals(shares[0]), *rest])
    roots = roots.astype(np.complex128)
    return np.where(np.abs(roots.imag) < 1e-10, roots.real + 0j, roots)


def _expand_rows(poles: np.ndarray) -> np.ndarray:
    """``poles_to_coeffs`` on every row of conjugate-closed poles."""
    coeffs = np.zeros((poles.shape[0], poles.shape[1] + 1), dtype=np.complex128)
    coeffs[:, 0] = 1.0
    for k in range(poles.shape[1]):
        coeffs[:, 1 : k + 2] = coeffs[:, 1 : k + 2] - poles[:, k : k + 1] * coeffs[:, : k + 1]
    # Conjugates warp to conjugates, so a large imaginary part means a pole
    # set that was not closed under conjugation.
    if np.max(np.abs(coeffs.imag)) >= 1e-8:
        raise InvalidParamError("pole expansion left a non-negligible imaginary part")
    return coeffs.real


def _stable_rows(coeffs: np.ndarray) -> np.ndarray:
    """Whether each monic row has every root strictly inside the unit circle.

    The step-down recursion (reverse Levinson, the Schur–Cohn test): the
    last coefficient of the degree-m polynomial is its reflection
    coefficient k, every |k| must be below 1, and
    a_i <- (a_i - k a_{m-i}) / (1 - k^2) gives the degree m - 1 polynomial.
    A row that fails carries on with k = 0, so nothing divides by zero.
    """
    a = coeffs[:, 1:].copy()
    stable = np.ones(a.shape[0], dtype=bool)
    for m in range(a.shape[1], 0, -1):
        stable &= np.abs(a[:, m - 1]) < 1.0
        k = np.where(stable, a[:, m - 1], 0.0)
        head = a[:, : m - 1]
        a[:, : m - 1] = (head - k[:, None] * head[:, ::-1]) / (1.0 - k * k)[:, None]
    return stable


def _synthesize_rows(residual: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``synthesize`` on every row: all-pole filtering with zero initial state.

    Raises InvalidParamError when any row's filter has a pole on or outside
    the unit circle.
    """
    n, p = coeffs.shape[0], coeffs.shape[1] - 1
    if not np.all(_stable_rows(coeffs)):
        raise InvalidParamError("synthesis filter has poles outside the unit circle")
    # y[:, p + t] is output sample t; the p leading zeros are the initial state.
    y = np.zeros((n, p + residual.shape[1]))
    taps = coeffs[:, :0:-1]
    for t in range(residual.shape[1]):
        y[:, p + t] = residual[:, t] - np.einsum("ij,ij->i", taps, y[:, t : p + t])
    return y[:, p:]


def anonymize_mcadams(audio: AudioSignal, params: AnonymizationParams) -> AudioSignal:
    """De-identify a signal by warping the formant structure of every frame.

    Per frame: window, LPC analysis, pole extraction, angle warp, filter
    reconstruction, all-pole resynthesis of the residual; frames are then
    overlap-added with window-sum normalization. Output length, rate, and
    realness match the input; peak amplitude is rescaled to 0.99 only when
    the result would clip. Frames are processed as arrays, ``block_frames``
    at a time, which bounds the memory of the intermediate stacks.
    """
    if audio.samples.size == 0:
        raise InvalidParamError("cannot anonymize an empty signal")
    # A product that overflows is capped at the largest float, so a huge
    # window fails the length check below instead of the integer conversion.
    win, shift = (int(round(min(ms * audio.sample_rate_hz / 1000.0, sys.float_info.max)))
                  for ms in (params.win_ms, params.shift_ms))
    if shift < 1:
        raise InvalidParamError("shift_ms must be at least one sample")
    if params.lpc_order >= win:
        raise InvalidParamError("lpc_order must be strictly less than the frame length in samples")
    if win > audio.samples.size:
        raise InvalidParamError("the analysis window is longer than the signal")
    window = hann_window(win)
    # One shift of zero padding on each side keeps every real sample in the
    # constant region of the window-overlap sum (the window is zero at its
    # first sample, so an unpadded signal would lose sample 0).
    frames = frame_signal(np.pad(audio.samples, (shift, shift)), win, shift)
    order = params.lpc_order
    block = block_frames(order)
    for start in range(0, frames.shape[0], block):
        # The block reads only its own rows, through this copy, so its
        # output can overwrite them.
        windowed = frames[start : start + block] * window
        coeffs = _levinson_rows(windowed, order)
        warped = warp_pole_angles(_roots_rows(coeffs), params.mcadams_lambda)
        frames[start : start + block] = _synthesize_rows(
            _fir_rows(windowed, coeffs), _expand_rows(warped)
        )
    out = overlap_add(
        frames, window, shift, audio.samples.size + 2 * shift
    )[shift : shift + audio.samples.size]
    peak = np.max(np.abs(out))
    if peak > 1.0:
        out = out * (0.99 / peak)
    return AudioSignal(out, audio.sample_rate_hz)
