"""McAdams speaker anonymization: LPC pole-angle warping per frame."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dsp import (
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
from .errors import EmptyInputError, InvalidParamError

MAX_POLE_MAGNITUDE = 1.0 - 1e-6


@dataclass
class AnonymizationParams:
    """Framing setup plus the McAdams coefficient."""

    frame: FrameParams = field(default_factory=FrameParams)
    mcadams_lambda: float = 0.8
    complex_angle_epsilon: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.mcadams_lambda < 2.0:
            raise InvalidParamError("mcadams_lambda must be in (0, 2)")
        if self.complex_angle_epsilon <= 0.0:
            raise InvalidParamError("complex_angle_epsilon must be positive")


def warp_pole_angles(poles: PoleSet, mcadams_lambda: float, epsilon: float) -> PoleSet:
    """Raise each complex pole angle to the power lambda, magnitude unchanged.

    Real poles (angle within epsilon of 0 or pi) are left alone; warped angles
    are clamped back into (epsilon, pi - epsilon) and magnitudes capped just
    inside the unit circle so the synthesis filter stays stable.
    """
    out = np.empty_like(poles.poles)
    for i, p in enumerate(poles.poles):
        theta = np.abs(np.angle(p))
        if theta <= epsilon or theta >= np.pi - epsilon:
            out[i] = p
            continue
        mag = min(abs(p), MAX_POLE_MAGNITUDE)
        new_theta = min(max(theta**mcadams_lambda, epsilon), np.pi - epsilon)
        if new_theta == theta and mag == abs(p):
            out[i] = p
        else:
            out[i] = mag * np.exp(1j * np.sign(np.angle(p)) * new_theta)
    return PoleSet(out)


def anonymize_mcadams(audio: AudioSignal, params: AnonymizationParams) -> AudioSignal:
    """De-identify a signal by warping the formant structure of every frame.

    Per frame: window, LPC analysis, pole extraction, angle warp, filter
    reconstruction, all-pole resynthesis of the residual; frames are then
    overlap-added with window-sum normalization. Output length, rate, and
    realness match the input; peak amplitude is rescaled to 0.99 only when
    the result would clip.
    """
    if audio.samples.size == 0:
        raise EmptyInputError("cannot anonymize an empty signal")
    params.frame.validate_for_rate(audio.sample_rate_hz)
    shift = params.frame.shift_samples(audio.sample_rate_hz)
    # One shift of zero padding on each side keeps every real sample in the
    # constant region of the window-overlap sum (the window is zero at its
    # first sample, so an unpadded signal would lose sample 0).
    padded = AudioSignal(
        np.pad(audio.samples, (shift, shift)), audio.sample_rate_hz
    )
    frames = frame_signal(padded, params.frame)
    window = hann_window(params.frame.win_samples(audio.sample_rate_hz))
    order = params.frame.lpc_order
    out_frames = np.empty_like(frames)
    for i, frame in enumerate(frames):
        windowed = frame * window
        coeffs, _ = lpc_levinson(windowed, order)
        residual = lpc_residual(windowed, coeffs)
        warped = warp_pole_angles(
            PoleSet(poly_roots(coeffs)),
            params.mcadams_lambda,
            params.complex_angle_epsilon,
        )
        out_frames[i] = synthesize(residual, poles_to_coeffs(warped))
    out = overlap_add(
        out_frames, params.frame, audio.sample_rate_hz, padded.samples.size
    )[shift : shift + audio.samples.size]
    peak = np.max(np.abs(out)) if out.size else 0.0
    if peak > 1.0:
        out = out * (0.99 / peak)
    return AudioSignal(out, audio.sample_rate_hz)
