"""Minimal RIFF/WAVE reader and writer.

Supported encodings: 16-bit integer PCM (format tag 1) and 32-bit IEEE float
(format tag 3). Multi-channel input is downmixed to mono by averaging.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import InvalidParamError, ParseError
from .dsp import AudioSignal

PCM16 = "pcm16"
FLOAT32 = "float32"


def read_wav(path: str | Path) -> tuple[AudioSignal, str]:
    """Read a waveform file; returns (mono signal, source encoding)."""
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ParseError(f"not a RIFF/WAVE file ({path})")
    pos = 12
    fmt = None
    payload = None
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + chunk_size]
        if len(body) < chunk_size:
            raise ParseError(f"truncated chunk ({path}: {chunk_id!r})")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise ParseError(f"fmt chunk too short ({path})")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)
    if fmt is None or payload is None:
        raise ParseError(f"missing fmt or data chunk ({path})")
    tag, channels, rate, _, _, bits = fmt
    if tag == 1 and bits == 16:
        dtype, encoding = "<i2", PCM16
    elif tag == 3 and bits == 32:
        dtype, encoding = "<f4", FLOAT32
    else:
        raise ParseError(f"unsupported encoding (format tag {tag}, {bits}-bit) ({path})")
    if len(payload) % (bits // 8):
        raise ParseError(f"data chunk is not a whole number of samples ({path})")
    samples = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    if encoding == PCM16:
        samples /= 32768.0
    if channels < 1:
        raise ParseError(f"channel count must be positive ({path})")
    if channels > 1:
        samples = samples[: len(samples) - len(samples) % channels]
        samples = samples.reshape(-1, channels).mean(axis=1)
    try:
        return AudioSignal(samples, rate), encoding
    except InvalidParamError as exc:
        raise ParseError(f"{exc} ({path})")


def write_wav(path: str | Path, audio: AudioSignal, encoding: str = PCM16) -> None:
    """Write a mono waveform file in the requested encoding."""
    if encoding == PCM16:
        tag, bits = 1, 16
        clipped = np.clip(audio.samples, -1.0, 32767.0 / 32768.0)
        payload = (np.rint(clipped * 32768.0).astype("<i2")).tobytes()
    elif encoding == FLOAT32:
        tag, bits = 3, 32
        payload = audio.samples.astype("<f4").tobytes()
    else:
        raise InvalidParamError(f"unsupported encoding: {encoding}")
    block = bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        tag,
        1,
        audio.sample_rate_hz,
        audio.sample_rate_hz * block,
        block,
        bits,
        b"data",
        len(payload),
    )
    Path(path).write_bytes(header + payload)
