import numpy as np
import pytest

from emodeid.dsp import AudioSignal
from emodeid.errors import InvalidParamError, ParseError
from emodeid.wavio import FLOAT32, PCM16, read_wav, write_wav


def test_pcm16_round_trip(tmp_path):
    path = tmp_path / "a.wav"
    samples = np.linspace(-0.9, 0.9, 1000)
    write_wav(path, AudioSignal(samples, 16000), PCM16)
    back, encoding = read_wav(path)
    assert encoding == PCM16
    assert back.sample_rate_hz == 16000
    np.testing.assert_allclose(back.samples, samples, atol=1.0 / 32768)


def test_float32_round_trip(tmp_path):
    path = tmp_path / "a.wav"
    samples = np.sin(np.arange(500) / 10.0)
    write_wav(path, AudioSignal(samples, 8000), FLOAT32)
    back, encoding = read_wav(path)
    assert encoding == FLOAT32
    np.testing.assert_allclose(back.samples, samples, atol=1e-7)


def test_stereo_downmix(tmp_path):
    import struct

    path = tmp_path / "stereo.wav"
    left = np.array([0.5, -0.5, 0.25], dtype="<f4")
    right = np.array([0.1, 0.3, -0.25], dtype="<f4")
    payload = np.column_stack([left, right]).tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
        3, 2, 16000, 16000 * 8, 8, 32, b"data", len(payload),
    )
    path.write_bytes(header + payload)
    audio, _ = read_wav(path)
    np.testing.assert_allclose(audio.samples, (left + right) / 2.0, atol=1e-7)


def test_corrupted_header_rejected(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a wav file at all")
    with pytest.raises(ParseError):
        read_wav(path)


@pytest.mark.parametrize("tag,bits,size", [(1, 16, 3), (3, 32, 6)])
def test_partial_sample_data_rejected(tmp_path, tag, bits, size):
    import struct

    path = tmp_path / "partial.wav"
    payload = bytes(size)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
        tag, 1, 16000, 16000 * bits // 8, bits // 8, bits, b"data", len(payload),
    )
    path.write_bytes(header + payload)
    with pytest.raises(ParseError, match="whole number of samples"):
        read_wav(path)


def test_unsupported_encoding_rejected(tmp_path):
    import struct

    path = tmp_path / "u8.wav"
    payload = bytes(4)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
        1, 1, 8000, 8000, 1, 8, b"data", len(payload),
    )
    path.write_bytes(header + payload)
    with pytest.raises(ParseError):
        read_wav(path)


def test_write_unknown_encoding_rejected(tmp_path):
    path = tmp_path / "u8.wav"
    with pytest.raises(InvalidParamError, match="u8"):
        write_wav(path, AudioSignal(np.zeros(8), 8000), "u8")
    assert not path.exists()
