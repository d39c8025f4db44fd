import http.server
import json
import struct
import threading

import numpy as np
import pytest

from emodeid.pipeline import sample_frames_uniform
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


@pytest.fixture
def json_server():
    """Start loopback JSON services: ``json_server(route)`` returns the base URL
    of a server that answers each POST with ``route(path, body)``, a
    ``(status, reply)`` pair whose reply of None sends an empty body and
    whose bytes reply is sent as it is. The servers stop when the test ends."""
    servers = []

    def start(route):
        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                status, reply = route(self.path, body)
                if reply is None:
                    payload = b""
                elif isinstance(reply, bytes):
                    payload = reply
                else:
                    payload = json.dumps(reply).encode()
                self.send_response(status)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        servers.append(server)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        return f"http://127.0.0.1:{server.server_port}"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def _corrupt_frame_header(media, video_id):
    # make the width non-numeric in the first frame the sampler picks
    frames = sorted((media.root / video_id / "frames").glob("*.ppm"))
    index = sample_frames_uniform(len(frames), 4)[0]
    data = frames[index].read_bytes()
    frames[index].write_bytes(b"P6\nx" + data[data.index(b" "):])


def wav_bytes(payload, rate=16000, tag=1, bits=16, channels=1):
    """A RIFF/WAVE file with ``payload`` as its data chunk; the header holds
    whatever it is given (tag 1 is integer PCM, 3 is IEEE float), and its
    byte rate and block size always describe one channel."""
    block = bits // 8
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
        tag, channels, rate, rate * block, block, bits, b"data", len(payload),
    ) + payload


def _corrupt_audio_data(media, video_id):
    # PCM16 data chunk one byte long: not a whole number of samples
    (media.root / video_id / "audio.wav").write_bytes(wav_bytes(bytes(1)))


def _corrupt_audio_rate(media, video_id):
    # a well-formed PCM16 file whose header gives a sample rate of 0
    (media.root / video_id / "audio.wav").write_bytes(wav_bytes(bytes(64000), rate=0))
