"""Face-region de-identification: Gaussian blur over detector-supplied boxes.

Face detection itself is pluggable: boxes come either from a sidecar file
(one JSON object per line: ``{"frame_index", "x", "y", "w", "h"}``) or from a
remote detection service. Frames travel as binary PPM (P6) images so test
fixtures stay lossless.
"""

from __future__ import annotations

import base64
import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .clients import JsonEndpoint
from .errors import DetectorUnavailableError, InvalidParamError, ParseError


@dataclass
class FrameImage:
    """Row-major interleaved byte image (8 bits per channel).

    ``pixels`` is any bytes-like buffer (``bytes``, ``bytearray`` or a
    ``memoryview`` of either); frames are treated as immutable.
    """

    width: int
    height: int
    channels: int
    pixels: bytes | bytearray | memoryview

    def __post_init__(self):
        if len(self.pixels) != self.width * self.height * self.channels:
            raise InvalidParamError("pixel buffer does not match image dimensions")

    def to_array(self) -> np.ndarray:
        """A read-only view of the pixels, shape (height, width, channels)."""
        arr = np.frombuffer(self.pixels, dtype=np.uint8).reshape(
            self.height, self.width, self.channels
        )
        arr.flags.writeable = False
        return arr

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "FrameImage":
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        h, w, c = arr.shape
        return cls(w, h, c, arr.tobytes())


@dataclass(frozen=True)
class FaceBox:
    frame_index: int
    x: int
    y: int
    w: int
    h: int


def clip_box(box: FaceBox, width: int, height: int) -> FaceBox | None:
    """Intersect a box with the frame rectangle; None when the result is empty."""
    x0, y0 = max(box.x, 0), max(box.y, 0)
    x1, y1 = min(box.x + box.w, width), min(box.y + box.h, height)
    if x1 <= x0 or y1 <= y0:
        return None
    return FaceBox(box.frame_index, x0, y0, x1 - x0, y1 - y0)


class FaceDetector(ABC):
    """Source of face bounding boxes for individual frames."""

    @abstractmethod
    def detect(self, frame: FrameImage, frame_index: int) -> list[FaceBox]: ...

    def close(self) -> None:
        """Release open connections, if the detector holds any."""


class SidecarDetector(FaceDetector):
    """Boxes read from a sidecar file, keyed by frame index."""

    def __init__(self, path: str | Path):
        self.boxes: dict[int, list[FaceBox]] = {}
        for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
            if not line.strip():
                continue
            ctx = f"{path}: line {lineno}"
            try:
                rec = json.loads(line)
                box = FaceBox(
                    int(rec["frame_index"]),
                    int(rec["x"]),
                    int(rec["y"]),
                    int(rec["w"]),
                    int(rec["h"]),
                )
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                raise ParseError(f"bad box record: {exc}", context=ctx)
            if box.w <= 0 or box.h <= 0:
                raise ParseError("box width/height must be positive", context=ctx)
            self.boxes.setdefault(box.frame_index, []).append(box)

    def detect(self, frame: FrameImage, frame_index: int) -> list[FaceBox]:
        return list(self.boxes.get(frame_index, []))


class RemoteDetector(FaceDetector):
    """Boxes fetched from an external detection service.

    The request carries one base64-encoded frame plus shape metadata; the
    response is ``{"boxes": [{"x", "y", "w", "h"}, ...]}``. Transient
    failures are retried like the inference clients' (see ``JsonEndpoint``).
    """

    def __init__(self, endpoint: str, timeout_s: float = 30.0):
        self.endpoint = JsonEndpoint(endpoint, timeout_s=timeout_s, error=DetectorUnavailableError)

    def close(self) -> None:
        self.endpoint.close()

    def detect(self, frame: FrameImage, frame_index: int) -> list[FaceBox]:
        body = self.endpoint.post({
            "frame_index": frame_index,
            "width": frame.width,
            "height": frame.height,
            "channels": frame.channels,
            "pixels_b64": base64.b64encode(frame.pixels).decode("ascii"),
        })
        try:
            return [
                FaceBox(frame_index, int(b["x"]), int(b["y"]), int(b["w"]), int(b["h"]))
                for b in body.get("boxes", [])
            ]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DetectorUnavailableError(
                f"{self.endpoint.url} returned a malformed box: {exc!r}"
            ) from exc


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian kernel of radius ceil(3*sigma)."""
    if sigma <= 0:
        raise InvalidParamError("sigma must be positive")
    radius = math.ceil(3.0 * sigma)
    n = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(n**2) / (2.0 * sigma**2))
    return k / k.sum()


def blur_region(frame: FrameImage, box: FaceBox, sigma: float) -> FrameImage:
    """Separable Gaussian blur inside one box; pixels outside are untouched.

    Sampling is edge-clamped and confined to the box so no un-blurred face
    pixels leak back in from the surroundings.
    """
    clipped = clip_box(box, frame.width, frame.height)
    if clipped is None:
        return frame
    kernel = gaussian_kernel(sigma)
    # The one copy of the frame: blurred in place, then owned by the result.
    pixels = bytearray(frame.pixels)
    arr = np.frombuffer(pixels, dtype=np.uint8).reshape(frame.height, frame.width, frame.channels)
    box_px = np.s_[clipped.y : clipped.y + clipped.h, clipped.x : clipped.x + clipped.w]
    # Two float buffers for the box, each pass writing into the other; the
    # rounding and clipping reuse them too.
    region = arr[box_px].astype(np.float64)
    rows = ndimage.convolve1d(region, kernel, axis=1, mode="nearest")
    ndimage.convolve1d(rows, kernel, axis=0, output=region, mode="nearest")
    np.clip(np.rint(region, out=region), 0, 255, out=region)
    arr[box_px] = region
    return FrameImage(frame.width, frame.height, frame.channels, pixels)


def default_sigma_policy(box: FaceBox) -> float:
    return max(box.w, box.h) / 4.0


def mask_frames(frames, boxes):
    """Blur every box of every frame with ``default_sigma_policy``; boxes
    apply sequentially in listed order."""
    by_frame: dict[int, list[FaceBox]] = {}
    for box in boxes:
        by_frame.setdefault(box.frame_index, []).append(box)
    out = []
    for idx, frame in enumerate(frames):
        for box in by_frame.get(idx, []):
            frame = blur_region(frame, box, default_sigma_policy(box))
        out.append(frame)
    return out


def read_ppm(path: str | Path) -> FrameImage:
    """Read a binary (P6) portable pixel map with maxval 255."""
    data = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError("truncated PPM header", context=str(path))
        fields.append(data[start:pos])
    if fields[0] != b"P6":
        raise ParseError("only binary P6 PPM is supported", context=str(path))
    if not all(f.isdigit() and len(f) <= 9 for f in fields[1:]):
        raise ParseError("PPM width, height and maxval must be decimal, at most 9 digits",
                         context=str(path))
    width, height, maxval = (int(f) for f in fields[1:])
    if maxval != 255:
        raise ParseError("only maxval 255 is supported", context=str(path))
    pos += 1
    pixels = memoryview(data)[pos : pos + width * height * 3]
    if len(pixels) != width * height * 3:
        raise ParseError("PPM pixel data truncated", context=str(path))
    return FrameImage(width, height, 3, pixels)


def write_ppm(path: str | Path, frame: FrameImage) -> None:
    if frame.channels != 3:
        raise InvalidParamError("PPM frames must have 3 channels")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{frame.width} {frame.height}\n255\n".encode("ascii"))
        fh.write(frame.pixels)
