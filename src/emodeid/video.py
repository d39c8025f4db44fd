"""Face-region de-identification: Gaussian blur over detector-supplied boxes.

Face detection itself is pluggable: boxes come either from a sidecar file
(one JSON object per line: ``{"frame_index", "x", "y", "w", "h"}``) or from a
remote detection service. Frames travel as binary PPM (P6) images so test
fixtures stay lossless.
"""

from __future__ import annotations

import base64
import functools
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .clients import JsonEndpoint
from .errors import ClientUnavailableError, InvalidParamError, ParseError, parse_json_lines


class FrameImage:
    """Stub whose only caller is ``perfbench/inputs.py``; frames are plain read-only
    (height, width, 3) uint8 arrays. The benchmark change of ROADMAP item 14 deletes it."""

    @staticmethod
    def from_array(arr) -> np.ndarray:
        return np.ascontiguousarray(arr, dtype=np.uint8)


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


def _face_box(rec) -> FaceBox:
    """Five JSON number fields, each truncated toward zero; a bool or a str is no number."""
    values = [rec[k] for k in ("frame_index", "x", "y", "w", "h")]
    if any(isinstance(v, (bool, str)) for v in values):
        raise TypeError("box fields must be numbers")
    box = FaceBox(*map(int, values))
    if box.w <= 0 or box.h <= 0:
        raise ValueError("box width/height must be positive")
    return box


class SidecarDetector:
    """Boxes read from a sidecar file, keyed by frame index."""

    def __init__(self, path: str | Path):
        self.boxes: dict[int, list[FaceBox]] = {}
        for box in parse_json_lines(path, _face_box, "box record"):
            self.boxes.setdefault(box.frame_index, []).append(box)

    def detect(self, frame: np.ndarray, frame_index: int) -> list[FaceBox]:
        return list(self.boxes.get(frame_index, []))


class RemoteDetector(JsonEndpoint):
    """Boxes fetched from an external detection service.

    The request carries one base64-encoded frame plus shape metadata; the
    response is ``{"boxes": [{"x", "y", "w", "h"}, ...]}``. Transient
    failures are retried like the inference clients' (see ``JsonEndpoint``).
    """

    def detect(self, frame: np.ndarray, frame_index: int) -> list[FaceBox]:
        height, width, channels = frame.shape
        body = self.post({
            "frame_index": frame_index,
            "width": width,
            "height": height,
            "channels": channels,
            "pixels_b64": base64.b64encode(frame).decode("ascii"),
        })
        try:
            return [_face_box({**b, "frame_index": frame_index}) for b in body.get("boxes", [])]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ClientUnavailableError(f"{self.url} returned a malformed box: {exc!r}") from exc


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian kernel of radius ceil(3*sigma)."""
    if sigma <= 0:
        raise InvalidParamError("sigma must be positive")
    radius = math.ceil(3.0 * sigma)
    n = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(n**2) / (2.0 * sigma**2))
    return k / k.sum()


@functools.lru_cache(maxsize=32)
def _blur_operator(n: int, sigma: float) -> np.ndarray:
    """(n, n) edge-clamped Gaussian blur, read-only as the cache shares it: ``B[i, j]`` sums,
    in ascending tap order, the taps of output ``i`` whose clamped source is ``j``, as
    ``convolve1d(mode="nearest")``. Memory is O(n² + r) however far the radius r reaches."""
    kernel = gaussian_kernel(sigma)
    r = kernel.size // 2
    if n == 1:
        op = np.cumsum(kernel)[-1:].reshape(1, 1)
    else:
        # B[i, j] = kernel[j - i + r] where that tap exists: row i is band[n - 1 - i :][:n].
        band = np.zeros(2 * n - 1)
        lo, hi = max(n - 1 - r, 0), min(n + r, 2 * n - 1)
        band[lo:hi] = kernel[lo - n + 1 + r : hi - n + 1 + r]
        op = sliding_window_view(band, n)[::-1].copy()
        # Taps t <= r - i clamp to column 0, taps t >= n - 1 - i + r to column n - 1; the
        # band is 0 in both columns of the rows that no such tap reaches.
        op[: r + 1, 0] = np.cumsum(kernel)[r::-1][:n]
        for i in range(max(n - 1 - r, 0), n):
            op[i, -1] = np.cumsum(kernel[n - 1 - i + r :])[-1]
    op.flags.writeable = False
    return op


# OpenBLAS shares a product of 2**19 or more multiply-adds with threads that then spin
# for about 0.1 s, taking a core from the process's next work (a run-pipeline worker).
_ONE_THREAD_MACS = 2**19 - 1


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` in blocks of rows small enough for OpenBLAS to keep on one thread."""
    step = max(1, _ONE_THREAD_MACS // b.size)
    return np.concatenate([a[i : i + step] @ b for i in range(0, len(a), step)])


def blur_region(frame: np.ndarray, box: FaceBox, sigma: float) -> np.ndarray:
    """Separable Gaussian blur inside one box; pixels outside are untouched."""
    return mask_frame(frame, [box], lambda _: sigma)


def default_sigma_policy(box: FaceBox) -> float:
    return max(box.w, box.h) / 4.0


def mask_frame(frame: np.ndarray, boxes, policy=default_sigma_policy) -> np.ndarray:
    """A read-only copy of ``frame`` with each box, in order, given an edge-clamped
    Gaussian blur of sigma ``policy(box)`` that reads no pixel outside the box;
    ``frame`` itself when there are no boxes."""
    if not boxes:
        return frame
    arr = frame.copy()
    height, width, c = arr.shape
    for box in boxes:
        clipped = clip_box(box, width, height)
        if clipped is None:
            continue
        h, w, sigma = clipped.h, clipped.w, policy(box)
        box_px = np.s_[clipped.y : clipped.y + h, clipped.x : clipped.x + w]
        # Along the rows of each channel, laid out as (h, c, w), then down the
        # columns of the row-blurred box, laid out as (c, w, h).
        planes = arr[box_px].transpose(0, 2, 1).astype(np.float64, order="C").reshape(h * c, w)
        rows = _product(planes, _blur_operator(w, sigma).T)
        region = _product(rows.reshape(h, c * w).T, _blur_operator(h, sigma).T)
        np.clip(np.rint(region, out=region), 0, 255, out=region)
        arr[box_px] = region.reshape(c, w, h).transpose(2, 1, 0)
    arr.flags.writeable = False
    return arr


def mask_frames(frames, boxes):
    """``mask_frame`` over a list; a box applies to the frame at its ``frame_index``."""
    by_frame: dict[int, list[FaceBox]] = {}
    for box in boxes:
        by_frame.setdefault(box.frame_index, []).append(box)
    return [mask_frame(frame, by_frame.get(idx, [])) for idx, frame in enumerate(frames)]


def list_frames(directory: Path) -> list[Path]:
    """The ``*.ppm`` frames of a directory; file-name order defines frame indices."""
    # All paths share one parent, so sorting by name gives path order
    # without Path comparisons.
    return sorted(directory.glob("*.ppm"), key=lambda p: p.name)


def _ppm_header_fields(fh) -> list[bytes]:
    """The first four whitespace-separated fields of a PPM header, ``#``
    comments at the start of a field skipped, read up to and including the
    whitespace byte after the fourth; fewer fields when the file ends first."""
    fields: list[bytes] = []
    field = bytearray()
    while len(fields) < 4 and (byte := fh.read(1)):
        if not byte.isspace():
            if field or byte != b"#":
                field += byte
            else:
                fh.readline()
        elif field:
            fields.append(bytes(field))
            field.clear()
    return fields + [bytes(field)] if field else fields


def read_ppm(path: str | Path, out: np.ndarray | None = None) -> np.ndarray:
    """Read a binary (P6) portable pixel map with maxval 255 as a read-only
    (height, width, 3) uint8 array.

    The pixels are read into ``out.reshape(-1)`` when ``out`` has the frame's
    shape, so into ``out`` itself when it is C-contiguous, and into a fresh
    array otherwise; the result is a view of that buffer. Bytes after the
    pixels are ignored.
    """
    with open(path, "rb") as fh:
        fields = _ppm_header_fields(fh)
        if len(fields) < 4:
            raise ParseError(f"truncated PPM header ({path})")
        if fields[0] != b"P6":
            raise ParseError(f"only binary P6 PPM is supported ({path})")
        if not all(f.isdigit() and len(f) <= 9 for f in fields[1:]):
            raise ParseError(f"PPM width, height and maxval must be decimal, at most 9 digits ({path})")
        width, height, maxval = (int(f) for f in fields[1:])
        if maxval != 255:
            raise ParseError(f"only maxval 255 is supported ({path})")
        if width == 0 or height == 0:
            raise ParseError(f"PPM width and height must be positive ({path})")
        size = width * height * 3
        # Checked before allocating, so a header cannot ask for more memory
        # than the file holds.
        if os.fstat(fh.fileno()).st_size - fh.tell() < size:
            raise ParseError(f"PPM pixel data truncated ({path})")
        if out is None or out.shape != (height, width, 3):
            out = np.empty((height, width, 3), np.uint8)
        buf = out.reshape(-1)
        if fh.readinto(buf) < size:
            raise ParseError(f"PPM pixel data truncated ({path})")
    frame = buf.reshape(height, width, 3)
    frame.flags.writeable = False
    return frame


def write_ppm(path: str | Path, frame: np.ndarray) -> None:
    """Write a (height, width, 3) uint8 array as a binary (P6) PPM with maxval 255."""
    if not (isinstance(frame, np.ndarray) and frame.dtype == np.uint8
            and frame.ndim == 3 and frame.shape[2] == 3):
        raise InvalidParamError("PPM frames must be (height, width, 3) uint8 arrays")
    height, width, _ = frame.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(frame))
