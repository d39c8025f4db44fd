import re
import tracemalloc
from contextlib import closing

import numpy as np
import pytest
from scipy import ndimage

from emodeid.errors import ClientUnavailableError, InvalidParamError, ParseError
from emodeid.video import (
    FaceBox,
    RemoteDetector,
    SidecarDetector,
    _blur_operator,
    blur_region,
    clip_box,
    default_sigma_policy,
    gaussian_kernel,
    mask_frame,
    mask_frames,
    read_ppm,
    write_ppm,
)


def checkerboard(width=64, height=48, tile=4):
    y, x = np.mgrid[0:height, 0:width]
    board = (((x // tile) + (y // tile)) % 2 * 255).astype(np.uint8)
    return np.stack([board] * 3, axis=-1)


def test_write_ppm_rejects_anything_but_a_uint8_rgb_array(tmp_path):
    path = tmp_path / "frame.ppm"
    for frame in (np.zeros((4, 4), np.uint8), np.zeros((4, 4, 4), np.uint8),
                  np.zeros((1, 4, 4, 3), np.uint8), np.zeros((4, 4, 3), np.uint16),
                  np.zeros((4, 4, 3)), bytes(48)):
        with pytest.raises(InvalidParamError, match=r"^PPM frames must be \(height, width, 3\) uint8"):
            write_ppm(path, frame)
        assert not path.exists()


def test_gaussian_kernel_normalized_and_symmetric():
    for sigma in (0.5, 1.0, 3.7):
        k = gaussian_kernel(sigma)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(k, k[::-1])
        assert k.size == 2 * int(np.ceil(3 * sigma)) + 1


def test_gaussian_kernel_center_ratio():
    k = gaussian_kernel(1.0)
    center = k.size // 2
    assert k[center] / k[center + 1] == pytest.approx(np.exp(0.5), abs=1e-12)


def test_gaussian_kernel_rejects_nonpositive_sigma():
    with pytest.raises(InvalidParamError):
        gaussian_kernel(0.0)


def test_blur_constant_region_unchanged():
    frame = np.full((32, 32, 3), 77, dtype=np.uint8)
    out = blur_region(frame, FaceBox(0, 4, 4, 16, 16), 2.0)
    np.testing.assert_array_equal(out, frame)


def test_blur_locality():
    frame = checkerboard()
    box = FaceBox(0, 8, 8, 24, 20)
    out = blur_region(frame, box, 3.0)
    mask = np.zeros(frame.shape[:2], dtype=bool)
    mask[8:28, 8:32] = True
    np.testing.assert_array_equal(frame[~mask], out[~mask])
    assert not np.array_equal(frame[mask], out[mask])


def test_blur_reduces_variance():
    frame = checkerboard()
    box = FaceBox(0, 8, 8, 24, 20)
    out = blur_region(frame, box, box.w / 4)
    region_before = frame[8:28, 8:32].astype(float)
    region_after = out[8:28, 8:32].astype(float)
    for c in range(3):
        assert region_after[..., c].var() < region_before[..., c].var()


def test_blur_preserves_mean_on_interior_box():
    frame = checkerboard()
    box = FaceBox(0, 8, 8, 24, 20)
    out = blur_region(frame, box, 2.0)
    before = frame[8:28, 8:32].astype(float).mean()
    after = out[8:28, 8:32].astype(float).mean()
    assert abs(before - after) < 1.0


def test_blur_zero_area_box_is_noop():
    frame = checkerboard()
    out = blur_region(frame, FaceBox(0, -10, -10, 5, 5), 2.0)
    np.testing.assert_array_equal(out, frame)


def test_clip_box():
    assert clip_box(FaceBox(0, -5, -5, 20, 20), 64, 48) == FaceBox(0, 0, 0, 15, 15)
    assert clip_box(FaceBox(0, 60, 40, 20, 20), 64, 48) == FaceBox(0, 60, 40, 4, 8)
    assert clip_box(FaceBox(0, 100, 100, 5, 5), 64, 48) is None


def test_mask_frames_no_boxes_bit_identical():
    frames = [checkerboard(), checkerboard(32, 32, 2)]
    out = mask_frames(frames, [])
    assert all(o is f for o, f in zip(out, frames, strict=True))


def test_mask_frames_blurs_listed_regions_only():
    frames = [checkerboard(), checkerboard()]
    boxes = [FaceBox(1, 8, 8, 16, 16)]
    out = mask_frames(frames, boxes)
    assert out[0] is frames[0]
    assert not np.array_equal(out[1], frames[1])


def test_mask_frames_overlapping_boxes_sequential_deterministic():
    frame = checkerboard()
    boxes = [FaceBox(0, 4, 4, 20, 20), FaceBox(0, 12, 12, 20, 20)]
    once = mask_frames([frame], boxes)[0]
    again = mask_frames([frame], boxes)[0]
    np.testing.assert_array_equal(once, again)
    # sequential application: second blur acts on the already-blurred frame
    manual = blur_region(frame, boxes[0], default_sigma_policy(boxes[0]))
    manual = blur_region(manual, boxes[1], default_sigma_policy(boxes[1]))
    np.testing.assert_array_equal(once, manual)


def _convolve_oracle(arr, box, sigma):
    """The blur as two edge-clamped ``ndimage`` convolutions, rows first."""
    clipped = clip_box(box, arr.shape[1], arr.shape[0])
    if clipped is None:
        return arr
    kernel = gaussian_kernel(sigma)
    region = np.s_[clipped.y : clipped.y + clipped.h, clipped.x : clipped.x + clipped.w]
    rows = ndimage.convolve1d(arr[region].astype(np.float64), kernel, axis=1, mode="nearest")
    out = arr.copy()
    out[region] = np.clip(np.rint(ndimage.convolve1d(rows, kernel, axis=0, mode="nearest")), 0, 255)
    return out


def test_blur_matches_the_convolution_oracle_byte_for_byte():
    rng = np.random.default_rng(4)
    for trial in range(300):
        height, width = (int(v) for v in rng.integers(1, 240, size=2))
        if trial % 10 == 0:
            arr = np.full((height, width, 3), rng.integers(0, 256), dtype=np.uint8)
        else:
            arr = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
        # Sides 1-220, often reaching past the frame's edges.
        w, h = (int(v) for v in rng.integers(1, 221, size=2))
        box = FaceBox(0, int(rng.integers(-w, width)), int(rng.integers(-h, height)), w, h)
        sigma = default_sigma_policy(box)
        out = blur_region(arr, box, sigma)
        np.testing.assert_array_equal(out, _convolve_oracle(arr, box, sigma), err_msg=str(box))


def _scatter_blur_operator(n, sigma):
    """The operator as a scatter of each output's clamped taps: O(n·r) memory, so the
    reference for ``_blur_operator``, which builds the same bits in O(n² + r)."""
    kernel = gaussian_kernel(sigma)
    radius = kernel.size // 2
    source = np.clip(np.arange(n)[:, None] + np.arange(-radius, radius + 1), 0, n - 1)
    flat = source + n * np.arange(n)[:, None]
    return np.bincount(flat.ravel(), np.tile(kernel, n), n * n).reshape(n, n)


def test_blur_operator_equals_the_tap_scatter_bit_for_bit():
    # Radii from 1 to 3000 against sides from 1 to 640, so r < n, r = n and r > n.
    for n in (1, 2, 3, 4, 7, 16, 33, 100, 160, 360, 640):
        for sigma in (0.3, 1 / 3, 1.0, 2.5, 7.0, 25.0, 40.0, 100.0, 333.3, 1000.0):
            op = _blur_operator(n, sigma)
            assert not op.flags.writeable
            np.testing.assert_array_equal(op.view(np.int64),
                                          _scatter_blur_operator(n, sigma).view(np.int64),
                                          err_msg=f"n={n}, sigma={sigma}")


def test_a_box_far_wider_than_its_frame_is_blurred_in_memory_bounded_by_the_frame():
    frame = np.random.default_rng(6).integers(0, 256, (360, 640, 3), dtype=np.uint8)
    box = FaceBox(0, -16000, 100, 32000, 100)  # sigma 8000, a kernel radius of 24000
    _blur_operator.cache_clear()
    tracemalloc.start()
    try:
        out = mask_frame(frame, [box])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The tap scatter took 743 MB here; the (640, 640) operator itself is 3.3 MB.
    assert peak < 25e6
    np.testing.assert_array_equal(out[:100], frame[:100])
    np.testing.assert_array_equal(out[200:], frame[200:])
    assert not np.array_equal(out[100:200], frame[100:200])


def test_mask_frame_blurs_every_box_in_listed_order():
    frame = checkerboard(96, 64)
    boxes = [FaceBox(3, 4, 4, 30, 20), FaceBox(3, 20, 10, 40, 40), FaceBox(3, 80, 50, 30, 30)]
    expected = frame
    for box in boxes:
        expected = _convolve_oracle(expected, box, default_sigma_policy(box))
    np.testing.assert_array_equal(mask_frame(frame, boxes), expected)
    assert mask_frame(frame, []) is frame


def test_ppm_round_trip(tmp_path):
    frame = checkerboard(17, 9)
    path = tmp_path / "frame.ppm"
    write_ppm(path, frame)
    back = read_ppm(path)
    assert back.shape == (9, 17, 3) and back.dtype == np.uint8
    np.testing.assert_array_equal(back, frame)


def test_ppm_read_write_round_trip_is_byte_identical(tmp_path):
    src, dst = tmp_path / "in.ppm", tmp_path / "out.ppm"
    write_ppm(src, checkerboard(31, 7, 3))
    write_ppm(dst, read_ppm(src))
    assert dst.read_bytes() == src.read_bytes()


def test_blur_region_leaves_its_input_unchanged():
    frame = checkerboard()
    before = frame.copy()
    out = blur_region(frame, FaceBox(0, 8, 8, 16, 16), 2.0)
    np.testing.assert_array_equal(frame, before)
    assert not np.array_equal(out, frame)
    assert not out.flags.writeable


def test_ppm_with_comment(tmp_path):
    path = tmp_path / "c.ppm"
    for comment in (b"a comment", b"long " * 100):
        path.write_bytes(b"P6\n# " + comment + b"\n2 1\n255\n" + bytes(range(6)))
        frame = read_ppm(path)
        assert frame.shape == (1, 2, 3)
        assert frame.tobytes() == bytes(range(6))


_PIXELS = bytes(range(6))


@pytest.mark.parametrize("data, expected", [
    # A "#" inside a field is part of it; only one that starts a field opens a comment.
    (b"P6#c\n2 1\n255\n" + _PIXELS, "only binary P6 PPM is supported"),
    (b"P6\n2#3 1\n255\n" + _PIXELS, "PPM width, height and maxval must be decimal, at most 9 digits"),
    (b"P6\n2 1\n# a comment up to the end of the file", "truncated PPM header"),
    *((b"P6" + sep + b"2" + sep + b"1" + sep + b"255" + sep + _PIXELS, _PIXELS)
      for sep in (b"\t", b"\r", b"\x0b", b"\x0c")),
    (b"P6 2 1 255", "PPM pixel data truncated"),
    (b"P6 1234567890 1 255\n" + _PIXELS, "PPM width, height and maxval must be decimal, at most 9 digits"),
    # Longer than io.DEFAULT_BUFFER_SIZE (8192 bytes), so the header crosses the file's buffer.
    (b"P6\n#" + b"c" * 9000 + b"\n2 1\n255\n" + _PIXELS, _PIXELS),
    # One whitespace byte ends the header; whatever follows it is pixel data.
    (b"P6 2 1 255\r\n" + _PIXELS[:5], b"\n" + _PIXELS[:5]),
    (b"P6 2 1 255\n#c\n" + _PIXELS[:3], b"#c\n" + _PIXELS[:3]),
], ids=["hash-after-magic", "hash-in-width", "comment-to-eof", "tab", "cr", "vt", "ff",
        "maxval-at-eof", "ten-digit-width", "comment-past-buffer", "crlf-after-maxval",
        "hash-after-maxval"])
def test_ppm_header_grammar(tmp_path, data, expected):
    path = tmp_path / "grammar.ppm"
    path.write_bytes(data)
    if isinstance(expected, str):
        with pytest.raises(ParseError, match=rf"^{re.escape(expected)} \(.*grammar\.ppm\)$"):
            read_ppm(path)
    else:
        frame = read_ppm(path)
        assert (frame.shape, frame.tobytes()) == ((1, 2, 3), expected)


def test_ppm_reads_into_a_given_array_of_its_shape(tmp_path):
    path = tmp_path / "frame.ppm"
    write_ppm(path, checkerboard(17, 9))
    out = np.zeros((9, 17, 3), np.uint8)
    frame = read_ppm(path, out)
    np.testing.assert_array_equal(out, checkerboard(17, 9))
    assert np.shares_memory(frame, out)
    assert not frame.flags.writeable


def test_ppm_of_another_shape_than_the_given_array_gets_its_own(tmp_path):
    path = tmp_path / "frame.ppm"
    write_ppm(path, checkerboard(17, 9))
    out = np.zeros((9, 16, 3), np.uint8)
    frame = read_ppm(path, out)
    assert frame.shape == (9, 17, 3)
    assert not np.shares_memory(frame, out)
    assert not out.any()


def test_ppm_read_into_a_strided_array_of_its_shape_gives_the_right_pixels(tmp_path):
    path = tmp_path / "frame.ppm"
    write_ppm(path, checkerboard(17, 9))
    frame = read_ppm(path, np.zeros((9, 34, 3), np.uint8)[:, ::2])
    np.testing.assert_array_equal(frame, checkerboard(17, 9))
    assert not frame.flags.writeable


def test_write_ppm_writes_a_strided_frame_in_c_order(tmp_path):
    path = tmp_path / "frame.ppm"
    frame = checkerboard(34, 9, 3)[:, ::-2]
    write_ppm(path, frame)
    assert path.read_bytes() == b"P6\n17 9\n255\n" + frame.tobytes()


@pytest.mark.parametrize("into", [False, True], ids=["fresh", "out"])
def test_ppm_ignores_bytes_after_the_pixels(tmp_path, into):
    path = tmp_path / "frame.ppm"
    path.write_bytes(b"P6\n2 1\n255\n" + bytes(range(6)) + b"trailing bytes")
    frame = read_ppm(path, np.empty((1, 2, 3), np.uint8) if into else None)
    assert frame.tobytes() == bytes(range(6))


@pytest.mark.parametrize("into", [False, True], ids=["fresh", "out"])
def test_ppm_rejects_truncated_pixels(tmp_path, into):
    path = tmp_path / "short.ppm"
    path.write_bytes(b"P6\n4 2\n255\n" + bytes(23))
    out = np.zeros((2, 4, 3), np.uint8)
    with pytest.raises(ParseError, match=r"^PPM pixel data truncated \(.*short\.ppm\)$"):
        read_ppm(path, out if into else None)
    assert not out.any()


@pytest.mark.parametrize("size", [b"0 7", b"7 0", b"0 0"])
def test_ppm_rejects_an_empty_frame(tmp_path, size):
    path = tmp_path / "empty.ppm"
    path.write_bytes(b"P6\n" + size + b"\n255\n")
    with pytest.raises(ParseError, match=r"width and height must be positive \(.*empty\.ppm\)"):
        read_ppm(path)


def test_ppm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(ParseError):
        read_ppm(path)


@pytest.mark.parametrize(
    "header",
    [b"P6\nx 2\n255\n", b"P6\n2 y\n255\n", b"P6\n2 2\n25a\n"],
    ids=["width", "height", "maxval"],
)
def test_ppm_rejects_non_numeric_header(tmp_path, header):
    path = tmp_path / "bad.ppm"
    path.write_bytes(header + bytes(12))
    with pytest.raises(ParseError, match="bad.ppm"):
        read_ppm(path)


def test_sidecar_detector(tmp_path):
    path = tmp_path / "boxes.jsonl"
    path.write_text(
        '{"frame_index": 0, "x": 2, "y": 3, "w": 4, "h": 5}\n'
        '{"frame_index": 0, "x": 9, "y": 9, "w": 2, "h": 2}\n'
        '{"frame_index": 7, "x": 0, "y": 0, "w": 1, "h": 1}\n'
    )
    detector = SidecarDetector(path)
    frame = checkerboard()
    assert detector.detect(frame, 0) == [
        FaceBox(0, 2, 3, 4, 5),
        FaceBox(0, 9, 9, 2, 2),
    ]
    assert detector.detect(frame, 3) == []


def test_sidecar_detector_malformed(tmp_path):
    path = tmp_path / "boxes.jsonl"
    path.write_text('{"frame_index": 0, "x": 1}\n')
    with pytest.raises(ParseError):
        SidecarDetector(path)


_flaky_failures_left = [0]
_EMPTY_BOXES = {
    "/zero-w": {"x": 2, "y": 2, "w": 0, "h": 6},
    "/negative-w": {"x": 2, "y": 2, "w": -4, "h": 6},
    "/zero-h": {"x": 2, "y": 2, "w": 6, "h": 0},
    "/negative-h": {"x": 2, "y": 2, "w": 6, "h": -4},
}


@pytest.fixture
def fake_detector_server(json_server):
    """A fake detector's /detect URL: one box wider than the frame; /flaky
    fails once with 503 first, /no-y's box lacks y, and the paths of
    ``_EMPTY_BOXES`` reply with that box."""
    _flaky_failures_left[0] = 1

    def route(path, body):
        if path in _EMPTY_BOXES:
            return 200, {"boxes": [_EMPTY_BOXES[path]]}
        if path == "/flaky" and _flaky_failures_left[0]:
            _flaky_failures_left[0] -= 1
            return 503, None
        boxes = [{"x": -10, "y": 5, "w": body["width"] + 50, "h": 10}]
        if path == "/no-y":
            del boxes[0]["y"]
        return 200, {"boxes": boxes}

    return json_server(route) + "/detect"


def test_remote_detector_clips_out_of_bounds_box(fake_detector_server):
    frame = checkerboard(64, 48)
    with closing(RemoteDetector(fake_detector_server, timeout_s=5.0)) as detector:
        boxes = [clip_box(b, frame.shape[1], frame.shape[0]) for b in detector.detect(frame, 0)]
    assert boxes == [FaceBox(0, 0, 5, 64, 10)]


def test_remote_detector_retries_on_5xx(fake_detector_server):
    detector = RemoteDetector(
        fake_detector_server.replace("/detect", "/flaky"), timeout_s=5.0, backoff_s=0.01
    )
    with closing(detector):
        boxes = detector.detect(checkerboard(64, 48), 3)
    assert boxes == [FaceBox(3, -10, 5, 114, 10)]
    assert _flaky_failures_left == [0]


def test_remote_detector_rejects_box_without_y(fake_detector_server):
    detector = RemoteDetector(fake_detector_server.replace("/detect", "/no-y"), timeout_s=5.0)
    with closing(detector), pytest.raises(ClientUnavailableError, match="malformed box"):
        detector.detect(checkerboard(64, 48), 0)


@pytest.mark.parametrize("path", list(_EMPTY_BOXES))
def test_remote_detector_rejects_an_empty_box(fake_detector_server, path):
    # clip_box would drop it, leaving the face it stands for unblurred.
    detector = RemoteDetector(fake_detector_server.replace("/detect", path), timeout_s=5.0)
    with closing(detector), pytest.raises(ClientUnavailableError, match="malformed box.*positive"):
        detector.detect(checkerboard(64, 48), 0)


def test_remote_detector_unreachable():
    detector = RemoteDetector("http://127.0.0.1:1/detect", timeout_s=0.2, backoff_s=0.01)
    with pytest.raises(ClientUnavailableError, match="unreachable after 3 attempts"):
        detector.detect(checkerboard(), 0)
