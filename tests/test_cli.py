import base64
import contextlib
import csv
import io
import json
import os
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emodeid import clients, pipeline
from emodeid.annotations import NFBL_REGISTRY, nfbl_histogram
from emodeid.anonymize import AnonymizationParams, anonymize_mcadams
from emodeid.cli import EXIT_IO, EXIT_REMOTE, EXIT_USAGE, EXIT_VALIDATION, main
from emodeid.clients import mllm_request_digest
from emodeid.dsp import AudioSignal
from emodeid.pipeline import (
    SamplingConfig,
    default_prompts,
    load_video_inputs,
    mode_request,
    sample_frames_uniform,
)
from emodeid.video import list_frames, read_ppm, write_ppm
from emodeid.wavio import PCM16, read_wav, write_wav

from conftest import _corrupt_audio_data, _corrupt_frame_header, make_mock_dataset, wav_bytes


@pytest.fixture
def wav_file(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(16000) * 0.1
    path = tmp_path / "in.wav"
    write_wav(path, AudioSignal(x, 16000), PCM16)
    return path


def test_anonymize_audio_defaults(wav_file, tmp_path, capsys):
    out = tmp_path / "out.wav"
    assert main(["anonymize-audio", str(wav_file), str(out)]) == 0
    echoed = capsys.readouterr().out
    assert '"mcadams_lambda": 0.8' in echoed
    audio, encoding = read_wav(out)
    assert encoding == PCM16
    assert audio.samples.size == 16000


def test_anonymize_audio_lambda_one_identity(wav_file, tmp_path):
    out = tmp_path / "out.wav"
    assert main(["anonymize-audio", "--lambda", "1.0", str(wav_file), str(out)]) == 0
    src, _ = read_wav(wav_file)
    res, _ = read_wav(out)
    err = np.linalg.norm(res.samples - src.samples) / np.linalg.norm(src.samples)
    # identity up to 16-bit requantization
    assert err < 1e-3


@pytest.mark.parametrize(
    ("flags", "expected"),
    [(["--lambda", "0.7"], "0.7"), ([], "0.6")],
    ids=["flag-over-env", "env-over-config"],
)
def test_anonymize_audio_precedence(wav_file, tmp_path, capsys, monkeypatch, flags, expected):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mcadams_lambda": 0.5, "lpc_order": 12}))
    monkeypatch.setenv("EMODEID_ANONYMIZE_AUDIO_MCADAMS_LAMBDA", "0.6")
    out = tmp_path / "out.wav"
    code = main([
        "anonymize-audio", "--config", str(cfg), *flags,
        str(wav_file), str(out),
    ])
    assert code == 0
    echoed = capsys.readouterr().out
    # flag beats env beats config file; untouched keys fall back to the file
    assert f'"mcadams_lambda": {expected}' in echoed
    assert '"lpc_order": 12' in echoed


def test_anonymize_audio_framing_options_reach_the_anonymizer(wav_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"win_ms": 25.0, "shift_ms": 10.0, "lpc_order": 16, "mcadams_lambda": 0.7}))
    configured, default, expected = (tmp_path / name for name in ("cfg.wav", "def.wav", "exp.wav"))
    assert main(["anonymize-audio", "--config", str(cfg), str(wav_file), str(configured)]) == 0
    assert main(["anonymize-audio", str(wav_file), str(default)]) == 0
    audio, encoding = read_wav(wav_file)
    write_wav(expected, anonymize_mcadams(audio, AnonymizationParams(25.0, 10.0, 16, 0.7)),
              encoding)
    assert configured.read_bytes() == expected.read_bytes()
    assert configured.read_bytes() != default.read_bytes()


_ANONYMIZE_KEYS = st.sampled_from(["mcadams_lambda", "win_ms", "shift_ms", "lpc_order"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
# Windows far longer than the signal; at 1e308 ms the product with the rate
# is past the float range.
_TOO_LONG = [{"win_ms": 1e12, "shift_ms": 1e12}, {"win_ms": 1e308, "shift_ms": 1e308},
             {"win_ms": 1e308}]


# The WAV is 0.1 s at 2 kHz, so even the most expensive accepted config (a
# one-sample shift and an LPC order just under the 200-sample signal) is
# small work.
@settings(max_examples=60, deadline=None)
@given(doc=_JSON | st.dictionaries(_ANONYMIZE_KEYS | st.text(max_size=8), _JSON, max_size=4))
@example(doc={"frame_count": "4"})
@example(doc={"workers": "2"})
@example(doc={"frame_count": 4.7})
@example(doc=["frame_count"])
@example(doc={"mode": "bogus"})
@example(doc={"lpc_order": 4.7})
@example(doc={"win_ms": "nan"})
@example(doc=_TOO_LONG[0])
@example(doc=_TOO_LONG[1])
@example(doc=_TOO_LONG[2])
@example(doc={"shift_ms": 0.1})
@example(doc={"mcadams_lambda": "0.9", "lpc_order": 8})
def test_anonymize_audio_any_config_maps_to_an_exit_code(doc):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        wav, cfg = Path(tmp, "in.wav"), Path(tmp, "cfg.json")
        rng = np.random.default_rng(0)
        write_wav(wav, AudioSignal(rng.standard_normal(200) * 0.1, 2000), PCM16)
        cfg.write_text(json.dumps(doc))
        code = main(["anonymize-audio", "--config", str(cfg), str(wav), str(Path(tmp, "out.wav"))])
    assert code in (0, EXIT_USAGE, EXIT_VALIDATION)
    if doc in _TOO_LONG:
        assert code == EXIT_VALIDATION
        assert err.getvalue() == "validation error: the analysis window is longer than the signal\n"


def test_anonymize_audio_corrupt_input(tmp_path, capsys):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"RIFFxxxxNOPE" + b"\x00" * 64)
    out = tmp_path / "out.wav"
    assert main(["anonymize-audio", str(bad), str(out)]) == EXIT_VALIDATION
    assert not out.exists()
    assert "validation error" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main(["anonymize-audio", "/nonexistent.wav", "/tmp/x.wav"]) == EXIT_USAGE


def _write_frames(frames_dir, n=3, width=32, height=24):
    frames_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(0)
    for i in range(n):
        arr = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
        write_ppm(frames_dir / f"{i:04d}.ppm", arr)


def test_mask_frames_sidecar(tmp_path, capsys):
    frames = tmp_path / "frames"
    _write_frames(frames)
    boxes = tmp_path / "boxes.jsonl"
    boxes.write_text(
        json.dumps({"frame_index": 0, "x": 4, "y": 4, "w": 8, "h": 8}) + "\n"
        + json.dumps({"frame_index": 9, "x": 0, "y": 0, "w": 4, "h": 4}) + "\n"
    )
    out = tmp_path / "out"
    assert main(["mask-frames", str(frames), str(out), "--boxes", str(boxes)]) == 0
    captured = capsys.readouterr()
    assert "missing frame index 9" in captured.err
    assert sorted(p.name for p in out.iterdir()) == ["0000.ppm", "0001.ppm", "0002.ppm"]
    # untouched frames are copied bit for bit
    assert (out / "0001.ppm").read_bytes() == (frames / "0001.ppm").read_bytes()
    assert (out / "0000.ppm").read_bytes() != (frames / "0000.ppm").read_bytes()


# Boxes made for 1280x720 frames, given with 640x360 ones: frame 0's reaches
# past the right edge and is clipped; frame 1's lies wholly outside.
_HD_BOXES = [{"frame_index": 0, "x": 500, "y": 200, "w": 300, "h": 300},
             {"frame_index": 1, "x": 900, "y": 500, "w": 200, "h": 200}]


@pytest.mark.parametrize("source", ["boxes", "detector-url"])
def test_mask_frames_warns_of_each_box_wholly_outside_its_frame(tmp_path, capsys, source,
                                                                 json_server):
    frames = tmp_path / "frames"
    _write_frames(frames, n=2, width=640, height=360)
    out = tmp_path / "out"
    args = ["mask-frames", str(frames), str(out)]
    if source == "boxes":
        boxes = tmp_path / "boxes.jsonl"
        boxes.write_text("".join(json.dumps(b) + "\n" for b in _HD_BOXES))
        args += ["--boxes", str(boxes)]
    else:
        url = json_server(lambda path, body: (200, {"boxes": [_HD_BOXES[body["frame_index"]]]}))
        args += ["--detector-url", url + "/d"]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "warning: box (x 900, y 500, w 200, h 200) lies wholly outside frame 1 (640x360); skipped\n")
    assert captured.out.splitlines()[-1] == (
        "boxes: 2 given, 1 clipped to their frame, 1 wholly outside")
    assert (out / "0000.ppm").read_bytes() != (frames / "0000.ppm").read_bytes()
    assert (out / "0001.ppm").read_bytes() == (frames / "0001.ppm").read_bytes()


def test_mask_frames_warns_of_a_box_beyond_the_edge_but_not_of_one_on_it(tmp_path, capsys):
    frames = tmp_path / "frames"
    _write_frames(frames, n=1)  # 32x24
    boxes = tmp_path / "boxes.jsonl"
    edges = [(24, 16, 8, 8), (-8, 0, 8, 8), (32, 0, 8, 8), (0, 24, 8, 8)]  # x, y, w, h
    boxes.write_text("".join(json.dumps({"frame_index": 0, "x": x, "y": y, "w": w, "h": h}) + "\n"
                             for x, y, w, h in edges))
    assert main(["mask-frames", str(frames), str(tmp_path / "out"), "--boxes", str(boxes)]) == 0
    warned = re.findall(r"box \(x (-?\d+), y (\d+),", capsys.readouterr().err)
    assert warned == [("-8", "0"), ("32", "0"), ("0", "24")]


@pytest.mark.parametrize("beyond, clipped", [(0, 0), (1, 4)])
def test_mask_frames_counts_boxes_clipped_at_each_edge(tmp_path, capsys, beyond, clipped):
    frames = tmp_path / "frames"
    _write_frames(frames, n=1)  # 32x24
    # Boxes flush with the left, right, top and bottom edges, pushed out by ``beyond``.
    edges = [(-beyond, 8), (24 + beyond, 8), (12, -beyond), (12, 16 + beyond)]
    boxes = tmp_path / "boxes.jsonl"
    boxes.write_text("".join(
        json.dumps({"frame_index": 0, "x": x, "y": y, "w": 8, "h": 8}) + "\n" for x, y in edges))
    out = tmp_path / "out"
    assert main(["mask-frames", str(frames), str(out), "--boxes", str(boxes)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-2:] == [
        f"masked 1 frames into {out}",
        f"boxes: 4 given, {clipped} clipped to their frame, 0 wholly outside",
    ]


def test_mask_frames_unreadable_frame_exits_2(tmp_path, capsys):
    frames = tmp_path / "frames"
    _write_frames(frames, n=1)
    (frames / "0001.ppm").mkdir()
    boxes = tmp_path / "boxes.jsonl"
    boxes.write_text("")
    assert main(["mask-frames", str(frames), str(tmp_path / "out"), "--boxes", str(boxes)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err == f"i/o error: [Errno 21] Is a directory: '{frames / '0001.ppm'}'\n"


def test_mask_frames_requires_one_source(tmp_path, capsys):
    frames = tmp_path / "frames"
    _write_frames(frames, n=1)
    out = tmp_path / "out"
    assert main(["mask-frames", str(frames), str(out)]) == EXIT_USAGE
    boxes = tmp_path / "boxes.jsonl"
    boxes.write_text("")
    code = main([
        "mask-frames", str(frames), str(out),
        "--boxes", str(boxes), "--detector-url", "http://x",
    ])
    assert code == EXIT_USAGE


def test_mask_frames_rejects_a_detector_url_that_is_not_http_before_writing(tmp_path, capsys):
    frames = tmp_path / "frames"
    _write_frames(frames, n=1)
    out = tmp_path / "out"
    code = main(["mask-frames", str(frames), str(out), "--detector-url", "ftp://127.0.0.1/x"])
    assert code == EXIT_VALIDATION
    assert "http or https" in capsys.readouterr().err
    assert not out.exists()


def test_mask_frames_empty_boxes_identical(tmp_path):
    frames = tmp_path / "frames"
    _write_frames(frames)
    boxes = tmp_path / "boxes.jsonl"
    boxes.write_text("")
    out = tmp_path / "out"
    assert main(["mask-frames", str(frames), str(out), "--boxes", str(boxes)]) == 0
    for name in os.listdir(frames):
        assert (out / name).read_bytes() == (frames / name).read_bytes()


def test_mask_frames_unreachable_detector(tmp_path, capsys, monkeypatch):
    frames = tmp_path / "frames"
    _write_frames(frames, n=1)
    out = tmp_path / "out"
    sleeps = []
    monkeypatch.setattr(clients, "time", SimpleNamespace(sleep=sleeps.append))
    code = main([
        "mask-frames", str(frames), str(out), "--detector-url", "http://127.0.0.1:1/d",
    ])
    assert code == EXIT_REMOTE
    assert "remote-client error" in capsys.readouterr().err
    assert sleeps == [1.0, 2.0]


_FACE = {"boxes": [{"x": 4, "y": 4, "w": 8, "h": 8}]}


def test_mask_frames_stops_at_first_failed_detection(tmp_path, capsys, json_server):
    frames = tmp_path / "frames"
    _write_frames(frames)
    out = tmp_path / "out"
    url = json_server(lambda path, body: (400, None) if body["frame_index"] >= 1 else (200, _FACE))
    code = main(["mask-frames", str(frames), str(out), "--detector-url", url + "/d"])
    assert code == EXIT_REMOTE
    assert "returned 400" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["0000.ppm"]


def test_mask_frames_exits_on_an_empty_detector_box(tmp_path, capsys, json_server):
    frames = tmp_path / "frames"
    _write_frames(frames, n=1)
    out = tmp_path / "out"
    url = json_server(lambda path, body: (200, {"boxes": [{"x": 2, "y": 2, "w": -4, "h": 6}]}))
    code = main(["mask-frames", str(frames), str(out), "--detector-url", url + "/d"])
    assert code == EXIT_REMOTE
    assert "returned a malformed box" in capsys.readouterr().err
    assert not list(out.glob("*.ppm"))


@pytest.mark.parametrize("source", ["boxes", "detector-url"])
def test_mask_frames_blurs_the_faces_of_every_frame(tmp_path, source, json_server):
    frames = tmp_path / "frames"
    _write_frames(frames, n=4)
    out = tmp_path / "out"
    args = ["mask-frames", str(frames), str(out)]
    if source == "boxes":
        boxes = tmp_path / "boxes.jsonl"
        boxes.write_text("".join(
            json.dumps({"frame_index": i, "x": 4, "y": 4, "w": 8, "h": 8}) + "\n"
            for i in range(4)
        ))
        assert main(args + ["--boxes", str(boxes)]) == 0
    else:
        url = json_server(lambda path, body: (200, _FACE))
        assert main(args + ["--detector-url", url + "/d"]) == 0
    for i in range(4):
        name = f"{i:04d}.ppm"
        before, after = read_ppm(frames / name), read_ppm(out / name)
        face = np.s_[4:12, 4:12]
        assert not np.array_equal(before[face], after[face]), name
        after = after.copy()
        after[face] = before[face]
        assert np.array_equal(before, after), name


def test_mask_frames_visits_frames_in_name_order(tmp_path, json_server):
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in np.random.default_rng(8).permutation(12):
        write_ppm(frames / f"{i:04d}.ppm", np.full((4, 4, 3), i, np.uint8))
    seen = []  # (frame_index, first pixel byte) per request; no faces found

    def route(path, body):
        seen.append((body["frame_index"], base64.b64decode(body["pixels_b64"])[0]))
        return 200, {"boxes": []}

    url = json_server(route)
    code = main(["mask-frames", str(frames), str(tmp_path / "out"), "--detector-url", url + "/d"])
    assert code == 0
    assert seen == [(i, i) for i in range(12)]


def test_run_pipeline_records_one_failure_per_pair_from_unreachable_endpoints(tmp_path):
    records, media, _, ann_path, _ = make_mock_dataset(tmp_path / "data")
    out_dir = tmp_path / "run"
    code = main([
        "run-pipeline", str(ann_path), str(media.root), str(out_dir),
        "--mode", "all", "--mllm-endpoint", "http://127.0.0.1:1/mllm",
        "--judge-endpoint", "http://127.0.0.1:1/judge", "--max-attempts", "1",
        "--timeout-s", "0.2", "--workers", "2",
    ])
    assert code == 0
    for mode in ("v", "va", "van"):
        failures = [json.loads(line)
                    for line in (out_dir / mode / "failures.jsonl").read_text().splitlines()]
        assert sorted(f["video_id"] for f in failures) == [r.video_id for r in records]
        assert all("http://127.0.0.1:1/mllm" in f["error"] for f in failures)


def _pipeline_args(ann_path, media, out_dir, fix_path, mode="all"):
    return [
        "run-pipeline", str(ann_path), str(media.root), str(out_dir),
        "--mode", mode, "--mock-fixtures", str(fix_path), "--frame-count", "4",
    ]


def test_run_pipeline_mock_all_modes(tmp_path, capsys):
    records, media, _, ann_path, fix_path = make_mock_dataset(tmp_path / "data")
    out_dir = tmp_path / "run"
    assert main(_pipeline_args(ann_path, media, out_dir, fix_path)) == 0
    for mode in ("v", "va", "van"):
        lines = (out_dir / mode / "results.jsonl").read_text().splitlines()
        assert len(lines) == len(records)
        assert (out_dir / mode / "failures.jsonl").read_text() == ""
        assert (out_dir / mode / "summary.txt").exists()
    assert (out_dir / "config.json").exists()
    rows = (out_dir / "ablation.txt").read_text().splitlines()
    assert [r.split()[0] for r in rows[1:4]] == ["video", "video+audio", "video+audio+nfbl"]
    assert (out_dir / "ablation.csv").read_text().splitlines()[0] == (
        "mode,accuracy_pct,f_score_pct,precision_pct,mean_confidence"
    )


def test_run_pipeline_workers_default_to_the_usable_cpus(tmp_path, monkeypatch):
    _, media, _, ann_path, fix_path = make_mock_dataset(tmp_path / "data", n_videos=2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(_pipeline_args(ann_path, media, tmp_path / "run", fix_path, mode="v")) == 0
    assert json.loads((tmp_path / "run" / "config.json").read_text())["workers"] == 1


def test_run_pipeline_all_modes_equals_one_run_per_mode(tmp_path):
    _, media, _, ann_path, fix_path = make_mock_dataset(tmp_path / "data", n_videos=4)
    _corrupt_audio_data(media, "v001")
    _corrupt_frame_header(media, "v002")
    assert main(_pipeline_args(ann_path, media, tmp_path / "all", fix_path)) == 0
    for mode in ("v", "va", "van"):
        single = tmp_path / mode
        assert main(_pipeline_args(ann_path, media, single, fix_path, mode=mode)) == 0
        for name in ("results.jsonl", "failures.jsonl", "summary.txt"):
            assert (tmp_path / "all" / mode / name).read_bytes() == (
                single / mode / name
            ).read_bytes(), (mode, name)
    failed = {mode: [json.loads(line)["video_id"] for line in
                     (tmp_path / "all" / mode / "failures.jsonl").read_text().splitlines()]
              for mode in ("v", "va", "van")}
    assert failed == {"v": ["v002"], "va": ["v001", "v002"], "van": ["v001", "v002"]}


def test_run_pipeline_fails_a_video_whose_sampled_frame_is_empty(tmp_path):
    _, media, _, ann_path, fix_path = make_mock_dataset(tmp_path / "data")
    frames = list_frames(media.root / "v001" / "frames")
    empty = frames[sample_frames_uniform(len(frames), 4)[1]]
    empty.write_bytes(b"P6\n0 7\n255\n")
    assert main(_pipeline_args(ann_path, media, tmp_path / "run", fix_path)) == 0
    for mode in ("v", "va", "van"):
        lines = (tmp_path / "run" / mode / "failures.jsonl").read_text().splitlines()
        failures = [json.loads(line) for line in lines]
        assert [(f["video_id"], f["mode"]) for f in failures] == [("v001", mode)]
        assert str(empty) in failures[0]["error"]


def test_run_pipeline_fails_the_audio_modes_of_a_video_with_a_low_rate_wav(tmp_path):
    records, media, _, ann_path, fix_path = make_mock_dataset(tmp_path / "data")
    # 4 s at 40 Hz makes two 2 s segments, but the 25 ms mel window rounds to 1 sample.
    write_wav(media.root / "v001" / "audio.wav", AudioSignal(np.zeros(160), 40), PCM16)
    assert main(_pipeline_args(ann_path, media, tmp_path / "run", fix_path)) == 0
    results = (tmp_path / "run" / "v" / "results.jsonl").read_text().splitlines()
    assert [json.loads(line)["video_id"] for line in results] == [r.video_id for r in records]
    assert (tmp_path / "run" / "v" / "failures.jsonl").read_text() == ""
    for mode in ("va", "van"):
        lines = (tmp_path / "run" / mode / "failures.jsonl").read_text().splitlines()
        failures = [json.loads(line) for line in lines]
        assert [(f["video_id"], f["mode"]) for f in failures] == [("v001", mode)]
        assert "sample rate 40 Hz" in failures[0]["error"]


def test_inputs_are_built_once_per_video_for_all_modes(tmp_path, monkeypatch):
    calls = {"mel_spectrogram": 0, "read_ppm": 0}

    def counted(name):
        real = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, wrapper)

    for name in calls:
        counted(name)
    # 3 videos, each with 4 sampled frames and 4.06 s of audio (two 2 s clips)
    once = {"mel_spectrogram": 3 * 2, "read_ppm": 3 * 4}
    _, media, _, ann_path, fix_path = make_mock_dataset(tmp_path / "data")
    assert calls == once
    calls.update(dict.fromkeys(calls, 0))
    assert main(_pipeline_args(ann_path, media, tmp_path / "run", fix_path)) == 0
    assert calls == once
    for mode in ("v", "va", "van"):
        assert (tmp_path / "run" / mode / "failures.jsonl").read_text() == ""


def test_run_pipeline_rerun_byte_identical(tmp_path):
    _, media, _, ann_path, fix_path = make_mock_dataset(tmp_path / "data")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out_dir in (out_a, out_b):
        assert main(_pipeline_args(ann_path, media, out_dir, fix_path, mode="van")) == 0
    assert (out_a / "van" / "results.jsonl").read_bytes() == (
        out_b / "van" / "results.jsonl"
    ).read_bytes()


def test_run_pipeline_rerun_removes_the_scores_it_cannot_write(tmp_path, capsys):
    # Each rerun goes into the first run's directory with fewer results.
    _, media, _, ann_path, fix_path = make_mock_dataset(tmp_path / "data")
    out_dir = tmp_path / "run"
    assert main(_pipeline_args(ann_path, media, out_dir, fix_path)) == 0
    # A --mode v rerun removes the va and van files, so evaluate scores only v.
    assert main(_pipeline_args(ann_path, media, out_dir, fix_path, mode="v")) == 0
    for mode in ("va", "van"):
        for name in ("results.jsonl", "failures.jsonl", "summary.txt"):
            assert not (out_dir / mode / name).exists(), (mode, name)
    capsys.readouterr()
    assert main(["evaluate", str(out_dir), str(ann_path)]) == 0
    assert capsys.readouterr().out == (out_dir / "ablation.txt").read_text()
    for audio in media.root.glob("*/audio.wav"):
        audio.unlink()
    assert main(_pipeline_args(ann_path, media, out_dir, fix_path)) == 0
    assert (out_dir / "v" / "summary.txt").exists()
    assert not (out_dir / "va" / "summary.txt").exists()
    assert not (out_dir / "van" / "summary.txt").exists()
    assert "video+audio" not in (out_dir / "ablation.txt").read_text()
    for frame in media.root.glob("*/frames/*.ppm"):
        frame.unlink()
    assert main(_pipeline_args(ann_path, media, out_dir, fix_path)) == 0
    for mode in ("v", "va", "van"):
        assert (out_dir / mode / "results.jsonl").read_text() == ""
        assert not (out_dir / mode / "summary.txt").exists()
    assert not (out_dir / "ablation.txt").exists()
    assert not (out_dir / "ablation.csv").exists()


def test_run_pipeline_never_reveals_the_token(tmp_path, capsys):
    _, media, _, ann_path, fix_path = make_mock_dataset(tmp_path / "data")
    out_dir = tmp_path / "run"
    args = _pipeline_args(ann_path, media, out_dir, fix_path, mode="v")
    assert main(args + ["--auth-token", "S3cr3t-t0ken"]) == 0
    captured = capsys.readouterr()
    assert "S3cr3t-t0ken" not in captured.out + captured.err
    config = json.loads((out_dir / "config.json").read_text())
    assert config["mode"] == "v"
    assert "auth_token" not in config
    assert "S3cr3t-t0ken" not in (out_dir / "config.json").read_text()
    # config.json reads back as --config and reproduces the run
    again = tmp_path / "again"
    code = main([
        "run-pipeline", str(ann_path), str(media.root), str(again),
        "--config", str(out_dir / "config.json"),
    ])
    assert code == 0
    assert json.loads((again / "config.json").read_text()) == config
    assert (again / "v" / "results.jsonl").read_bytes() == (
        out_dir / "v" / "results.jsonl"
    ).read_bytes()


@pytest.mark.parametrize(
    ("doc", "expected"),
    [
        ({"frame_count": "4"}, 0),
        ({"frame_count": 4.7}, EXIT_USAGE),
        ({"mode": "bogus"}, EXIT_USAGE),
        ({"audio_segment_s": "nan"}, EXIT_VALIDATION),
        ({"workers": [2]}, EXIT_VALIDATION),
        (["frame_count"], EXIT_VALIDATION),
        ({"workers": "0"}, EXIT_USAGE),
        ({"workers": "-3"}, EXIT_USAGE),
    ],
)
def test_run_pipeline_config_values_are_checked(tmp_path, doc, expected):
    _, media, _, ann_path, fix_path = make_mock_dataset(tmp_path / "data")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out_dir = tmp_path / "run"
    code = main([
        "run-pipeline", str(ann_path), str(media.root), str(out_dir),
        "--mock-fixtures", str(fix_path), "--config", str(cfg),
    ])
    assert code == expected
    if code == 0:
        assert json.loads((out_dir / "config.json").read_text())["frame_count"] == 4
        assert (out_dir / "van" / "failures.jsonl").read_text() == ""
    else:
        assert not out_dir.exists()


# 1e308 s times the sample rate is past the float range; 1e300 s is not.
@pytest.mark.parametrize("seg_s", ["1e300", "1e308"])
def test_run_pipeline_segment_longer_than_any_audio_fails_each_audio_mode(tmp_path, seg_s):
    records, media, _, ann_path, fix_path = make_mock_dataset(tmp_path / "data")
    out_dir = tmp_path / "run"
    args = _pipeline_args(ann_path, media, out_dir, fix_path)
    assert main(args + ["--audio-segment-s", seg_s]) == 0
    assert len((out_dir / "v" / "results.jsonl").read_text().splitlines()) == len(records)
    for mode in ("va", "van"):
        assert (out_dir / mode / "results.jsonl").read_text() == ""
        failures = [json.loads(line)
                    for line in (out_dir / mode / "failures.jsonl").read_text().splitlines()]
        assert [f["video_id"] for f in failures] == [r.video_id for r in records]
        assert all("shorter than one segment" in f["error"] for f in failures)


@pytest.mark.parametrize(
    "flags",
    [["--max-segments", "0"], ["--max-segments", "-1"], ["--mel-bins", "0"],
     ["--audio-segment-s", "0.01"]],
    ids=["max-segments-0", "max-segments-minus-1", "mel-bins-0", "segment-below-mel-window"],
)
def test_run_pipeline_rejects_bad_sampling_before_any_video(tmp_path, capsys, flags):
    _, media, _, ann_path, fix_path = make_mock_dataset(tmp_path / "data")
    out_dir = tmp_path / "run"
    args = _pipeline_args(ann_path, media, out_dir, fix_path, mode="va")
    assert main(args + flags) == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "flags",
    [["--max-attempts", "0"], ["--timeout-s", "0"], ["--timeout-s", "-1"],
     ["--timeout-s", "nan"], ["--timeout-s", "inf"], ["--mllm-endpoint", "localhost:8000/mllm"],
     ["--judge-endpoint", "file:///etc/hostname"]],
    ids=["max-attempts-0", "timeout-0", "timeout-minus-1", "timeout-nan", "timeout-inf",
         "mllm-endpoint-without-scheme", "judge-endpoint-file-url"],
)
def test_run_pipeline_rejects_bad_remote_settings_before_any_video(tmp_path, capsys, flags):
    _, media, _, ann_path, _ = make_mock_dataset(tmp_path / "data")
    out_dir = tmp_path / "run"
    code = main([
        "run-pipeline", str(ann_path), str(media.root), str(out_dir), "--mode", "v",
        "--mllm-endpoint", "http://127.0.0.1:1/mllm",
        "--judge-endpoint", "http://127.0.0.1:1/judge", *flags,
    ])
    assert code == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_pipeline_missing_fixture_is_failure(tmp_path):
    records, media, fixtures, ann_path, _ = make_mock_dataset(tmp_path / "data")
    # find the digest one video uses in this mode, then drop that fixture
    inputs = load_video_inputs(records[0], media, SamplingConfig(frame_count=4), audio=True)
    victim = mllm_request_digest(*mode_request(records[0], inputs, "van", default_prompts()))
    broken = {
        "mllm": {k: v for k, v in fixtures["mllm"].items() if k != victim},
        "judge": fixtures["judge"],
    }
    fix_path = tmp_path / "broken.json"
    fix_path.write_text(json.dumps(broken))
    out_dir = tmp_path / "run"
    assert main(_pipeline_args(ann_path, media, out_dir, fix_path, mode="van")) == 0
    failures = [
        json.loads(line)
        for line in (out_dir / "van" / "failures.jsonl").read_text().splitlines()
    ]
    assert len(failures) == 1
    results = (out_dir / "van" / "results.jsonl").read_text().splitlines()
    assert len(results) == len(records) - 1


def test_run_pipeline_requires_client_choice(tmp_path, capsys):
    _, media, _, ann_path, _ = make_mock_dataset(tmp_path / "data")
    out_dir = tmp_path / "run"
    code = main([
        "run-pipeline", str(ann_path), str(media.root), str(out_dir), "--mode", "v",
    ])
    assert code == EXIT_USAGE
    assert not out_dir.exists()


def _annotations_file(tmp_path, data):
    path = tmp_path / "annotations.json"
    path.write_bytes(data)
    return ["stats", str(path)], path


def _boxes_file(tmp_path, data):
    _write_frames(tmp_path / "frames", n=1)
    path = tmp_path / "boxes.jsonl"
    path.write_bytes(data)
    return ["mask-frames", str(tmp_path / "frames"), str(tmp_path / "out"), "--boxes", str(path)], path


def _fixtures_file(tmp_path, data):
    _, media, _, ann_path, _ = make_mock_dataset(tmp_path / "data")
    path = tmp_path / "fixtures.json"
    path.write_bytes(data)
    return _pipeline_args(ann_path, media, tmp_path / "run", path), path


def _config_file(tmp_path, data):
    wav = tmp_path / "in.wav"
    write_wav(wav, AudioSignal(np.zeros(200), 2000), PCM16)
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    return ["anonymize-audio", "--config", str(path), str(wav), str(tmp_path / "out.wav")], path


def _wav_file(tmp_path, data):
    path = tmp_path / "in.wav"
    path.write_bytes(data)
    return ["anonymize-audio", str(path), str(tmp_path / "out.wav")], path


def _results_file(tmp_path, data):
    _, _, _, ann_path, _ = make_mock_dataset(tmp_path / "data")
    path = tmp_path / "results.jsonl"
    path.write_bytes(data)
    return ["evaluate", str(path), str(ann_path)], path


_RESULT = b'{"video_id": "v000", "mode": "v", "emotion": "positive", "confidence": 7.5}\n'
_VIDEO = (b'{"format": "nfbl-annotations/1", "videos": [{"video_id": "v7", "emotion": "positive", '
          b'"duration_s": 5.0, "fps": 30.0, '
          b'"clips": [{"class_id": "N3", "start_s": 1.0, "end_s": 2.0}]}]}')
_TWICE = json.dumps({"format": "nfbl-annotations/1", "videos": [
    {"video_id": "v0", "emotion": "positive", "duration_s": 5.0, "fps": 30.0}] * 2}).encode()
_BOX = b'{"frame_index": 0, "x": 0, "y": 0, "w": 4, "h": 4}\n'


@pytest.mark.parametrize(
    ("make_args", "data", "where"),
    [
        (_annotations_file, b'{"format": "nfbl-annotations/1", "videos": 5}', ""),
        (_annotations_file, b'{"format": "nfbl-annotations/1", "videos": null}', ""),
        (_annotations_file, b'{"format": "nfbl-annotations/1", "videos": []}\xff', ""),
        (_annotations_file, _VIDEO.replace(b'"N3"', b'"N99"'), "video 'v7'"),
        (_annotations_file, _VIDEO.replace(b"5.0", b"NaN"), "video 'v7'"),
        (_annotations_file, _VIDEO.replace(b"30.0", b"Infinity"), "video 'v7'"),
        (_annotations_file, _TWICE, "duplicate video_id (video 'v0')"),
        (_boxes_file, _BOX.replace(b'"x": 0', b'"x": Infinity'), "line 1"),
        (_boxes_file, _BOX + b"\xff\n", "line 2"),
        (_boxes_file, _BOX.replace(b'"w": 4', b'"w": true'), "line 1"),
        (_boxes_file, _BOX.replace(b'"x": 0', b'"x": "7"'), "line 1"),
        (_fixtures_file, b"{", ""),
        (_fixtures_file, b"[1]", ""),
        (_results_file, _RESULT + b"not json\n", "line 2"),
        (_results_file, _RESULT.replace(b'"video_id": "v000", ', b""), "line 1"),
        (_results_file, b"\n", ""),
        (_results_file, _RESULT.replace(b"v000", b"v9"), "no label for video v9"),
        (_results_file, _RESULT + _RESULT.replace(b'"mode": "v"', b'"mode": "bogus"'), "line 2"),
        *[
            (_results_file, _RESULT + _RESULT.replace(b"7.5", bad), "line 2")
            for bad in (b"true", b"NaN", b"-1", b"11")
        ],
        (_config_file, b"[" * 100000 + b"]" * 100000, ""),
        (_config_file, b'{"lpc-order": 16, "lamda": 0.5}', "'lamda', 'lpc-order'"),
        (_config_file, b'{"config": "other.json"}', "'config'"),
        (_wav_file, wav_bytes(bytes(400), rate=0), ""),
        (_wav_file, wav_bytes(np.array([0.0, np.nan], "<f4").tobytes(), tag=3, bits=32), ""),
        (_wav_file, wav_bytes(bytes(400), channels=0), "channel count must be positive"),
    ],
    ids=[
        "annotations-videos-number", "annotations-videos-null", "annotations-not-utf8",
        "annotations-class-unknown", "annotations-duration-nan", "annotations-fps-infinity",
        "annotations-video-twice", "boxes-infinity", "boxes-not-utf8", "boxes-w-true",
        "boxes-x-text", "fixtures-truncated",
        "fixtures-list", "results-not-json", "results-without-video-id", "results-empty",
        "results-video-unlabelled", "results-mode-unknown", "results-confidence-true",
        "results-confidence-nan", "results-confidence-negative", "results-confidence-above-10",
        "config-nested", "config-unknown-key", "config-names-a-config", "wav-rate-zero",
        "wav-float-nan", "wav-no-channels",
    ],
)
def test_malformed_input_file_exits_4(tmp_path, capsys, make_args, data, where):
    args, path = make_args(tmp_path, data)
    assert main(args) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert str(path) in err and where in err
    assert "Traceback" not in err


def test_evaluate_single_and_ablation(tmp_path, capsys):
    _, media, _, ann_path, fix_path = make_mock_dataset(tmp_path / "data")
    out_dir = tmp_path / "run"
    assert main(_pipeline_args(ann_path, media, out_dir, fix_path)) == 0
    capsys.readouterr()

    assert main(["evaluate", str(out_dir / "van" / "results.jsonl"), str(ann_path)]) == 0
    single = capsys.readouterr().out
    assert "Accuracy" in single
    assert single == (out_dir / "van" / "summary.txt").read_text()

    assert main(["evaluate", str(out_dir), str(ann_path)]) == 0
    table = capsys.readouterr().out
    for label in ("video", "video+audio", "video+audio+nfbl"):
        assert label in table
    assert table == (out_dir / "ablation.txt").read_text()


def test_evaluate_rejects_a_video_counted_twice(tmp_path, capsys):
    _, media, _, ann_path, fix_path = make_mock_dataset(tmp_path / "data")
    runs = tmp_path / "runs"
    for name in ("a", "b"):
        assert main(_pipeline_args(ann_path, media, runs / name, fix_path, mode="van")) == 0
    capsys.readouterr()
    assert main(["evaluate", str(runs), str(ann_path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "video v000 in mode van appears twice" in err
    assert str(runs / "a" / "van" / "results.jsonl") in err
    assert str(runs / "b" / "van" / "results.jsonl") in err


def test_stats_command(tmp_path, capsys):
    records, _, _, ann_path, _ = make_mock_dataset(tmp_path / "data")
    csv_path = tmp_path / "hist.csv"
    assert main(["stats", str(ann_path), "--histogram-csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "videos" in out
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "class_id,name,category,count"
    assert len(rows) == 38
    assert b"\r" not in csv_path.read_bytes()
    with csv_path.open(newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    hist = nfbl_histogram(records)
    assert [(r["class_id"], r["name"], r["category"], int(r["count"])) for r in rows] == [
        (cid, cls.name, cls.category.value, hist[cid]) for cid, cls in NFBL_REGISTRY.items()
    ]
    assert any(hist.values())
