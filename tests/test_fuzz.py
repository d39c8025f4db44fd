"""Parsers fed arbitrary input raise only EmodeidError subclasses.

Each strategy mixes raw bytes or text with near-valid documents, so the
examples reach past the first format check into the record-level code.
"""

import json
import struct

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from emodeid.annotations import FORMAT_MARKER, Emotion, load_split_override, parse_annotations
from emodeid.cli import _fixture_tables
from emodeid.errors import EmodeidError, parse_json
from emodeid.pipeline import MODES, parse_judge_reply, read_results
from emodeid.video import SidecarDetector, read_ppm
from emodeid.wavio import read_wav

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

_KEYS = ["video_id", "emotion", "duration_s", "fps", "clips", "class_id", "start_s", "end_s",
         "annotator", "confidence", "frame_index", "x", "y", "w", "h"]
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["positive", "negative", "N9", "N99", "1e999"])
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=4), inner, max_size=5),
    max_leaves=12,
)


def _only_emodeid_errors(call):
    try:
        call()
    except EmodeidError:
        pass


@FUZZ
@given(doc=st.binary() | st.text() | st.builds(
    lambda videos: json.dumps({"format": FORMAT_MARKER, "videos": videos}), _JSON
))
@example(doc=json.dumps({"format": FORMAT_MARKER, "videos": 5}))
@example(doc=b'{"format": "nfbl-annotations/1", "videos": []}\xff')
def test_parse_annotations_raises_only_emodeid_errors(doc):
    _only_emodeid_errors(lambda: parse_annotations(doc))


_BOX = st.fixed_dictionaries(
    {k: st.integers() | st.floats() | st.booleans() | st.text(max_size=3) | st.none()
     for k in ("frame_index", "x", "y", "w", "h")}
)


@FUZZ
@given(body=st.binary() | st.lists(_BOX | _JSON).map(
    lambda recs: "\n".join(json.dumps(r) for r in recs).encode()
))
@example(body=b'{"frame_index": 0, "x": Infinity, "y": 0, "w": 1, "h": 1}')
@example(body=b'{"frame_index": 0, "x": 1, "y": 0, "w": 1, "h": 1}\n\xff\n')
@example(body=b'{"frame_index": 0, "x": 1, "y": 0, "w": true, "h": 1}')
@example(body=b'{"frame_index": 0, "x": "7", "y": 0, "w": 1, "h": 1}')
def test_sidecar_detector_raises_only_emodeid_errors(tmp_path, body):
    path = tmp_path / "boxes.jsonl"
    path.write_bytes(body)
    try:
        SidecarDetector(path)
    except EmodeidError:
        return
    for line in body.splitlines():  # every line it accepts is a box of JSON numbers
        if line.strip():
            rec = json.loads(line)
            assert all(type(rec[k]) in (int, float) for k in ("frame_index", "x", "y", "w", "h"))


_RESULT = st.fixed_dictionaries({
    "video_id": _SCALARS, "mode": _SCALARS | st.sampled_from(list(MODES)),
    "emotion": _SCALARS, "confidence": _SCALARS,
})


@FUZZ
@given(body=st.binary() | st.lists(_RESULT | _JSON).map(
    lambda recs: "\n".join(json.dumps(r) for r in recs).encode()
))
@example(body=b"[" * 100000 + b"]" * 100000)
@example(body=b'{"video_id": "v000", "mode": "v", "emotion": "positive", "confidence": true}')
def test_read_results_raises_only_emodeid_errors(tmp_path, body):
    path = tmp_path / "results.jsonl"
    path.write_bytes(body)
    try:
        records = read_results(path)
    except EmodeidError:
        return
    for rec in records:  # what it accepts is a result record
        Emotion(rec["emotion"])
        assert isinstance(rec["video_id"], str) and rec["mode"] in MODES
        assert type(rec["confidence"]) in (int, float) and 0.0 <= rec["confidence"] <= 10.0


_IDS = st.lists(st.text(max_size=4), max_size=3) | _JSON


@FUZZ
@given(body=st.binary() | st.builds(
    lambda train, test: json.dumps({"train": train, "test": test}).encode(), _IDS, _IDS
))
@example(body=b"\xff")
@example(body=b"[" * 100000 + b"]" * 100000)
@example(body=b'{"train": "v1", "test": ["v2"]}')
def test_load_split_override_raises_only_emodeid_errors(tmp_path, body):
    path = tmp_path / "split.json"
    path.write_bytes(body)
    try:
        ids = load_split_override(path)
    except EmodeidError:
        return
    assert len(ids) == 2  # what it accepts is two lists of id strings
    assert all(type(part) is list and all(type(i) is str for i in part) for part in ids)


_TABLE = st.dictionaries(st.text(max_size=4), _SCALARS, max_size=3) | _JSON


@FUZZ
@given(doc=st.binary() | _JSON.map(json.dumps) | st.builds(
    lambda mllm, judge: json.dumps({"mllm": mllm, "judge": judge}), _TABLE, _TABLE
))
@example(doc=b"{")
@example(doc=b"[1]")
@example(doc='{"mllm": {"k": 1}}')
def test_fixture_tables_raise_only_emodeid_errors(doc):
    try:
        tables = parse_json(doc, _fixture_tables, "fixture file")
    except EmodeidError:
        return
    assert len(tables) == 2  # what it accepts is two tables of strings
    for table in tables:
        assert type(table) is dict
        assert all(type(k) is str and type(v) is str for k, v in table.items())


def _chunk(chunk_id, body):
    return chunk_id + struct.pack("<I", len(body)) + body + bytes(len(body) & 1)


_FMT = st.builds(
    lambda tag, channels, rate, bits: struct.pack(
        "<HHIIHH", tag, channels, rate, rate * channels * bits // 8, channels * bits // 8, bits
    ),
    st.sampled_from([1, 2, 3]), st.integers(0, 3), st.integers(0, 48000), st.sampled_from([8, 16, 32]),
)
_CHUNKS = st.lists(
    st.builds(_chunk, st.just(b"fmt "), _FMT | st.binary(max_size=20))
    | st.builds(_chunk, st.sampled_from([b"data", b"LIST"]), st.binary(max_size=64)),
    max_size=4,
)


@FUZZ
@given(data=st.binary() | st.builds(
    lambda chunks, tail: b"RIFF" + struct.pack("<I", 4 + sum(map(len, chunks)) + len(tail))
    + b"WAVE" + b"".join(chunks) + tail,
    _CHUNKS, st.binary(max_size=12),
))
def test_read_wav_raises_only_emodeid_errors(tmp_path, data):
    path = tmp_path / "a.wav"
    path.write_bytes(data)
    _only_emodeid_errors(lambda: read_wav(path))


@FUZZ
@given(data=st.binary() | st.builds(
    bytes.__add__,
    st.from_regex(rb"\AP6(\s|#[^\n]*\n)+\d{1,3}\s+\d{1,3}\s+\d{1,4}\s", fullmatch=True),
    st.binary(max_size=300),
))
@example(data=b"P6 " + b"9" * 5000 + b" 1 255 ")
def test_read_ppm_raises_only_emodeid_errors(tmp_path, data):
    path = tmp_path / "a.ppm"
    path.write_bytes(data)
    _only_emodeid_errors(lambda: read_ppm(path))


# Letters that re.IGNORECASE matches to the ASCII letters of the two words.
_CASE_VARIANTS = {"s": "sSſ", "i": "iIıİ", "k": "kKK"}
_EMOTION_WORD = st.sampled_from(["positive", "negative"]).flatmap(
    lambda word: st.tuples(
        *(st.sampled_from(_CASE_VARIANTS.get(ch, ch + ch.upper())) for ch in word)
    ).map("".join)
)


@FUZZ
@given(reply=st.text() | st.builds(
    "{}\nEMOTION: {}\nCONFIDENCE: {}\n{}".format,
    st.text(max_size=5), _EMOTION_WORD,
    st.from_regex(r"[-+]?\d+(\.\d+)?", fullmatch=True), st.text(max_size=5),
))
@example(reply="EMOTION: poſitive\nCONFIDENCE: 5")
def test_parse_judge_reply_raises_only_emodeid_errors(reply):
    _only_emodeid_errors(lambda: parse_judge_reply(reply))
