import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emodeid.annotations import (
    NFBL_REGISTRY,
    Emotion,
    NfblCategory,
    NfblClip,
    VideoRecord,
    dataset_summary,
    load_split_override,
    nfbl_histogram,
    parse_annotations,
    serialize_annotations,
    split_dataset,
    split_from_ids,
)
from emodeid.errors import InvalidParamError, ParseError


def make_records(n_positive, n_negative, clips_per_video=0, duration_s=60.0):
    records = []
    for i in range(n_positive + n_negative):
        emotion = Emotion.POSITIVE if i < n_positive else Emotion.NEGATIVE
        vid = f"v{i:04d}"
        clips = [
            NfblClip(vid, "N9", float(k), float(k) + 0.5)
            for k in range(clips_per_video)
        ]
        records.append(VideoRecord(vid, emotion, duration_s, 32.0, clips))
    return records


def test_registry_has_exactly_37_classes():
    assert len(NFBL_REGISTRY) == 37
    assert set(NFBL_REGISTRY) == {f"N{i}" for i in range(37)}
    assert NFBL_REGISTRY["N3"].name == "Touching or scratching head"
    assert NFBL_REGISTRY["N9"].name == "Biting nails"
    assert NFBL_REGISTRY["N24"].name == "Minaret gesture"
    assert NFBL_REGISTRY["N24"].category is NfblCategory.SELF_PROTECTION
    assert NFBL_REGISTRY["N9"].category is NfblCategory.SELF_MANIPULATION
    assert NFBL_REGISTRY["N17"].category is NfblCategory.OBJECT_MANIPULATION


def test_clip_validation():
    with pytest.raises(ValueError, match="unknown body-language class: N99"):
        NfblClip("v", "N99", 0.0, 1.0)
    with pytest.raises(ValueError):
        NfblClip("v", "N9", 2.0, 2.0)
    with pytest.raises(ValueError):
        NfblClip("v", "N9", -1.0, 1.0)


def test_record_rejects_clip_past_duration():
    with pytest.raises(ValueError):
        VideoRecord("v", Emotion.POSITIVE, 10.0, 32.0, [NfblClip("v", "N9", 5.0, 11.0)])


def test_round_trip():
    records = make_records(2, 1, clips_per_video=3)
    records[0].clips[0] = NfblClip("v0000", "N5", 0.0, 1.0, annotator="a1", confidence=0.9)
    text = serialize_annotations(records)
    back = parse_annotations(text)
    assert serialize_annotations(back) == text
    assert back[0].clips[0].annotator == "a1"


def test_empty_clip_list_is_valid():
    records = parse_annotations(
        json.dumps(
            {
                "format": "nfbl-annotations/1",
                "videos": [
                    {"video_id": "a", "emotion": "negative", "duration_s": 5.0,
                     "fps": 32.0, "clips": []}
                ],
            }
        )
    )
    assert records[0].clips == []


def test_parse_rejects_zero_length_clip():
    doc = {
        "format": "nfbl-annotations/1",
        "videos": [
            {"video_id": "a", "emotion": "negative", "duration_s": 5.0, "fps": 32.0,
             "clips": [{"class_id": "N9", "start_s": 1.0, "end_s": 1.0}]}
        ],
    }
    with pytest.raises(ParseError, match="video 'a'"):
        parse_annotations(json.dumps(doc))


def test_parse_rejects_unknown_class():
    doc = {
        "format": "nfbl-annotations/1",
        "videos": [
            {"video_id": "a", "emotion": "negative", "duration_s": 5.0, "fps": 32.0,
             "clips": [{"class_id": "N99", "start_s": 1.0, "end_s": 2.0}]}
        ],
    }
    with pytest.raises(ParseError, match=r"^unknown body-language class: N99 \(video 'a'\)$"):
        parse_annotations(json.dumps(doc))


def test_parse_rejects_bad_format_marker():
    with pytest.raises(ParseError):
        parse_annotations('{"format": "other", "videos": []}')


def test_parse_error_carries_line_context():
    with pytest.raises(ParseError, match="line"):
        parse_annotations("{not json")


def test_histogram_empty():
    hist = nfbl_histogram([])
    assert set(hist) == set(NFBL_REGISTRY)
    assert all(v == 0 for v in hist.values())


def test_histogram_single_clip():
    records = [
        VideoRecord("v", Emotion.POSITIVE, 10.0, 32.0, [NfblClip("v", "N9", 0.0, 1.0)])
    ]
    hist = nfbl_histogram(records)
    assert hist["N9"] == 1
    assert sum(hist.values()) == 1


def test_histogram_counts_sum_to_clip_count():
    records = make_records(3, 2, clips_per_video=4)
    hist = nfbl_histogram(records)
    assert sum(hist.values()) == sum(len(r.clips) for r in records)


def test_summary_single_minute_video():
    summary = dataset_summary(make_records(1, 0, duration_s=60.0))
    assert summary.video_count == 1
    assert summary.total_hours == pytest.approx(1 / 60)
    assert summary.average_minutes == pytest.approx(1.0)


def test_summary_label_balance():
    summary = dataset_summary(make_records(201, 74))
    assert summary.positive_count == 201
    assert summary.negative_count == 74
    assert "74 Lost / 201 Won" in summary.format()


def test_split_default_sizes():
    records = make_records(80, 80)
    train, test = split_dataset(records, seed=7)
    assert len(train) == 72 and len(test) == 74
    for part, per_class in ((train, 36), (test, 37)):
        assert sum(1 for r in part if r.emotion is Emotion.POSITIVE) == per_class
        assert sum(1 for r in part if r.emotion is Emotion.NEGATIVE) == per_class
    assert not {r.video_id for r in train} & {r.video_id for r in test}


def test_split_deterministic():
    records = make_records(90, 90)
    a = split_dataset(records, seed=123)
    b = split_dataset(records, seed=123)
    assert [r.video_id for r in a[0]] == [r.video_id for r in b[0]]
    assert [r.video_id for r in a[1]] == [r.video_id for r in b[1]]
    c = split_dataset(records, seed=124)
    assert [r.video_id for r in a[0]] != [r.video_id for r in c[0]]


def test_split_insufficient_data():
    with pytest.raises(InvalidParamError, match="need 73 positive videos, have 40"):
        split_dataset(make_records(40, 20), seed=0)


def test_split_from_ids_and_override_file(tmp_path):
    records = make_records(2, 2)
    path = tmp_path / "override.json"
    path.write_text(json.dumps({"train": ["v0000", "v0002"], "test": ["v0001"]}))
    train_ids, test_ids = load_split_override(path)
    train, test = split_from_ids(records, train_ids, test_ids)
    assert [r.video_id for r in train] == ["v0000", "v0002"]
    assert [r.video_id for r in test] == ["v0001"]
    with pytest.raises(InvalidParamError, match="ids in both train and test"):
        split_from_ids(records, ["v0000"], ["v0000"])
    with pytest.raises(InvalidParamError, match=r"unknown video ids: \['nope'\]"):
        split_from_ids(records, ["nope"], ["v0001"])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(sorted(NFBL_REGISTRY)),
            st.floats(0.0, 50.0, allow_nan=False),
            st.floats(0.1, 9.9, allow_nan=False),
        ),
        max_size=20,
    )
)
def test_round_trip_property(clip_specs):
    clips = [
        NfblClip("v", cid, start, start + length)
        for cid, start, length in clip_specs
    ]
    records = [VideoRecord("v", Emotion.NEGATIVE, 100.0, 32.0, clips)]
    text = serialize_annotations(records)
    assert serialize_annotations(parse_annotations(text)) == text
