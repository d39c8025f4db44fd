"""Body-language and emotion-label data model, parsing, statistics, and splits.

Annotation documents are JSON with a version marker::

    {
      "format": "nfbl-annotations/1",
      "videos": [
        {
          "video_id": "v001",
          "emotion": "positive",
          "duration_s": 421.2,
          "fps": 32.0,
          "clips": [
            {"class_id": "N9", "start_s": 12.0, "end_s": 15.5}
          ]
        }
      ]
    }

Clip records may carry optional ``annotator`` and ``confidence`` fields;
they are preserved through a round trip but nothing consumes them.
"""

from __future__ import annotations

import enum
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from .errors import MALFORMED, InvalidParamError, ParseError, parse_json

FORMAT_MARKER = "nfbl-annotations/1"


class Emotion(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


class NfblCategory(enum.Enum):
    SELF_MANIPULATION = "self-manipulation"
    OBJECT_MANIPULATION = "object-manipulation"
    SELF_PROTECTION = "self-protection"


@dataclass(frozen=True)
class NfblClass:
    id: str
    name: str
    category: NfblCategory


_SELF = NfblCategory.SELF_MANIPULATION
_OBJ = NfblCategory.OBJECT_MANIPULATION
_PROT = NfblCategory.SELF_PROTECTION

# Data-driven taxonomy of the 37 body-language classes (N0..N36).
_CLASS_ROWS = [
    ("N0", "Turtle neck", _PROT),
    ("N1", "Bulging face, deep breath", _PROT),
    ("N2", "Touching hat", _OBJ),
    ("N3", "Touching or scratching head", _SELF),
    ("N4", "Touching or scratching forehead", _SELF),
    ("N5", "Covering face", _PROT),
    ("N6", "Rubbing eyes", _PROT),
    ("N7", "Scratching or touching facial parts", _SELF),
    ("N8", "Touching ears", _SELF),
    ("N9", "Biting nails", _SELF),
    ("N10", "Touching jaw", _SELF),
    ("N11", "Touching or scratching neck", _SELF),
    ("N12", "Playing or adjusting hair", _OBJ),
    ("N13", "Buckle button, pulling shirt collar, adjusting tie", _OBJ),
    ("N14", "Touching or covering suprasternal notch", _SELF),
    ("N15", "Scratching back", _SELF),
    ("N16", "Folding arms", _PROT),
    ("N17", "Dustoff clothes", _OBJ),
    ("N18", "Put arms behind body", _OBJ),
    ("N19", "Moving torso", _SELF),
    ("N20", "Sit straightly", _PROT),
    ("N21", "Scratching or touching arms", _SELF),
    ("N22", "Rubbing or holding hands", _PROT),
    ("N23", "Crossing fingers", _PROT),
    ("N24", "Minaret gesture", _PROT),
    ("N25", "Playing with jewelries, and manipulating other objects", _OBJ),
    ("N26", "Hold back arms", _OBJ),
    ("N27", "Head up", _SELF),
    ("N28", "Pressing lips", _SELF),
    ("N29", "Arms akimbo", _PROT),
    ("N30", "Shake double shoulders", _SELF),
    ("N31", "Raising one hand", _SELF),
    ("N32", "Raising both hands", _SELF),
    ("N33", "Touching lips", _SELF),
    ("N34", "Touching nose", _SELF),
    ("N35", "Spreading hands", _PROT),
    ("N36", "Shaking head", _SELF),
]

NFBL_REGISTRY: dict[str, NfblClass] = {
    cid: NfblClass(cid, name, cat) for cid, name, cat in _CLASS_ROWS
}


@dataclass(frozen=True)
class NfblClip:
    video_id: str
    class_id: str
    start_s: float
    end_s: float
    annotator: str | None = None
    confidence: float | None = None

    def __post_init__(self):
        if self.class_id not in NFBL_REGISTRY:
            raise ValueError(f"unknown body-language class: {self.class_id}")
        if not (0.0 <= self.start_s < self.end_s):
            raise ValueError("clip must satisfy 0 <= start_s < end_s")


@dataclass
class VideoRecord:
    video_id: str
    emotion: Emotion
    duration_s: float
    fps: float
    clips: list[NfblClip] = field(default_factory=list)

    def __post_init__(self):
        # NaN fails both comparisons.
        if not (0 < self.duration_s < math.inf and 0 < self.fps < math.inf):
            raise ValueError("duration_s and fps must be positive and finite")
        for clip in self.clips:
            if clip.end_s > self.duration_s:
                raise ValueError(
                    f"clip ends at {clip.end_s}s, past video duration {self.duration_s}s"
                )


def _annotated_videos(doc) -> list:
    """The ``videos`` list of a decoded annotation document."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_MARKER:
        raise ParseError(f"document must declare format {FORMAT_MARKER!r}")
    videos = doc.get("videos", [])
    if not isinstance(videos, list):
        raise ParseError("videos must be a list")
    return videos


def parse_annotations(text: str | bytes) -> list[VideoRecord]:
    """Parse an annotation document (str or bytes); errors carry record context."""
    records = []
    seen = set()
    for idx, video in enumerate(parse_json(text, _annotated_videos, "annotation document")):
        ctx = f"video #{idx}"
        try:
            video_id = str(video["video_id"])
            ctx = f"video {video_id!r}"
            if video_id in seen:
                raise ParseError(f"duplicate video_id ({ctx})")
            seen.add(video_id)
            clips = [
                NfblClip(video_id, str(c["class_id"]), float(c["start_s"]), float(c["end_s"]),
                         annotator=c.get("annotator"), confidence=c.get("confidence"))
                for c in video.get("clips", [])
            ]
            records.append(VideoRecord(video_id, Emotion(str(video["emotion"]).lower()),
                                       float(video["duration_s"]), float(video["fps"]), clips))
        except MALFORMED as exc:
            raise ParseError(f"{exc} ({ctx})")
    return records


def serialize_annotations(records: list[VideoRecord]) -> str:
    """Inverse of parse_annotations, up to JSON formatting."""
    videos = []
    for rec in records:
        clips = []
        for clip in rec.clips:
            entry = {
                "class_id": clip.class_id,
                "start_s": clip.start_s,
                "end_s": clip.end_s,
            }
            if clip.annotator is not None:
                entry["annotator"] = clip.annotator
            if clip.confidence is not None:
                entry["confidence"] = clip.confidence
            clips.append(entry)
        videos.append(
            {
                "video_id": rec.video_id,
                "emotion": rec.emotion.value,
                "duration_s": rec.duration_s,
                "fps": rec.fps,
                "clips": clips,
            }
        )
    return json.dumps({"format": FORMAT_MARKER, "videos": videos}, indent=2)


def load_annotations(path: str | Path) -> list[VideoRecord]:
    """Parse an annotation file; a ParseError also names the file."""
    try:
        return parse_annotations(Path(path).read_bytes())
    except ParseError as exc:
        raise ParseError(f"{exc} ({path})") from None


def nfbl_histogram(records: list[VideoRecord]) -> dict[str, int]:
    """Clip count per class id; classes with no occurrences are present as 0."""
    counts = {cid: 0 for cid in NFBL_REGISTRY}
    for rec in records:
        for clip in rec.clips:
            counts[clip.class_id] += 1
    return counts


@dataclass
class DatasetSummary:
    video_count: int
    clip_count: int
    total_hours: float
    average_minutes: float
    positive_count: int
    negative_count: int

    def format(self) -> str:
        return "\n".join(
            [
                f"Number of videos        {self.video_count}",
                f"Number of annotated NFBL {self.clip_count}",
                f"Total duration (hours)  {self.total_hours:.2f}",
                f"Average duration (mins) {self.average_minutes:.2f}",
                f"Label balance           {self.negative_count} Lost / "
                f"{self.positive_count} Won",
            ]
        )


def dataset_summary(records: list[VideoRecord]) -> DatasetSummary:
    total_s = sum(rec.duration_s for rec in records)
    n = len(records)
    return DatasetSummary(
        video_count=n,
        clip_count=sum(len(rec.clips) for rec in records),
        total_hours=total_s / 3600.0,
        average_minutes=(total_s / n / 60.0) if n else 0.0,
        positive_count=sum(1 for r in records if r.emotion is Emotion.POSITIVE),
        negative_count=sum(1 for r in records if r.emotion is Emotion.NEGATIVE),
    )


def split_dataset(
    records: list[VideoRecord],
    seed: int,
    train_per_class: int = 36,
    test_per_class: int = 37,
) -> tuple[list[VideoRecord], list[VideoRecord]]:
    """Class-balanced random train/test split, deterministic for a given seed."""
    by_class = {Emotion.POSITIVE: [], Emotion.NEGATIVE: []}
    for rec in records:
        by_class[rec.emotion].append(rec)
    need = train_per_class + test_per_class
    for emotion, group in by_class.items():
        if len(group) < need:
            raise InvalidParamError(
                f"need {need} {emotion.value} videos, have {len(group)}"
            )
    rng = random.Random(seed)
    train, test = [], []
    for emotion in (Emotion.NEGATIVE, Emotion.POSITIVE):
        group = sorted(by_class[emotion], key=lambda r: r.video_id)
        rng.shuffle(group)
        train.extend(group[:train_per_class])
        test.extend(group[train_per_class:need])
    train.sort(key=lambda r: r.video_id)
    test.sort(key=lambda r: r.video_id)
    return train, test


def split_from_ids(
    records: list[VideoRecord], train_ids, test_ids
) -> tuple[list[VideoRecord], list[VideoRecord]]:
    """Split by explicit video-ID lists (override of the random split)."""
    train_ids, test_ids = set(train_ids), set(test_ids)
    overlap = train_ids & test_ids
    if overlap:
        raise InvalidParamError(f"ids in both train and test: {sorted(overlap)}")
    by_id = {rec.video_id: rec for rec in records}
    missing = (train_ids | test_ids) - set(by_id)
    if missing:
        raise InvalidParamError(f"unknown video ids: {sorted(missing)}")
    train = sorted((by_id[v] for v in train_ids), key=lambda r: r.video_id)
    test = sorted((by_id[v] for v in test_ids), key=lambda r: r.video_id)
    return train, test


def _split_ids(doc) -> tuple[list[str], list[str]]:
    train, test = doc["train"], doc["test"]
    if not all(isinstance(ids, list) and all(isinstance(i, str) for i in ids)
               for ids in (train, test)):
        raise TypeError("train and test must be lists of video id strings")
    return train, test


def load_split_override(path: str | Path) -> tuple[list[str], list[str]]:
    """Read a split override file: {"train": [...ids], "test": [...ids]}."""
    return parse_json(Path(path).read_bytes(), _split_ids, "split override file", str(path))
