"""Synthetic dataset builder for offline, fully deterministic pipeline runs.

Generates a small media tree (PPM frames plus a WAV track per video), a
matching annotation file, and a mock fixture file whose canned replies make
the judge reproduce each video's true label. Used by the test suite and by
the runnable scripts; no external services or real media required.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .annotations import Emotion, NfblClip, VideoRecord, serialize_annotations
from .clients import MockLlmClient, mllm_request_digest
from .dsp import AudioSignal
from .pipeline import (
    MODES,
    DirectoryMediaSource,
    SamplingConfig,
    default_prompts,
    load_video_inputs,
    mode_request,
)
from .video import write_ppm
from .wavio import write_wav


def make_mock_dataset(
    root: str | Path,
    n_videos: int = 3,
    frames_per_video: int = 6,
    sampling: SamplingConfig | None = None,
    seed: int = 0,
):
    """Synthetic media tree + annotations + mock fixture transcripts.

    Returns (records, media, fixtures dict, annotations path, fixtures path).
    Fixture replies are wired so the judge reproduces each video's true label.
    """
    root = Path(root)
    sampling = sampling or SamplingConfig(frame_count=4)
    rng = np.random.default_rng(seed)
    media_root = root / "media"
    prompts = default_prompts()
    records = []
    mllm_fix, judge_fix = {}, {}
    for i in range(n_videos):
        vid = f"v{i:03d}"
        frames_dir = media_root / vid / "frames"
        frames_dir.mkdir(parents=True)
        for k in range(frames_per_video):
            arr = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
            write_ppm(frames_dir / f"frame_{k:03d}.ppm", arr)
        write_wav(
            media_root / vid / "audio.wav",
            AudioSignal(rng.uniform(-0.3, 0.3, 16000 * 4 + 1000), 16000),
        )
        emotion = Emotion.POSITIVE if i % 2 == 0 else Emotion.NEGATIVE
        clips = [NfblClip(vid, "N9", 1.0, 2.5)] if i != 1 else []
        records.append(VideoRecord(vid, emotion, 10.0, 32.0, clips))

    media = DirectoryMediaSource(media_root)
    for rec in records:
        inputs = load_video_inputs(rec, media, sampling, audio=True)
        for mode in MODES:
            key = mllm_request_digest(*mode_request(rec, inputs, mode, prompts))
            # A video without clips (v001) makes the same request in va and
            # van; one request has one reply, so the first mode's text stays.
            text = mllm_fix.setdefault(
                key, f"Descriptive response for {rec.video_id} in mode {mode}."
            )
            judge_prompt = prompts.judge_template.format(response=text)
            judge_fix[MockLlmClient.prompt_digest(judge_prompt)] = (
                f"EMOTION: {rec.emotion.value}\nCONFIDENCE: 7.5"
            )

    ann_path = root / "annotations.json"
    ann_path.write_text(serialize_annotations(records))
    fixtures = {"mllm": mllm_fix, "judge": judge_fix}
    fix_path = root / "fixtures.json"
    fix_path.write_text(json.dumps(fixtures))
    return records, media, fixtures, ann_path, fix_path
