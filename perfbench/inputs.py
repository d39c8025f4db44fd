"""Seeded inputs for the benchmark workloads.

Every builder takes a fresh directory and a ``numpy.random.Generator`` and
returns a manifest: a JSON-able dict naming the stage-1 inputs (WAV files to
anonymize, frame directories to mask with their box sidecars) and the
stage-2 dataset (annotations, media root, mock fixtures and the labels the
results must reproduce).

Mock fixture keys are computed here by the code under test
(``clients.request_digest`` / ``MockLlmClient.prompt_digest`` or
``synthetic.make_mock_dataset``), never stored in the repository, so a change
to the digest scheme still replays.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
from scipy import signal as sps

from emodeid.annotations import Emotion, NfblClip, VideoRecord, serialize_annotations
from emodeid.clients import MockLlmClient, mllm_request_payload, request_digest
from emodeid.dsp import AudioSignal, mel_spectrogram
from emodeid.pipeline import (
    SamplingConfig,
    build_mllm_prompt,
    default_prompts,
    sample_frames_uniform,
    segment_audio,
)
from emodeid.synthetic import make_mock_dataset
from emodeid.video import FrameImage, write_ppm
from emodeid.wavio import read_wav, write_wav

RATE_HZ = 16000
WIDTH, HEIGHT = 640, 360


def speech_like(rng: np.random.Generator, seconds: float) -> np.ndarray:
    """Voiced syllables (glottal pulse train through three formant
    resonators), each followed by an exact-zero pause a quarter of its
    length: 20% of the signal is silence, so LPC analysis sees both voiced
    and all-zero frames, in the same proportion for every seed."""
    n = int(round(seconds * RATE_HZ))
    out = np.zeros(n)
    pos = 0
    while pos < n:
        length = int(rng.uniform(0.15, 0.35) * RATE_HZ)
        f0 = rng.uniform(90.0, 220.0) * np.linspace(1.0, rng.uniform(0.85, 1.15), length)
        phase = np.cumsum(f0 / RATE_HZ)
        pulses = np.diff(np.floor(phase), prepend=0.0)
        voiced = pulses + 0.02 * rng.standard_normal(length)
        for lo, hi in ((300.0, 900.0), (900.0, 2500.0), (2400.0, 3400.0)):
            freq, bw = rng.uniform(lo, hi), rng.uniform(80.0, 160.0)
            r = np.exp(-np.pi * bw / RATE_HZ)
            voiced = sps.lfilter([1.0 - r], [1.0, -2.0 * r * np.cos(2 * np.pi * freq / RATE_HZ), r * r], voiced)
        voiced *= np.hanning(length)
        voiced *= rng.uniform(0.25, 0.5) / max(np.max(np.abs(voiced)), 1e-12)
        stop = min(pos + length, n)
        out[pos:stop] = voiced[: stop - pos]
        pos = stop + length // 4
    return out


def random_frame(rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 256, (HEIGHT, WIDTH, 3), dtype=np.uint8)


def write_boxes(path: Path, boxes: list[dict]) -> None:
    path.write_text("".join(json.dumps(b, sort_keys=True) + "\n" for b in boxes))


# Face sides in pixels. Blur cost grows with the cube of a box's side, so
# sizes follow a fixed schedule by frame index (frame 0 is 96x96) and only
# positions come from the seed: every seed then asks for the same blur work.
FACE_SIDES = (64, 72, 80, 88, 96, 104, 112, 120, 128)


def face_boxes(rng: np.random.Generator, count: int) -> list[dict]:
    """One face box of 64 to 128 pixels a side per frame, inside the frame."""
    boxes = []
    for k in range(count):
        w = FACE_SIDES[(4 + k) % len(FACE_SIDES)]
        h = FACE_SIDES[(4 + 2 * k) % len(FACE_SIDES)]
        x, y = int(rng.integers(0, WIDTH - w + 1)), int(rng.integers(0, HEIGHT - h + 1))
        boxes.append({"frame_index": k, "x": x, "y": y, "w": w, "h": h})
    return boxes


def _write_clip(clip_dir: Path, rng, audio: np.ndarray, frames: list[np.ndarray]) -> dict:
    """One stage-1 input: a PCM16 WAV plus a frame directory and box sidecar."""
    (clip_dir / "frames").mkdir(parents=True)
    write_wav(clip_dir / "audio.wav", AudioSignal(audio, RATE_HZ))
    for k, arr in enumerate(frames):
        write_ppm(clip_dir / "frames" / f"frame_{k:05d}.ppm", FrameImage.from_array(arr))
    write_boxes(clip_dir / "boxes.jsonl", face_boxes(rng, len(frames)))
    return {"wav": str(clip_dir / "audio.wav"), "frames_dir": str(clip_dir / "frames"),
            "boxes": str(clip_dir / "boxes.jsonl"), "frames": len(frames)}


def _mllm_fixture(video_id, clips, mode, frames, audio, sampling, prompts, mllm_fix, judge_fix, emotion):
    """Register the request the pipeline will make for one (video, mode)."""
    specs = []
    if mode != "v":
        segments = segment_audio(audio, sampling.audio_segment_s)
        if sampling.max_segments is not None:
            segments = segments[: sampling.max_segments]
        specs = [mel_spectrogram(s, bins=sampling.mel_bins).values for s in segments]
    prompt = build_mllm_prompt(clips if mode == "van" else [], template=prompts.mllm_template)
    text = f"Descriptive response for {video_id} in mode {mode}."
    mllm_fix[request_digest(mllm_request_payload(prompt, frames, specs))] = text
    judge_key = MockLlmClient.prompt_digest(prompts.judge_template.format(response=text))
    judge_fix[judge_key] = f"EMOTION: {emotion.value}\nCONFIDENCE: 7.5"


def _write_dataset(root: Path, records, mllm_fix, judge_fix) -> dict:
    (root / "annotations.json").write_text(serialize_annotations(records))
    (root / "fixtures.json").write_text(json.dumps({"mllm": mllm_fix, "judge": judge_fix}))
    return {
        "annotations": str(root / "annotations.json"),
        "media": str(root / "media"),
        "fixtures": str(root / "fixtures.json"),
        "labels": {r.video_id: r.emotion.value for r in records},
    }


DEID_VIDEOS = 6
DEID_AUDIO_S = 2.0
DEID_FRAMES = 8


def build_deidentify(root: Path, rng) -> dict:
    """Six short videos: 2 s of speech and 8 frames of 640x360, one face per
    frame. Short inputs give many operations per run, so each command is
    sampled across the whole run.

    Stage 1 runs on every video. Stage 2 runs the video-only mode over the
    same media, so no audio feature code runs in this workload.
    """
    sampling = SamplingConfig(frame_count=4)
    prompts = default_prompts()
    clips, records, mllm_fix, judge_fix = [], [], {}, {}
    for i in range(DEID_VIDEOS):
        vid = f"d{i:03d}"
        frames = [random_frame(rng) for _ in range(DEID_FRAMES)]
        clips.append(_write_clip(root / "media" / vid, rng, speech_like(rng, DEID_AUDIO_S), frames))
        emotion = Emotion.POSITIVE if i % 2 == 0 else Emotion.NEGATIVE
        records.append(VideoRecord(vid, emotion, DEID_AUDIO_S, DEID_FRAMES / DEID_AUDIO_S,
                                   [NfblClip(vid, "N9", 0.5, 1.5)]))
        picked = [frames[k] for k in sample_frames_uniform(len(frames), sampling.frame_count)]
        _mllm_fixture(vid, records[-1].clips, "v", picked, None, sampling, prompts,
                      mllm_fix, judge_fix, emotion)
    pipeline = _write_dataset(root, records, mllm_fix, judge_fix)
    pipeline.update(modes=["v"], frame_count=sampling.frame_count, evaluate=False)
    return {"clips": clips, "pipeline": pipeline}


LONG_VIDEOS = 2
LONG_FRAMES = 3000
LONG_AUDIO_S = 120.0


def build_pipeline_long(root: Path, rng) -> dict:
    """Two paper-scale videos: 3000 frames of 640x360 and 120 s of audio.

    Only the 32 frames the pipeline samples hold distinct pixels; every other
    frame file is a hard link to one filler frame. Listing cost depends on
    the number of entries and the request digest only on the sampled bytes,
    so this keeps the tree at about 25 MB per video without changing either.
    Stage 1 runs on short excerpts (2 s of audio, 8 sampled frames).
    """
    sampling = SamplingConfig(frame_count=32)
    prompts = default_prompts()
    clips, records, mllm_fix, judge_fix = [], [], {}, {}
    filler = root / "filler.ppm"
    root.mkdir(parents=True, exist_ok=True)
    write_ppm(filler, FrameImage.from_array(random_frame(rng)))
    for i in range(LONG_VIDEOS):
        vid = f"l{i:03d}"
        frames_dir = root / "media" / vid / "frames"
        frames_dir.mkdir(parents=True)
        sampled = sample_frames_uniform(LONG_FRAMES, sampling.frame_count)
        picked = {k: random_frame(rng) for k in sampled}
        for k in range(LONG_FRAMES):
            path = frames_dir / f"frame_{k:05d}.ppm"
            if k in picked:
                write_ppm(path, FrameImage.from_array(picked[k]))
            else:
                os.link(filler, path)
        samples = speech_like(rng, LONG_AUDIO_S)
        write_wav(root / "media" / vid / "audio.wav", AudioSignal(samples, RATE_HZ))
        # The pipeline decodes the PCM16 file, so the fixture must too.
        audio, _ = read_wav(root / "media" / vid / "audio.wav")
        emotion = Emotion.POSITIVE if i % 2 == 0 else Emotion.NEGATIVE
        nfbl = [NfblClip(vid, "N9", 10.0, 14.5), NfblClip(vid, "N3", 40.0, 42.0)]
        records.append(VideoRecord(vid, emotion, LONG_AUDIO_S, LONG_FRAMES / LONG_AUDIO_S, nfbl))
        _mllm_fixture(vid, nfbl, "van", [picked[k] for k in sampled], audio, sampling,
                      prompts, mllm_fix, judge_fix, emotion)
        excerpt = [picked[k] for k in sampled[:DEID_FRAMES]]
        clips.append(_write_clip(root / "deid" / vid, rng,
                                 samples[: int(DEID_AUDIO_S * RATE_HZ)], excerpt))
    pipeline = _write_dataset(root, records, mllm_fix, judge_fix)
    pipeline.update(modes=["van"], frame_count=sampling.frame_count, evaluate=False)
    return {"clips": clips, "pipeline": pipeline}


MANY_VIDEOS = 100
MANY_DEID_CLIPS = 4


def build_ablation_many(root: Path, rng) -> dict:
    """``make_mock_dataset`` with 100 tiny videos (6 frames of 8x8, 4 s of
    audio), all three modes. Stage 1 anonymizes the audio of the first four
    videos and masks 8 frames of 640x360 beside each: masking 8x8 frames
    would time little but the file system's create and rename calls, whose
    cost on a shared disk varies far more than the computation."""
    seed = int(rng.integers(0, 2**31))
    records, _, _, ann_path, fix_path = make_mock_dataset(
        root, n_videos=MANY_VIDEOS, frames_per_video=6,
        sampling=SamplingConfig(frame_count=4), seed=seed,
    )
    clips = []
    for rec in records[:MANY_DEID_CLIPS]:
        audio, _ = read_wav(root / "media" / rec.video_id / "audio.wav")
        frames = [random_frame(rng) for _ in range(DEID_FRAMES)]
        clips.append(_write_clip(root / "deid" / rec.video_id, rng, audio.samples, frames))
    pipeline = {
        "annotations": str(ann_path),
        "media": str(root / "media"),
        "fixtures": str(fix_path),
        "labels": {r.video_id: r.emotion.value for r in records},
        "modes": ["v", "va", "van"],
        "frame_count": 4,
        "evaluate": True,
    }
    return {"clips": clips, "pipeline": pipeline}


BUILDERS = {
    "deidentify": build_deidentify,
    "pipeline_long": build_pipeline_long,
    "ablation_many": build_ablation_many,
}
