"""Two-stage inference orchestration: multimodal description, then judgment.

Stage 2 feeds uniformly sampled frames, 2-second mel spectrogram clips, and
rendered body-language text to a multimodal model client; stage 3 asks a
text-only judge to turn the descriptive response into a binary emotion plus
a 0-10 confidence score.
"""

from __future__ import annotations

import json
import math
import os
import re
import secrets
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .annotations import NFBL_REGISTRY, Emotion, NfblClip, VideoRecord
from .dsp import STFT_WIN_S, AudioSignal, mel_spectrogram
from .errors import EmodeidError, InvalidParamError, JudgeParseError, parse_json_lines
from .video import list_frames, read_ppm
from .wavio import read_wav

# The ablation modes in table order, each with its row label.
MODES = {"v": "video", "va": "video+audio", "van": "video+audio+nfbl"}

NO_NFBL_LINE = "No notable body language was observed."

# What fails one video, not the batch: bad input or a client error, and a
# media file that cannot be read.
_VIDEO_ERRORS = (EmodeidError, OSError)

_EMOTION_RE = re.compile(r"^\s*EMOTION:\s*(positive|negative)\s*$", re.IGNORECASE | re.MULTILINE)
_CONFIDENCE_RE = re.compile(r"^\s*CONFIDENCE:\s*([-+]?\d+(?:\.\d+)?)\s*$", re.IGNORECASE | re.MULTILINE)

REFORMAT_INSTRUCTION = (
    "\n\nYour previous answer could not be parsed. Answer again using exactly "
    "two lines and nothing else:\nEMOTION: <positive|negative>\n"
    "CONFIDENCE: <number between 0 and 10>"
)


@dataclass(frozen=True)
class SamplingConfig:
    """How many frames and audio segments feed the multimodal model."""

    frame_count: int = 32
    audio_segment_s: float = 2.0
    mel_bins: int = 128
    max_segments: int | None = None

    def __post_init__(self):
        if self.frame_count < 1:
            raise InvalidParamError("frame_count must be at least 1")
        if not STFT_WIN_S <= self.audio_segment_s < math.inf:
            raise InvalidParamError(f"audio_segment_s must be finite and at least {STFT_WIN_S} s")
        if self.mel_bins < 1:
            raise InvalidParamError("mel_bins must be at least 1")
        if self.max_segments is not None and self.max_segments < 1:
            raise InvalidParamError("max_segments must be at least 1")


def default_prompts() -> "PromptBundle":
    base = resources.files("emodeid").joinpath("prompts")
    return PromptBundle(
        mllm_template=base.joinpath("mllm_prompt.txt").read_text(),
        judge_template=base.joinpath("judge_prompt.txt").read_text(),
    )


@dataclass
class PromptBundle:
    """Instruction templates; the judge template has a {response} slot."""

    mllm_template: str
    judge_template: str

    def __post_init__(self):
        if "{nfbl_section}" not in self.mllm_template:
            raise InvalidParamError("mllm template needs an {nfbl_section} slot")
        if "{response}" not in self.judge_template:
            raise InvalidParamError("judge template needs a {response} slot")


def sample_frames_uniform(total_frames: int, m: int) -> list[int]:
    """Segment-center sampling: index_i = floor((i + 0.5) * total / m)."""
    if total_frames < 1 or m < 1:
        raise InvalidParamError("total_frames and m must be at least 1")
    return [int(math.floor((i + 0.5) * total_frames / m)) for i in range(m)]


def segment_audio(audio: AudioSignal, seg_s: float) -> list[AudioSignal]:
    """Consecutive non-overlapping clips of seg_s seconds; remainder dropped."""
    if audio.samples.size == 0:
        raise InvalidParamError("cannot segment an empty signal")
    if seg_s <= 0:
        raise InvalidParamError("segment length must be positive")
    # Capped one sample past the signal, so a huge segment gives no clips
    # instead of an infinite product to round.
    seg = int(round(min(seg_s * audio.sample_rate_hz, audio.samples.size + 1)))
    if seg == 0:
        raise InvalidParamError(
            f"a {seg_s} s segment is 0 samples at sample rate {audio.sample_rate_hz} Hz")
    count = audio.samples.size // seg
    return [
        AudioSignal(audio.samples[i * seg : (i + 1) * seg], audio.sample_rate_hz)
        for i in range(count)
    ]


def render_nfbl_section(clips: list[NfblClip]) -> str:
    """Deterministic text rendering of clips, sorted by start time."""
    if not clips:
        return NO_NFBL_LINE
    lines = ["Observed body language:"]
    for clip in sorted(clips, key=lambda c: (c.start_s, c.end_s, c.class_id)):
        name = NFBL_REGISTRY[clip.class_id].name
        lines.append(f"- {name} from {clip.start_s:.1f}s to {clip.end_s:.1f}s")
    return "\n".join(lines)


def build_mllm_prompt(clips: list[NfblClip], template: str) -> str:
    return template.format(nfbl_section=render_nfbl_section(clips))


def parse_judge_reply(reply: str) -> tuple[Emotion, float, bool]:
    """Parse the two-line answer grammar; confidence clamped into [0, 10]."""
    emotion_m = _EMOTION_RE.search(reply)
    confidence_m = _CONFIDENCE_RE.search(reply)
    if emotion_m is None or confidence_m is None:
        raise JudgeParseError(f"reply does not match the answer grammar: {reply!r}")
    # IGNORECASE also matches letters such as "ſ" that lower() keeps, so the
    # first letter, which has no such variant, names the emotion.
    emotion = Emotion.POSITIVE if emotion_m.group(1)[0] in "pP" else Emotion.NEGATIVE
    raw = float(confidence_m.group(1))
    clamped = not 0.0 <= raw <= 10.0
    return emotion, min(max(raw, 0.0), 10.0), clamped


def judge_emotion(client, mllm_text: str, template: str) -> tuple[Emotion, float, bool]:
    """Judge the descriptive text; one reformat retry before giving up."""
    if not mllm_text.strip():
        raise InvalidParamError("descriptive text is empty")
    prompt = template.format(response=mllm_text)
    try:
        return parse_judge_reply(client.complete(prompt))
    except JudgeParseError:
        return parse_judge_reply(client.complete(prompt + REFORMAT_INSTRUCTION))


class DirectoryMediaSource:
    """De-identified media: <root>/<video_id>/frames/*.ppm (sorted) and audio.wav.

    Each video's frame directory is listed once, on first use, and the
    listing is kept for the lifetime of the source.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._listings: dict[str, list[Path]] = {}

    def _frame_paths(self, video_id: str) -> list[Path]:
        paths = self._listings.get(video_id)
        if paths is None:
            # Threads listing one video at once all keep the first listing.
            listing = list_frames(self.root / video_id / "frames")
            paths = self._listings.setdefault(video_id, listing)
        return paths

    def frame_count(self, video_id: str) -> int:
        return len(self._frame_paths(video_id))

    def load_frame(self, video_id: str, index: int, out: np.ndarray | None = None) -> np.ndarray:
        """Frame ``index`` of a video, read into ``out`` as ``read_ppm`` does."""
        return read_ppm(self._frame_paths(video_id)[index], out)

    def load_audio(self, video_id: str) -> AudioSignal:
        audio, _ = read_wav(self.root / video_id / "audio.wav")
        return audio


def load_video_inputs(record: VideoRecord, media: DirectoryMediaSource, config: SamplingConfig,
                      audio: bool) -> tuple[list, list | Exception | None]:
    """One video's sampled frames and, if ``audio``, mel clips, built once for all its modes;
    when the audio gives no clips, its error stands in for them and each audio mode raises it.

    The frames are read-only rows of one array sized from the first sampled
    frame; a frame of another size keeps an array of its own."""
    total = media.frame_count(record.video_id)
    if total < 1:
        raise InvalidParamError(f"no frames for video {record.video_id}")
    # More frames than the video has would only repeat frames.
    indices = sample_frames_uniform(total, min(config.frame_count, total))
    first = media.load_frame(record.video_id, indices[0])
    stack = np.empty((len(indices), *first.shape), np.uint8)
    stack[0] = first
    rest = [media.load_frame(record.video_id, i, out=row) for i, row in zip(indices[1:], stack[1:])]
    stack.flags.writeable = False
    frames = [stack[0], *rest]
    if not audio:
        return frames, None
    try:
        segments = segment_audio(media.load_audio(record.video_id), config.audio_segment_s)
        if not segments:
            # Without a spectrogram the request would be the mode-v request.
            raise InvalidParamError(f"audio of video {record.video_id} is shorter than one segment")
        if config.max_segments is not None:
            # A cap keeps clips from across the whole video, as frames are sampled.
            keep = sample_frames_uniform(len(segments), min(config.max_segments, len(segments)))
            segments = [segments[i] for i in keep]
        specs = [mel_spectrogram(seg, bins=config.mel_bins).values for seg in segments]
    except _VIDEO_ERRORS as exc:
        specs = exc
    return frames, specs


def mode_request(record: VideoRecord, inputs: tuple, mode: str, prompts: PromptBundle) -> tuple:
    """The prompt, frames and mel clips that one mode sends for a video."""
    frames, spectrograms = inputs
    if mode == "v":
        spectrograms = []
    elif isinstance(spectrograms, _VIDEO_ERRORS):
        raise spectrograms
    clips = record.clips if mode == "van" else []
    return build_mllm_prompt(clips, prompts.mllm_template), frames, spectrograms


def run_pipeline(record: VideoRecord, inputs: tuple, mode: str, mllm, judge,
                 prompts: PromptBundle) -> dict:
    """End-to-end inference for one video in one ablation mode, on the
    ``inputs`` that ``load_video_inputs`` built for it. Returns the result
    record: the judged emotion and confidence plus the descriptive text they
    rest on, as a ``results.jsonl`` line holds it and ``read_results`` reads it."""
    if mode not in MODES:
        raise InvalidParamError(f"mode must be one of {tuple(MODES)}")
    started = time.monotonic()
    text = mllm.generate(*mode_request(record, inputs, mode, prompts))
    emotion, confidence, clamped = judge_emotion(judge, text, prompts.judge_template)

    # Deterministic (mock) runs report zero timing so result files are
    # byte-identical across reruns; a client without the attribute is not.
    deterministic = getattr(mllm, "deterministic", False) and getattr(judge, "deterministic", False)
    timing = 0.0 if deterministic else time.monotonic() - started
    return {"video_id": record.video_id, "mode": mode, "mllm_text": text,
            "emotion": emotion.value, "confidence": confidence,
            "confidence_clamped": clamped, "timing_s": timing}


def run_batch(records: list[VideoRecord], media: DirectoryMediaSource, config: SamplingConfig,
              mllm, judge, modes=MODES, *, workers: int) -> dict[str, tuple[list[dict], list[dict]]]:
    """``{mode: (results, failures)}``: each (video, mode) pair yields one
    result record or one failure record. A pool task per video builds its
    inputs once and runs every mode on them; the pool maps over the videos in
    id order, so the lists do not depend on completion order."""
    prompts = default_prompts()
    audio = any(mode != "v" for mode in modes)

    def attempt(record: VideoRecord, mode: str, inputs):
        try:
            if isinstance(inputs, _VIDEO_ERRORS):
                raise inputs
            return run_pipeline(record, inputs, mode, mllm, judge, prompts)
        except _VIDEO_ERRORS as exc:
            return {"video_id": record.video_id, "mode": mode, "error": str(exc)}

    def one(record: VideoRecord):
        try:
            inputs = load_video_inputs(record, media, config, audio)
        except _VIDEO_ERRORS as exc:
            inputs = exc
        return [attempt(record, mode, inputs) for mode in modes]

    outcomes = {mode: ([], []) for mode in modes}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for items in pool.map(one, sorted(records, key=lambda r: r.video_id)):
            for mode, item in zip(modes, items):
                results, failures = outcomes[mode]
                (failures if "error" in item else results).append(item)
    return outcomes


@contextmanager
def atomic_path(path: str | Path):
    """Yield a fresh temporary sibling path that replaces ``path`` on success.

    The caller's writer creates the temporary file. Creating it here and
    letting the writer reopen it with truncation would trip ext4's
    replace-via-truncate heuristic (``auto_da_alloc``), which flushes the
    file to disk when it is closed: one synchronous disk write per output.
    On error the temporary file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def jsonl(records: list[dict]) -> str:
    """One JSON record per line, keys sorted, as ``read_results`` reads them."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def write_results(out_dir: str | Path, files: dict[str, str | None]) -> None:
    """The one writer of a run directory: each text of ``files``, keyed by its
    path under ``out_dir``, is written atomically, and each path mapped to
    None is removed, so no file of an earlier run is left beside new ones."""
    for name, text in files.items():
        path = Path(out_dir, name)
        if text is None:
            path.unlink(missing_ok=True)
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_path(path) as tmp:
            tmp.write_text(text, encoding="utf-8")


def _result_record(rec) -> dict:
    Emotion(rec["emotion"])
    if not isinstance(rec["video_id"], str):
        raise TypeError("video_id must be a string")
    if rec["mode"] not in MODES:
        raise ValueError(f"mode must be one of {tuple(MODES)}, not {rec['mode']!r}")
    confidence = rec["confidence"]
    # bool is an int, and NaN fails every comparison.
    if isinstance(confidence, bool) or not (
        isinstance(confidence, (int, float)) and 0.0 <= confidence <= 10.0
    ):
        raise ValueError(f"confidence must be a number in [0, 10], not {confidence!r}")
    return rec


def read_results(path: str | Path) -> list[dict]:
    """The records of a results.jsonl file; a line that is not a result record
    (string video_id, a mode of MODES, known emotion, a confidence in [0, 10]
    as ``parse_judge_reply`` gives) raises ParseError."""
    return parse_json_lines(path, _result_record, "result record")
