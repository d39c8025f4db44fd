import json
import os
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from emodeid import pipeline
from emodeid.annotations import Emotion, NfblClip, VideoRecord
from emodeid.clients import (
    DIGEST_SCHEME,
    JsonEndpoint,
    MockLlmClient,
    MockMllmClient,
    RemoteLlmClient,
    RemoteMllmClient,
    mllm_request_digest,
    mllm_request_payload,
    request_digest,
)
from emodeid.dsp import AudioSignal, mel_spectrogram
from emodeid.errors import (
    ClientUnavailableError,
    InvalidParamError,
    JudgeParseError,
    ParseError,
)
from emodeid.pipeline import (
    NO_NFBL_LINE,
    DirectoryMediaSource,
    SamplingConfig,
    build_mllm_prompt,
    default_prompts,
    jsonl,
    judge_emotion,
    load_video_inputs,
    mode_request,
    parse_judge_reply,
    read_results,
    run_batch,
    run_pipeline,
    sample_frames_uniform,
    segment_audio,
    write_results,
)
from emodeid.video import RemoteDetector, list_frames, read_ppm, write_ppm
from emodeid.wavio import read_wav, write_wav

from conftest import (
    _corrupt_audio_data,
    _corrupt_audio_rate,
    _corrupt_frame_header,
    make_mock_dataset,
)


def test_sample_frames_long_video():
    indices = sample_frames_uniform(13478, 32)
    assert indices[0] == 210
    assert indices[-1] == 13267
    assert all(0 <= i < 13478 for i in indices)
    assert indices == sorted(indices)


def test_sample_frames_identity_when_equal():
    assert sample_frames_uniform(32, 32) == list(range(32))


def test_sample_frames_short_video_repeats():
    indices = sample_frames_uniform(10, 32)
    assert len(indices) == 32
    assert all(0 <= i < 10 for i in indices)
    assert len(set(indices)) == 10


def test_segment_audio_long_video():
    audio = AudioSignal(np.zeros(int(421.2 * 16000)), 16000)
    clips = segment_audio(audio, 2.0)
    assert len(clips) == 210
    assert all(c.samples.size == 32000 for c in clips)


def test_segment_audio_exact_and_short():
    assert len(segment_audio(AudioSignal(np.zeros(32000), 16000), 2.0)) == 1
    assert segment_audio(AudioSignal(np.zeros(30400), 16000), 2.0) == []
    with pytest.raises(InvalidParamError, match="cannot segment an empty signal"):
        segment_audio(AudioSignal(np.zeros(0), 16000), 2.0)


def test_segment_audio_rejects_a_segment_of_no_samples():
    with pytest.raises(InvalidParamError, match=r"0\.025 s segment is 0 samples at sample rate 20 Hz"):
        segment_audio(AudioSignal(np.zeros(100), 20), 0.025)


def _prompt(clips):
    return build_mllm_prompt(clips, default_prompts().mllm_template)


def test_prompt_zero_clips():
    prompt = _prompt([])
    assert NO_NFBL_LINE in prompt


def test_prompt_renders_clip():
    prompt = _prompt([NfblClip("v", "N9", 12.0, 15.5)])
    assert "Biting nails from 12.0s to 15.5s" in prompt


def test_prompt_sorts_clips_by_start():
    clips = [NfblClip("v", "N5", 20.0, 21.0), NfblClip("v", "N9", 3.0, 4.0)]
    prompt = _prompt(clips)
    assert prompt.index("Biting nails") < prompt.index("Covering face")


def test_prompt_ablation_containment():
    clips = [NfblClip("v", "N9", 1.0, 2.0)]
    without = _prompt([])
    with_nfbl = _prompt(clips)
    base = without.replace(NO_NFBL_LINE, "").strip()
    assert base in with_nfbl


def test_parse_judge_reply():
    assert parse_judge_reply("EMOTION: negative\nCONFIDENCE: 7") == (
        Emotion.NEGATIVE, 7.0, False,
    )
    assert parse_judge_reply("EMOTION: positive\nCONFIDENCE: 9.5") == (
        Emotion.POSITIVE, 9.5, False,
    )
    assert parse_judge_reply("emotion: Positive\nconfidence: 3.25") == (
        Emotion.POSITIVE, 3.25, False,
    )


def test_parse_judge_reply_clamps_out_of_range():
    emotion, confidence, clamped = parse_judge_reply("EMOTION: negative\nCONFIDENCE: 12")
    assert (emotion, confidence, clamped) == (Emotion.NEGATIVE, 10.0, True)


def test_parse_judge_reply_rejects_garbage():
    with pytest.raises(JudgeParseError):
        parse_judge_reply("EMOTION: negative")
    with pytest.raises(JudgeParseError):
        parse_judge_reply("I think they are happy, confidence high")


class ScriptedLlm(MockLlmClient):
    """Returns queued replies in order, regardless of prompt."""

    def __init__(self, replies):
        super().__init__({})
        self.replies = list(replies)
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        return self.replies.pop(0)


def test_judge_retries_once_with_stricter_instruction():
    client = ScriptedLlm(["gibberish", "EMOTION: negative\nCONFIDENCE: 4"])
    emotion, confidence, _ = judge_emotion(
        client, "some description", default_prompts().judge_template
    )
    assert (emotion, confidence) == (Emotion.NEGATIVE, 4.0)
    assert len(client.prompts) == 2
    assert "could not be parsed" in client.prompts[1]


def test_judge_fails_after_retry():
    client = ScriptedLlm(["gibberish", "still gibberish"])
    with pytest.raises(JudgeParseError):
        judge_emotion(client, "some description", default_prompts().judge_template)


def test_request_digest_stable():
    frames = [np.arange(12, dtype=np.uint8).reshape(2, 2, 3)]
    specs = [np.ones((4, 5))]
    a = request_digest(mllm_request_payload("p", frames, specs))
    b = request_digest(mllm_request_payload("p", [f.copy() for f in frames], [s.copy() for s in specs]))
    assert a == b
    c = request_digest(mllm_request_payload("q", frames, specs))
    assert a != c


def test_payload_digest_is_the_mock_replay_key():
    rng = np.random.default_rng(3)
    wide = rng.standard_normal((6, 10))
    frames = [rng.integers(0, 256, (4, 5, 3), dtype=np.uint8)]
    specs = [rng.standard_normal((3, 7)), wide[:, ::2]]  # float64, one non-contiguous
    assert not specs[1].flags.c_contiguous
    key = request_digest(mllm_request_payload("p", frames, specs))
    assert key == mllm_request_digest("p", frames, specs)
    client = MockMllmClient({key: "described"})
    assert client.generate("p", frames, specs) == "described"


def test_request_digest_separates_roles_layouts_and_prompts():
    frame = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
    spec = np.ones((4, 5))
    base = mllm_request_digest("p", [frame], [spec])
    variants = [
        mllm_request_digest("p", [frame, spec], []),  # spectrogram moved to frames
        mllm_request_digest("p", [], [frame, spec]),  # frame moved to spectrograms
        mllm_request_digest("p", [frame.reshape(4, 2, 3)], [spec]),  # same bytes, other shape
        mllm_request_digest("p", [frame.view(np.int8)], [spec]),  # same bytes, other dtype
        mllm_request_digest("p ", [frame], [spec]),  # other prompt
    ]
    assert len({base, *variants}) == 1 + len(variants)


def test_mock_mllm_missing_fixture():
    client = MockMllmClient({})
    with pytest.raises(ClientUnavailableError):
        client.generate("p", [], [])


def test_fixture_miss_names_the_digest_scheme():
    with pytest.raises(ClientUnavailableError, match="no fixture transcript") as err:
        MockMllmClient({}).generate("p", [np.zeros((2, 2, 3), np.uint8)], [])
    assert f"digest scheme {DIGEST_SCHEME}" in str(err.value)
    assert "regenerate fixture files" in str(err.value)


def _request(record, media, config, mode):
    inputs = load_video_inputs(record, media, config, audio=mode != "v")
    return mode_request(record, inputs, mode, default_prompts())


def _run(record, media, config, mllm, judge, mode):
    inputs = load_video_inputs(record, media, config, audio=mode != "v")
    return run_pipeline(record, inputs, mode, mllm, judge, default_prompts())


def _frames_video(root, video_id, count, creation_order=None):
    frames_dir = root / video_id / "frames"
    frames_dir.mkdir(parents=True)
    for k in range(count) if creation_order is None else creation_order:
        arr = np.full((2, 2, 3), k, dtype=np.uint8)
        write_ppm(frames_dir / f"frame_{k:03d}.ppm", arr)
    return VideoRecord(video_id, Emotion.POSITIVE, 10.0, count / 10.0, [])


def test_request_lists_the_frame_directory_once(tmp_path, monkeypatch):
    record = _frames_video(tmp_path, "long", 50)
    globs = []
    real_glob = Path.glob

    def counting_glob(self, pattern, *args, **kwargs):
        globs.append((self, pattern))
        return real_glob(self, pattern, *args, **kwargs)

    monkeypatch.setattr(Path, "glob", counting_glob)
    media = DirectoryMediaSource(tmp_path)
    _, frames, _ = _request(record, media, SamplingConfig(frame_count=32), "v")
    assert globs == [(tmp_path / "long" / "frames", "*.ppm")]
    assert [int(f[0, 0, 0]) for f in frames] == sample_frames_uniform(50, 32)


def test_sampled_frames_are_read_only_rows_of_one_array(tmp_path):
    record = _frames_video(tmp_path, "rows", 10)
    frames, _ = load_video_inputs(record, DirectoryMediaSource(tmp_path), SamplingConfig(4), False)
    stack = frames[0].base
    assert stack.shape == (4, 2, 2, 3) and not stack.flags.writeable
    assert all(f.base is stack and not f.flags.writeable for f in frames)
    assert [int(f[0, 0, 0]) for f in frames] == sample_frames_uniform(10, 4)


def test_stacked_frames_give_the_digest_of_frames_read_one_by_one(mock_dataset):
    records, media, _, _, _ = mock_dataset
    config = SamplingConfig(frame_count=4)
    for record in records:
        prompt, frames, specs = _request(record, media, config, "van")
        paths = list_frames(media.root / record.video_id / "frames")
        one_by_one = [read_ppm(paths[i])
                      for i in sample_frames_uniform(len(paths), config.frame_count)]
        assert mllm_request_digest(prompt, frames, specs) == (
            mllm_request_digest(prompt, one_by_one, specs))


def test_frames_of_two_sizes_keep_their_own_shapes(tmp_path):
    record = _frames_video(tmp_path, "mixed", 4)
    wide = np.arange(2 * 5 * 3, dtype=np.uint8).reshape(2, 5, 3)
    write_ppm(tmp_path / "mixed" / "frames" / "frame_002.ppm", wide)
    frames, _ = load_video_inputs(record, DirectoryMediaSource(tmp_path), SamplingConfig(4), False)
    assert [f.shape for f in frames] == [(2, 2, 3), (2, 2, 3), (2, 5, 3), (2, 2, 3)]
    np.testing.assert_array_equal(frames[2], wide)
    assert [int(f[0, 0, 0]) for f in frames] == [0, 1, 0, 3]
    assert not any(f.flags.writeable for f in frames)


def test_frames_load_in_name_order_whatever_the_creation_order(tmp_path):
    order = np.random.default_rng(7).permutation(40)
    _frames_video(tmp_path, "shuffled", 40, creation_order=order)
    media = DirectoryMediaSource(tmp_path)
    assert media.frame_count("shuffled") == 40
    loaded = [int(media.load_frame("shuffled", k)[0, 0, 0]) for k in range(40)]
    assert loaded == list(range(40))


def test_shared_media_source_under_thread_contention(tmp_path):
    records = [_frames_video(tmp_path, f"v{i}", 12) for i in range(3)]
    media = DirectoryMediaSource(tmp_path)

    def load_all(record):
        return [int(media.load_frame(record.video_id, k)[0, 0, 0]) for k in range(12)]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(load_all, record) for record in records * 8]
            loaded = [f.result(timeout=30) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    assert loaded == [list(range(12))] * len(futures)
    assert all(media.frame_count(r.video_id) == 12 for r in records)


def test_frame_count_is_capped_at_the_video_length(tmp_path):
    record = _frames_video(tmp_path, "short", 6)
    media = DirectoryMediaSource(tmp_path)
    started = time.monotonic()
    _, frames, _ = _request(record, media, SamplingConfig(frame_count=10**8), "v")
    assert time.monotonic() - started < 1.0
    assert [int(f[0, 0, 0]) for f in frames] == list(range(6))


def test_batch_reads_the_prompts_once(mock_dataset, monkeypatch):
    records, media, fixtures, _, _ = mock_dataset
    reads = []
    real = pipeline.default_prompts
    monkeypatch.setattr(pipeline, "default_prompts", lambda: reads.append(1) or real())
    results, _ = run_batch(
        records, media, SamplingConfig(frame_count=4), MockMllmClient(fixtures["mllm"]),
        MockLlmClient(fixtures["judge"]), modes=["van"], workers=2,
    )["van"]
    assert len(results) == len(records)
    assert len(reads) == 1


def test_run_pipeline_deterministic(mock_dataset):
    records, media, fixtures, _, _ = mock_dataset
    config = SamplingConfig(frame_count=4)
    results = []
    for _ in range(2):
        mllm = MockMllmClient(fixtures["mllm"])
        judge = MockLlmClient(fixtures["judge"])
        results.append(_run(records[0], media, config, mllm, judge, "van"))
    assert results[0] == results[1]
    assert results[0]["timing_s"] == 0.0
    assert results[0]["emotion"] == records[0].emotion.value
    assert 0.0 <= results[0]["confidence"] <= 10.0


def test_batch_times_any_client_that_does_not_declare_itself_deterministic(mock_dataset):
    records, media, fixtures, _, _ = mock_dataset
    mock_mllm, mock_judge = MockMllmClient(fixtures["mllm"]), MockLlmClient(fixtures["judge"])

    class PlainMllm:
        """Only ``generate``: no base class and no ``deterministic``."""

        def generate(self, prompt, frames, spectrograms):
            time.sleep(0.02)
            return mock_mllm.generate(prompt, frames, spectrograms)

    class PlainJudge:
        def complete(self, prompt):
            return mock_judge.complete(prompt)

    config = SamplingConfig(frame_count=4)
    started = time.monotonic()
    plain, failed = run_batch(records, media, config, PlainMllm(), PlainJudge(), ["van"],
                              workers=1)["van"]
    elapsed = time.monotonic() - started
    mock, _ = run_batch(records, media, config, mock_mllm, mock_judge, ["van"], workers=1)["van"]
    assert failed == [] and len(plain) == len(records)
    # Each result's timing is its own generate-and-judge wall time.
    assert all(r["timing_s"] >= 0.02 for r in plain)
    assert sum(r["timing_s"] for r in plain) <= elapsed
    assert [r["timing_s"] for r in mock] == [0.0] * len(records)
    assert [dict(r, timing_s=0.0) for r in plain] == mock


def test_video_only_mode_skips_audio(mock_dataset):
    class CountingMllm(MockMllmClient):
        """Replays fixtures and records how many spectrograms each request sends."""

        def __init__(self, fixtures):
            super().__init__(fixtures)
            self.spectrogram_counts = []

        def generate(self, prompt, frames, spectrograms):
            self.spectrogram_counts.append(len(spectrograms))
            return super().generate(prompt, frames, spectrograms)

    records, media, fixtures, _, _ = mock_dataset
    mllm = CountingMllm(fixtures["mllm"])
    judge = MockLlmClient(fixtures["judge"])
    _run(records[0], media, SamplingConfig(frame_count=4), mllm, judge, "v")
    assert mllm.spectrogram_counts == [0]


def test_batch_records_failures_and_continues(mock_dataset, tmp_path):
    records, media, fixtures, _, _ = mock_dataset
    config = SamplingConfig(frame_count=4)
    judge = MockLlmClient(fixtures["judge"])
    # drop v000's van transcript: it must fail without sinking the batch.
    # v000 has an NFBL clip, so its van request differs from its va request.
    broken = dict(fixtures["mllm"])
    del broken[mllm_request_digest(*_request(records[0], media, config, "van"))]
    results, failures = run_batch(
        records, media, config, MockMllmClient(broken), judge, modes=["van"], workers=2
    )["van"]
    assert len(failures) == 1
    failure = failures[0]
    assert (failure["video_id"], failure["mode"]) == ("v000", "van")
    assert "no fixture transcript" in failure["error"]
    assert [r["video_id"] for r in results] == ["v001", "v002"]

    write_results(tmp_path / "out", {"results.jsonl": jsonl(results),
                                     "failures.jsonl": jsonl(failures)})
    back = read_results(tmp_path / "out" / "results.jsonl")
    assert back == results
    lines = (tmp_path / "out" / "failures.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == [failure]


def test_mock_dataset_keeps_first_reply_of_a_shared_request(mock_dataset):
    # v001 has no NFBL clips, so its va and van requests are one request
    records, media, fixtures, _, _ = mock_dataset
    config = SamplingConfig(frame_count=4)
    judge = MockLlmClient(fixtures["judge"])
    texts = {
        mode: _run(
            records[1], media, config, MockMllmClient(fixtures["mllm"]), judge, mode
        )["mllm_text"]
        for mode in ("va", "van")
    }
    assert texts["va"] == texts["van"] == "Descriptive response for v001 in mode va."


def test_mock_dataset_honours_max_segments(tmp_path):
    config = SamplingConfig(frame_count=4, max_segments=1)
    records, media, fixtures, _, _ = make_mock_dataset(tmp_path, sampling=config)
    results, failures = run_batch(
        records, media, config, MockMllmClient(fixtures["mllm"]),
        MockLlmClient(fixtures["judge"]), modes=["va"], workers=1,
    )["va"]
    assert failures == []
    assert [r["emotion"] for r in results] == [r.emotion.value for r in records]


class RecordingMllmClient(MockMllmClient):
    """Records the spectrograms of each request and gives one fixed reply."""

    def __init__(self, reply):
        super().__init__({})
        self.reply, self.spectrograms = reply, []

    def generate(self, prompt, frames, spectrograms):
        self.spectrograms.append(spectrograms)
        return self.reply


def test_capped_segments_come_from_across_the_whole_audio(tmp_path):
    record = _frames_video(tmp_path, "long", 8)
    noise = np.random.default_rng(3).uniform(-0.3, 0.3, 31 * 16000)
    write_wav(tmp_path / "long" / "audio.wav", AudioSignal(noise, 16000))
    media = DirectoryMediaSource(tmp_path)
    every = [mel_spectrogram(seg).values for seg in segment_audio(media.load_audio("long"), 2.0)]
    assert len(every) == 15
    reply = "A calm, steady voice."
    judge_prompt = default_prompts().judge_template.format(response=reply)
    judge = MockLlmClient(
        {MockLlmClient.prompt_digest(judge_prompt): "EMOTION: positive\nCONFIDENCE: 7"})
    mllm = RecordingMllmClient(reply)
    _run(record, media, SamplingConfig(frame_count=4, max_segments=3), mllm, judge, "va")
    [sent] = mllm.spectrograms
    sent_from = [next(i for i, spec in enumerate(every) if np.array_equal(spec, s)) for s in sent]
    # One clip from each third of the 15: segments 0-4, 5-9 and 10-14.
    assert [i // 5 for i in sent_from] == [0, 1, 2]
    assert sent_from == sample_frames_uniform(15, 3)


@pytest.mark.parametrize("mode", ["va", "van"])
def test_audio_shorter_than_one_segment_is_a_failure(mock_dataset, mode):
    # With no spectrogram, v001's request would be its mode-v request and
    # would replay the mode-v answer.
    records, media, fixtures, _, _ = mock_dataset
    write_wav(media.root / "v001" / "audio.wav", AudioSignal(np.zeros(16000), 16000))
    results, failures = run_batch(
        records, media, SamplingConfig(frame_count=4), MockMllmClient(fixtures["mllm"]),
        MockLlmClient(fixtures["judge"]), modes=[mode], workers=1,
    )[mode]
    assert [(f["video_id"], f["mode"]) for f in failures] == [("v001", mode)]
    assert "shorter than one segment" in failures[0]["error"]
    assert [r["video_id"] for r in results] == ["v000", "v002"]


@pytest.mark.parametrize("corrupt", [_corrupt_frame_header, _corrupt_audio_data, _corrupt_audio_rate])
def test_batch_survives_corrupt_media(mock_dataset, corrupt):
    records, media, fixtures, _, _ = mock_dataset
    corrupt(media, "v001")
    results, failures = run_batch(
        records, media, SamplingConfig(frame_count=4),
        MockMllmClient(fixtures["mllm"]), MockLlmClient(fixtures["judge"]),
        modes=["van"], workers=2,
    )["van"]
    assert [(f["video_id"], f["mode"]) for f in failures] == [("v001", "van")]
    assert str(media.root / "v001") in failures[0]["error"]
    assert [r["video_id"] for r in results] == ["v000", "v002"]


def test_all_modes_attribute_media_failures_per_mode(mock_dataset):
    # A corrupt WAV fails only the audio modes, and a corrupt frame every
    # mode, each with the decoder's own message.
    records, media, fixtures, _, _ = mock_dataset
    _corrupt_audio_data(media, "v001")
    _corrupt_frame_header(media, "v002")
    errors = {}
    for vid, read in (("v001", lambda: read_wav(media.root / "v001" / "audio.wav")),
                      ("v002", lambda: media.load_frame("v002", 0))):
        with pytest.raises(ParseError) as err:
            read()
        errors[vid] = str(err.value)
    outcomes = run_batch(
        records, media, SamplingConfig(frame_count=4), MockMllmClient(fixtures["mllm"]),
        MockLlmClient(fixtures["judge"]), workers=2,
    )
    assert list(outcomes) == ["v", "va", "van"]
    assert [r["video_id"] for r in outcomes["v"][0]] == ["v000", "v001"]
    expected = {"v": [("v002", errors["v002"])]}
    for mode in ("va", "van"):
        assert [r["video_id"] for r in outcomes[mode][0]] == ["v000"]
        expected[mode] = [("v001", errors["v001"]), ("v002", errors["v002"])]
    assert {
        mode: [(f["video_id"], f["error"]) for f in failures if f["mode"] == mode]
        for mode, (_, failures) in outcomes.items()
    } == expected


def test_all_modes_attribute_unreadable_media_per_mode(mock_dataset):
    # A missing WAV fails only the audio modes, and a frame that cannot be
    # opened every mode; the rest of the batch goes on.
    records, media, fixtures, _, _ = mock_dataset
    audio = media.root / "v001" / "audio.wav"
    audio.unlink()
    frame = media.root / "v002" / "frames" / "frame_000.ppm"
    frame.unlink()
    frame.mkdir()  # still listed as a frame; reading it raises IsADirectoryError
    outcomes = run_batch(
        records, media, SamplingConfig(frame_count=4), MockMllmClient(fixtures["mllm"]),
        MockLlmClient(fixtures["judge"]), workers=2,
    )
    results, failures = outcomes["v"]
    assert [r["video_id"] for r in results] == ["v000", "v001"]
    assert [(f["video_id"], f["mode"]) for f in failures] == [("v002", "v")]
    assert str(frame) in failures[0]["error"]
    for mode in ("va", "van"):
        results, failures = outcomes[mode]
        assert [r["video_id"] for r in results] == ["v000"]
        assert [(f["video_id"], f["mode"]) for f in failures] == [("v001", mode), ("v002", mode)]
        assert str(audio) in failures[0]["error"]
        assert str(frame) in failures[1]["error"]


def _results(video_id):
    record = {"video_id": video_id, "mode": "van", "mllm_text": "text", "emotion": "positive",
              "confidence": 7.0, "confidence_clamped": False, "timing_s": 0.0}
    return {"results.jsonl": jsonl([record])}


def test_write_results_is_atomic(tmp_path, monkeypatch):
    write_results(tmp_path, _results("v000"))
    before = (tmp_path / "results.jsonl").read_bytes()

    def fail_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail_replace)
    with pytest.raises(OSError, match="disk full"):
        write_results(tmp_path, _results("v001"))
    monkeypatch.undo()
    assert (tmp_path / "results.jsonl").read_bytes() == before
    assert list(tmp_path.glob(".results.jsonl.*")) == []


def test_atomic_path_leaves_creating_the_temp_file_to_the_writer(tmp_path):
    # A writer that reopened an existing empty file with truncation would
    # make ext4 flush the data to disk on close.
    target = tmp_path / "frame.ppm"
    with pipeline.atomic_path(target) as tmp:
        assert tmp.parent == tmp_path and tmp.name.startswith(".frame.ppm.")
        assert not tmp.exists()
        tmp.write_bytes(b"new")
    assert target.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["frame.ppm"]
    with pytest.raises(RuntimeError), pipeline.atomic_path(target):
        raise RuntimeError("writer failed before creating the file")
    assert [p.name for p in tmp_path.iterdir()] == ["frame.ppm"]


_served_paths: list[str] = []
# 200 replies with no usable text (JSON of the wrong shape, a blank text), by path.
_MALFORMED = {"/list": ["not", "an", "object"], "/numeric-text": {"text": 5},
              "/blank": {"text": "  "}}


@pytest.fixture
def inference_server(json_server):
    """A fake model service: /missing is 404, /flaky fails once with 503, /deep
    replies with JSON nested too deeply to decode, and every other path names
    the client that asked; ``_served_paths`` logs it."""
    _served_paths.clear()
    flaky_failures_left = [1]

    def route(path, body):
        _served_paths.append(path)
        if path == "/missing":
            return 404, None
        if path in _MALFORMED:
            return 200, _MALFORMED[path]
        if path == "/deep":
            return 200, b"[" * 100000 + b"]" * 100000
        if path == "/flaky" and flaky_failures_left[0]:
            flaky_failures_left[0] -= 1
            return 503, None
        return 200, {"text": "served: " + ("mllm" if "frames" in body else "judge")}

    return json_server(route)


def test_remote_clients_roundtrip(inference_server):
    frames = [np.zeros((2, 2, 3), dtype=np.uint8)]
    mllm = RemoteMllmClient(inference_server + "/mllm", timeout_s=5.0)
    assert mllm.generate("p", frames, []) == "served: mllm"
    judge = RemoteLlmClient(inference_server + "/judge", timeout_s=5.0)
    assert judge.complete("p") == "served: judge"


def test_remote_client_retries_on_5xx(inference_server):
    client = RemoteLlmClient(
        inference_server + "/flaky", timeout_s=5.0, max_attempts=3, backoff_s=0.01
    )
    assert client.complete("p") == "served: judge"


def test_remote_client_unreachable_after_retries():
    client = RemoteLlmClient(
        "http://127.0.0.1:1/judge", timeout_s=0.2, max_attempts=2, backoff_s=0.01
    )
    with pytest.raises(ClientUnavailableError):
        client.complete("p")


@pytest.mark.parametrize("token", [None, "s3cret"])
def test_remote_clients_post_json_with_a_bearer_token_only_when_given(json_server, token):
    url = json_server(lambda path, body: (200, {"text": "ok"}))
    frames = [np.arange(12, dtype=np.uint8).reshape(2, 2, 3)]
    spectrograms = [np.linspace(-1.0, 1.0, 6).reshape(2, 3)]
    RemoteMllmClient(url + "/mllm", token, timeout_s=5.0).generate("p", frames, spectrograms)
    RemoteLlmClient(url + "/judge", token, timeout_s=5.0).complete("judge é")
    sent = [mllm_request_payload("p", frames, spectrograms), {"prompt": "judge é"}]
    assert [raw for _, raw in json_server.received] == [json.dumps(p).encode() for p in sent]
    for headers, _ in json_server.received:
        assert headers["Content-Type"] == "application/json"
        assert headers["Authorization"] == (f"Bearer {token}" if token else None)


def _stall(path, body):
    time.sleep(0.75)  # past the client's 0.5 s timeout, and before its retry gives up
    return None


@pytest.mark.parametrize(
    "route",
    [lambda path, body: None, lambda path, body: (200, b'{"text": "cut"}', {"Content-Length": 100}), _stall],
    ids=["dropped-connection", "truncated-body", "slower-than-timeout"],
)
def test_endpoint_retries_a_failed_transfer_then_names_its_url(json_server, route):
    url = json_server(route) + "/judge"
    client = RemoteLlmClient(url, timeout_s=0.5, max_attempts=2, backoff_s=0.01)
    with pytest.raises(ClientUnavailableError, match=re.escape(f"{url} unreachable after 2")):
        client.complete("p")
    assert len(json_server.received) == 2


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
@pytest.mark.parametrize("scheme", ["http", "ftp"])
def test_endpoint_follows_no_redirect_and_keeps_its_token(json_server, status, scheme):
    elsewhere = json_server(lambda path, body: (200, {"text": "from elsewhere"}))
    if scheme == "ftp":
        elsewhere = "ftp" + elsewhere[len("http"):]
    url = json_server(lambda path, body: (status, None, {"Location": elsewhere + "/x"})) + "/judge"
    client = RemoteLlmClient(url, "s3cret", timeout_s=5.0, max_attempts=3, backoff_s=0.01)
    with pytest.raises(ClientUnavailableError, match=re.escape(f"{url} returned {status}")):
        client.complete("p")
    # One request, to this URL only: no retry, and the token reached no other server.
    assert [headers["Authorization"] for headers, _ in json_server.received] == ["Bearer s3cret"]


@pytest.mark.parametrize(
    "url", ["localhost:8000/mllm", "file:///etc/hostname", "ftp://127.0.0.1/x", "127.0.0.1:1/x"]
)
def test_endpoint_accepts_only_http_and_https_urls(url):
    with pytest.raises(InvalidParamError, match="http"):
        JsonEndpoint(url)
    with pytest.raises(InvalidParamError, match="http"):
        RemoteDetector(url)
    assert JsonEndpoint("HTTPS://127.0.0.1:1/x").url == "HTTPS://127.0.0.1:1/x"


@pytest.mark.parametrize(
    ("max_attempts", "timeout_s"),
    [(0, 1.0), (-1, 1.0), (3, 0.0), (3, -1.0), (3, float("nan")), (3, float("inf"))],
)
def test_endpoint_rejects_out_of_range_settings(max_attempts, timeout_s):
    with pytest.raises(InvalidParamError):
        JsonEndpoint("http://127.0.0.1:1/x", timeout_s=timeout_s, max_attempts=max_attempts)
    if max_attempts == 3:
        with pytest.raises(InvalidParamError):
            RemoteDetector("http://127.0.0.1:1/detect", timeout_s=timeout_s)


def test_remote_client_does_not_retry_4xx(inference_server):
    client = RemoteLlmClient(
        inference_server + "/missing", timeout_s=5.0, max_attempts=3, backoff_s=0.01
    )
    with pytest.raises(ClientUnavailableError, match="returned 404"):
        client.complete("p")
    assert _served_paths == ["/missing"]


@pytest.mark.parametrize("path", ["/list", "/numeric-text"])
def test_remote_client_rejects_malformed_reply(inference_server, path):
    client = RemoteLlmClient(inference_server + path, timeout_s=5.0, backoff_s=0.01)
    with pytest.raises(ClientUnavailableError, match="returned a (list|int)"):
        client.complete("p")
    assert _served_paths == [path]


def test_batch_records_malformed_reply_per_video(mock_dataset, inference_server):
    records, media, fixtures, _, _ = mock_dataset
    mllm = RemoteMllmClient(inference_server + "/list", timeout_s=5.0)
    results, failures = run_batch(
        records, media, SamplingConfig(frame_count=4), mllm,
        MockLlmClient(fixtures["judge"]), modes=["v"], workers=2,
    )["v"]
    assert results == []
    assert sorted(f["video_id"] for f in failures) == ["v000", "v001", "v002"]
    assert all("not an object" in f["error"] for f in failures)


def test_batch_records_too_deeply_nested_reply_per_video(mock_dataset, inference_server):
    records, media, fixtures, _, _ = mock_dataset
    url = inference_server + "/deep"
    mllm = RemoteMllmClient(url, timeout_s=5.0, backoff_s=0.01)
    results, failures = run_batch(
        records, media, SamplingConfig(frame_count=4), mllm,
        MockLlmClient(fixtures["judge"]), modes=["v"], workers=2,
    )["v"]
    assert results == []
    assert [f["video_id"] for f in failures] == ["v000", "v001", "v002"]
    assert all(f"{url} unreachable after 3 attempts" in f["error"] for f in failures)
    assert _served_paths == ["/deep"] * 9


def test_batch_records_blank_reply_per_video_without_retry(mock_dataset, inference_server):
    records, media, fixtures, _, _ = mock_dataset
    url = inference_server + "/blank"
    mllm = RemoteMllmClient(url, timeout_s=5.0, backoff_s=0.01)
    results, failures = run_batch(
        records, media, SamplingConfig(frame_count=4), mllm,
        MockLlmClient(fixtures["judge"]), modes=["v"], workers=2,
    )["v"]
    assert results == []
    assert [f["video_id"] for f in failures] == ["v000", "v001", "v002"]
    assert all(f["error"] == f"{url} returned an empty response" for f in failures)
    assert _served_paths == ["/blank"] * len(records)


def test_prompt_bundle_validation():
    from emodeid.pipeline import PromptBundle

    with pytest.raises(InvalidParamError):
        PromptBundle("no slot", "{response}")
    with pytest.raises(InvalidParamError):
        PromptBundle("{nfbl_section}", "no slot")
    bundle = default_prompts()
    assert "{nfbl_section}" in bundle.mllm_template
    assert "{response}" in bundle.judge_template
