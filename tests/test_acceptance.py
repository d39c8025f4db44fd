"""Acceptance gate: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Each test prints "PASS <criterion>" on success; a failure surfaces
as a normal pytest failure for that criterion.
"""

import time
from fractions import Fraction

import numpy as np

from emodeid.annotations import (
    Emotion,
    VideoRecord,
    parse_annotations,
    serialize_annotations,
    split_dataset,
)
from emodeid.anonymize import AnonymizationParams, anonymize_mcadams, warp_pole_angles
from emodeid.cli import main
from emodeid.dsp import (
    AudioSignal,
    _check_conjugate_closed,
    FrameParams,
    lpc_levinson,
    lpc_residual,
    mel_spectrogram,
    poles_to_coeffs,
    poly_roots,
    synthesize,
)
from emodeid.metrics import evaluate
from emodeid.video import FaceBox, mask_frames

from conftest import ar_signal, make_mock_dataset, speech_like_poles
from test_dsp_roots import match_roots


def _report(line):
    print(f"\nPASS {line}")


def test_mcadams_identity_at_lambda_one():
    """Anonymization with a unit warping exponent is the identity map."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    params = AnonymizationParams(frame=FrameParams(), mcadams_lambda=1.0)
    signals = []
    for _ in range(10):
        n = int(rng.uniform(1.0, 30.0) * 16000)
        signals.append(rng.standard_normal(n) * 0.2)
    for k in range(3):
        n = int(rng.uniform(1.0, 30.0) * 16000)
        signals.append(ar_signal(rng, n, speech_like_poles()))
    worst = 0.0
    for x in signals:
        audio = AudioSignal(x, 16000)
        y = anonymize_mcadams(audio, params)
        err = np.linalg.norm(y.samples - x) / np.linalg.norm(x)
        worst = max(worst, err)
        assert err < 1e-4, f"identity error {err:.3e}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    _report(
        "mcadams identity: 10 random + 3 speech-like signals, "
        f"worst rel-L2 {worst:.2e} < 1e-4 in {elapsed:.1f} s"
    )


def _random_conjugate_closed(rng, max_pairs=6):
    pairs = rng.integers(1, max_pairs + 1)
    mags = rng.uniform(0.1, 0.99, pairs)
    angs = rng.uniform(1e-3, np.pi - 1e-3, pairs)
    upper = mags * np.exp(1j * angs)
    poles = np.concatenate([upper, np.conj(upper)])
    if rng.random() < 0.3:
        poles = np.concatenate([poles, rng.uniform(-0.99, 0.99, rng.integers(1, 3))])
    return poles


def test_pole_warp_invariants_bulk():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    lam = 0.8
    for _ in range(10_000):
        poles = _random_conjugate_closed(rng)
        warped = warp_pole_angles(poles, lam)
        assert np.all(np.abs(np.abs(warped) - np.abs(poles)) < 1e-9)
        theta = np.angle(poles)
        theta_new = np.angle(warped)
        complex_mask = np.abs(poles.imag) > 0
        t = np.abs(theta[complex_mask])
        tn = np.abs(theta_new[complex_mask])
        assert np.all(np.abs(tn - 1.0) <= np.abs(t - 1.0) + 1e-12)
        assert np.all(np.sign(tn - 1.0) * np.sign(t - 1.0) >= 0)
        _check_conjugate_closed(warped)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    _report(
        "pole-warp invariants: 10,000 conjugate-closed sets, magnitudes "
        f"within 1e-9, angles contract toward 1 rad, in {elapsed:.1f} s"
    )


def test_lpc_round_trip_bulk():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(1000):
        order = int(rng.integers(2, 25))
        frame = rng.standard_normal(320)
        coeffs, _ = lpc_levinson(frame, order)
        rebuilt = synthesize(lpc_residual(frame, coeffs), coeffs)
        err = np.linalg.norm(rebuilt - frame) / np.linalg.norm(frame)
        worst = max(worst, err)
        assert err < 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    _report(
        "lpc round trip: 1,000 frames, orders 2-24, worst rel-L2 "
        f"{worst:.2e} < 1e-8 in {elapsed:.1f} s"
    )


def test_root_coefficient_round_trip_bulk():
    rng = np.random.default_rng(13)
    worst = 0.0

    def well_separated(candidates, existing, gap=0.04):
        return all(abs(c - e) > gap for c in candidates for e in existing)

    for trial in range(1000):
        degree = int(rng.integers(1, 25))
        roots = []
        while len(roots) < degree:
            # clustered roots are ill-conditioned for every root finder, so
            # keep a small pairwise gap between generated roots
            if degree - len(roots) >= 2 and rng.random() < 0.8:
                z = rng.uniform(0.1, 0.99) * np.exp(1j * rng.uniform(0.05, np.pi - 0.05))
                new = [z, np.conj(z)]
            else:
                new = [complex(rng.uniform(-0.99, 0.99))]
            if well_separated(new, roots):
                roots.extend(new)
        roots = np.array(roots)
        coeffs = poles_to_coeffs(roots)
        recovered = poly_roots(coeffs)
        err = match_roots(recovered, roots)
        worst = max(worst, err)
        assert err < 1e-6, f"trial {trial}: root error {err:.3e}"
    _report(
        "root/coefficient round trip: 1,000 trials, degree <= 24, worst "
        f"per-root error {worst:.2e} < 1e-6"
    )


def test_degenerate_all_positive_row():
    labels = [Emotion.POSITIVE] * 37 + [Emotion.NEGATIVE] * 37
    preds = [Emotion.POSITIVE] * 74
    report = evaluate(preds, labels, [0.0] * len(preds))
    acc = f"{report.accuracy * 100:.2f}"
    prec = f"{report.precision * 100:.2f}"
    fsc = f"{report.f1 * 100:.2f}"
    assert (acc, prec, fsc) == ("50.00", "50.00", "66.67")
    _report(
        "all-positive predictor on a 37/37 split renders 50.00 accuracy, "
        "50.00 precision, 66.67 F1"
    )


def test_metrics_oracle_equivalence_bulk():
    rng = np.random.default_rng(17)
    choices = [Emotion.POSITIVE, Emotion.NEGATIVE]
    for _ in range(1000):
        n = int(rng.integers(1, 200))
        preds = [choices[i] for i in rng.integers(0, 2, n)]
        labels = [choices[i] for i in rng.integers(0, 2, n)]
        report = evaluate(preds, labels, [0.0] * n)
        tp = sum(p is Emotion.POSITIVE and l is Emotion.POSITIVE for p, l in zip(preds, labels))
        fp = sum(p is Emotion.POSITIVE and l is Emotion.NEGATIVE for p, l in zip(preds, labels))
        fn = sum(p is Emotion.NEGATIVE and l is Emotion.POSITIVE for p, l in zip(preds, labels))
        tn = sum(p is Emotion.NEGATIVE and l is Emotion.NEGATIVE for p, l in zip(preds, labels))
        assert (report.tp, report.fp, report.fn, report.tn) == (tp, fp, fn, tn)
        oracle_acc = Fraction(tp + tn, n)
        oracle_prec = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        oracle_rec = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        denom = oracle_prec + oracle_rec
        oracle_f1 = 2 * oracle_prec * oracle_rec / denom if denom else Fraction(0)
        assert abs(report.accuracy - float(oracle_acc)) < 1e-12
        assert abs(report.precision - float(oracle_prec)) < 1e-12
        assert abs(report.recall - float(oracle_rec)) < 1e-12
        assert abs(report.f1 - float(oracle_f1)) < 1e-12
    _report(
        "metrics oracle: 1,000 random sets, counts bit-exact, derived "
        "metrics within 1e-12 of a rational-arithmetic oracle"
    )


def test_sampling_contracts():
    from emodeid.pipeline import sample_frames_uniform, segment_audio

    indices = sample_frames_uniform(13478, 32)
    assert indices[0] == 210
    assert all(0 <= i < 13478 for i in indices)

    audio = AudioSignal(np.zeros(int(421.2 * 16000)), 16000)
    clips = segment_audio(audio, 2.0)
    assert len(clips) == 210
    assert all(c.samples.size == 32000 for c in clips)

    rng = np.random.default_rng(19)
    spec = mel_spectrogram(AudioSignal(rng.standard_normal(32000) * 0.1, 16000), bins=128)
    assert spec.values.shape == (128, 198)
    _report(
        "sampling contracts: frame index 210 of 13478/32, 210 clips of "
        "32,000 samples from 421.2 s, mel shape 128x198"
    )


def test_masking_locality_hd_fixture():
    rng = np.random.default_rng(23)
    arr = rng.integers(0, 256, size=(720, 1280, 3), dtype=np.uint8)
    boxes = [
        FaceBox(0, 100, 80, 160, 200),
        FaceBox(0, 1200, 650, 200, 200),  # clipped at the right/bottom edge
    ]
    masked = mask_frames([arr], boxes)[0]
    clipped = [(100, 80, 160, 200), (1200, 650, 80, 70)]
    inside = np.zeros((720, 1280), dtype=bool)
    for x, y, w, h in clipped:
        inside[y : y + h, x : x + w] = True
    assert np.array_equal(masked[~inside], arr[~inside])
    for x, y, w, h in clipped:
        assert masked[y : y + h, x : x + w].var() < arr[y : y + h, x : x + w].var()
    assert mask_frames([arr], [])[0] is arr
    _report(
        "masking locality: 1280x720 fixture, pixels outside two clipped "
        "boxes byte-identical, in-box variance reduced, zero boxes a no-op"
    )


def test_end_to_end_mock_run(tmp_path):
    start = time.monotonic()
    _, media, _, ann_path, fix_path = make_mock_dataset(tmp_path / "data", n_videos=6)
    outputs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code = main([
            "run-pipeline", str(ann_path), str(media.root), str(out_dir),
            "--mode", "all", "--mock-fixtures", str(fix_path), "--frame-count", "4",
        ])
        assert code == 0
        blob = {}
        for rel in ("v", "va", "van"):
            blob[rel] = (out_dir / rel / "results.jsonl").read_bytes()
        blob["table"] = (out_dir / "ablation.txt").read_bytes()
        outputs.append(blob)
    assert outputs[0] == outputs[1]
    header = outputs[0]["table"].decode().splitlines()[0].split()
    assert header == ["Mode", "Accuracy(%)", "F-score(%)", "Precision(%)", "Confidence"]
    rows = outputs[0]["table"].decode().splitlines()[1:4]
    assert [r.split()[0] for r in rows] == ["video", "video+audio", "video+audio+nfbl"]
    elapsed = time.monotonic() - start
    assert elapsed < 20.0, f"took {elapsed:.1f} s"
    _report(
        "end-to-end mock run: 6 videos, three modes, byte-identical "
        f"reruns, ablation column order verified, in {elapsed:.1f} s"
    )


def test_annotation_statistics_at_scale():
    from emodeid.annotations import NfblClip, dataset_summary

    rng = np.random.default_rng(29)
    n_videos = 275
    n_clips = 16_180
    base = n_clips // n_videos
    extra = n_clips - base * n_videos
    records = []
    class_ids = [f"N{i}" for i in range(37)]
    for v in range(n_videos):
        count = base + (1 if v < extra else 0)
        duration = 200.0
        clips = [
            NfblClip(f"vid{v:04d}", class_ids[int(rng.integers(0, 37))],
                     float(i) * 0.01, float(i) * 0.01 + 0.005)
            for i in range(count)
        ]
        records.append(
            VideoRecord(
                video_id=f"vid{v:04d}",
                emotion=Emotion.POSITIVE if v % 2 == 0 else Emotion.NEGATIVE,
                duration_s=duration,
                fps=30.0,
                clips=clips,
            )
        )
    text = serialize_annotations(records)
    start = time.monotonic()
    parsed = parse_annotations(text)
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, f"parse took {elapsed:.2f} s"
    summary = dataset_summary(parsed)
    assert summary.video_count == 275
    assert summary.clip_count == 16_180

    train, test = split_dataset(parsed, seed=3)
    assert len(train) == 72 and len(test) == 74
    for part, per_class in ((train, 36), (test, 37)):
        for emo in (Emotion.POSITIVE, Emotion.NEGATIVE):
            assert sum(1 for r in part if r.emotion is emo) == per_class
    assert not {r.video_id for r in train} & {r.video_id for r in test}
    again = split_dataset(parsed, seed=3)
    assert [r.video_id for r in again[0]] == [r.video_id for r in train]
    assert [r.video_id for r in again[1]] == [r.video_id for r in test]
    _report(
        "annotation statistics: 275 videos / 16,180 clips parsed in "
        f"{elapsed:.2f} s < 2 s; split 72 (36/36) and 74 (37/37), "
        "disjoint and seed-deterministic"
    )
