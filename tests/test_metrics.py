from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emodeid.annotations import Emotion
from emodeid.errors import InvalidParamError
from emodeid.metrics import (
    ConfusionCounts,
    ablation_csv,
    ablation_report,
    accuracy,
    confusion,
    evaluate,
    f1,
    precision,
    recall,
    score,
)

P, N = Emotion.POSITIVE, Emotion.NEGATIVE


def naive_counts(predictions, labels):
    """Brute-force oracle: count each item individually."""
    tp = sum(1 for p, l in zip(predictions, labels) if p is P and l is P)
    tn = sum(1 for p, l in zip(predictions, labels) if p is N and l is N)
    fp = sum(1 for p, l in zip(predictions, labels) if p is P and l is N)
    fn = sum(1 for p, l in zip(predictions, labels) if p is N and l is P)
    return tp, tn, fp, fn


def rational_metrics(tp, tn, fp, fn):
    """Exact-arithmetic oracle for the derived metrics."""
    total = tp + tn + fp + fn
    acc = Fraction(tp + tn, total)
    prec = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    rec = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
    fsc = 2 * prec * rec / (prec + rec) if prec + rec else Fraction(0)
    return acc, prec, rec, fsc


def test_perfect_predictions():
    preds = labels = [P] * 5 + [N] * 5
    counts = confusion(preds, labels)
    assert counts == ConfusionCounts(5, 5, 0, 0)
    for metric in (accuracy, precision, recall, f1):
        assert metric(counts) == 1.0


def test_all_positive_on_balanced_37_37():
    labels = [P] * 37 + [N] * 37
    preds = [P] * 74
    counts = confusion(preds, labels)
    assert counts == ConfusionCounts(37, 0, 37, 0)
    assert f"{100 * accuracy(counts):.2f}" == "50.00"
    assert f"{100 * precision(counts):.2f}" == "50.00"
    assert f"{100 * f1(counts):.2f}" == "66.67"
    assert recall(counts) == 1.0


def test_symmetric_counts():
    counts = ConfusionCounts(1, 1, 1, 1)
    assert accuracy(counts) == precision(counts) == recall(counts) == f1(counts) == 0.5


def test_zero_denominator_conventions():
    no_pred_pos = ConfusionCounts(0, 5, 0, 5)
    assert precision(no_pred_pos) == 0.0
    no_label_pos = ConfusionCounts(0, 5, 5, 0)
    assert recall(no_label_pos) == 0.0
    assert f1(ConfusionCounts(0, 10, 0, 0)) == 0.0


def test_length_mismatch_and_empty():
    with pytest.raises(InvalidParamError, match="1 predictions vs 2 labels"):
        confusion([P], [P, N])
    with pytest.raises(InvalidParamError, match="nothing to evaluate"):
        confusion([], [])


def test_counts_match_oracle_on_random_vectors():
    import random

    rng = random.Random(0)
    preds = [rng.choice((P, N)) for _ in range(1000)]
    labels = [rng.choice((P, N)) for _ in range(1000)]
    counts = confusion(preds, labels)
    assert (counts.tp, counts.tn, counts.fp, counts.fn) == naive_counts(preds, labels)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([P, N]), st.sampled_from([P, N])), min_size=1, max_size=200)
)
def test_metrics_match_rational_oracle(pairs):
    preds = [p for p, _ in pairs]
    labels = [l for _, l in pairs]
    counts = confusion(preds, labels)
    acc, prec, rec, fsc = rational_metrics(counts.tp, counts.tn, counts.fp, counts.fn)
    assert abs(accuracy(counts) - float(acc)) < 1e-12
    assert abs(precision(counts) - float(prec)) < 1e-12
    assert abs(recall(counts) - float(rec)) < 1e-12
    assert abs(f1(counts) - float(fsc)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([P, N]), st.sampled_from([P, N])), min_size=2, max_size=50),
    st.randoms(),
)
def test_permutation_invariance(pairs, rnd):
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    a = confusion([p for p, _ in pairs], [l for _, l in pairs])
    b = confusion([p for p, _ in shuffled], [l for _, l in shuffled])
    assert a == b


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([P, N]), st.sampled_from([P, N])), min_size=1, max_size=100)
)
def test_f1_harmonic_mean_bounds(pairs):
    counts = confusion([p for p, _ in pairs], [l for _, l in pairs])
    assert 0.0 <= f1(counts) <= 2.0 * min(precision(counts), recall(counts)) + 1e-15


def test_evaluate_mean_confidence():
    report = evaluate([P, N], [P, N], confidences=[6.0, 8.0])
    assert report.mean_confidence == pytest.approx(7.0)
    assert f"{report.mean_confidence:.2f}" == "7.00"


def reports(triples_by_mode):
    """``score`` of (prediction, label, confidence) triples, one video per triple."""
    records, labels = [], {}
    for mode, triples in triples_by_mode.items():
        for i, (pred, label, confidence) in enumerate(triples):
            video_id = f"{mode}-{i}"
            records.append({"video_id": video_id, "mode": mode, "emotion": pred.value,
                            "confidence": confidence})
            labels[video_id] = label
    return score(records, labels)


def test_ablation_report_layout():
    results = {
        "van": [(P, P, 7.0), (N, N, 6.0)],
        "v": [(P, P, 5.0), (P, N, 5.0)],
        "va": [(P, P, 6.0), (N, P, 6.0)],
    }
    table = ablation_report(reports(results))
    lines = table.splitlines()
    assert "Accuracy(%)" in lines[0]
    assert lines[0].index("Accuracy(%)") < lines[0].index("F-score(%)")
    assert lines[0].index("F-score(%)") < lines[0].index("Precision(%)")
    assert lines[0].index("Precision(%)") < lines[0].index("Confidence")
    # fixed row order regardless of dict order
    assert lines[1].startswith("video ")
    assert lines[2].startswith("video+audio ")
    assert lines[3].startswith("video+audio+nfbl")
    assert "100.00" in lines[3]


def test_ablation_all_correct_row():
    table = ablation_report(reports({"v": [(P, P, 9.0), (N, N, 9.0)]}))
    row = table.splitlines()[1]
    assert row.split() == ["video", "100.00", "100.00", "100.00", "9.00"]


def test_ablation_csv():
    csv = ablation_csv(reports({"v": [(P, P, 9.0)]}))
    assert csv.splitlines()[0] == "mode,accuracy_pct,f_score_pct,precision_pct,mean_confidence"
    assert csv.splitlines()[1] == "video,100.00,100.00,100.00,9.00"
