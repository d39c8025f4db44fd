from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emodeid.annotations import Emotion
from emodeid.errors import InvalidParamError
from emodeid.metrics import EvalReport, ablation_csv, ablation_report, evaluate, score

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


def counted(predictions, labels):
    """``evaluate`` with every confidence 0.0, so only the counts matter."""
    return evaluate(predictions, labels, [0.0] * len(predictions))


def test_perfect_predictions():
    preds = labels = [P] * 5 + [N] * 5
    report = counted(preds, labels)
    assert report == EvalReport(5, 5, 0, 0, 0.0)
    assert report.accuracy == report.precision == report.recall == report.f1 == 1.0


def test_all_positive_on_balanced_37_37():
    labels = [P] * 37 + [N] * 37
    preds = [P] * 74
    report = counted(preds, labels)
    assert report == EvalReport(37, 0, 37, 0, 0.0)
    assert f"{100 * report.accuracy:.2f}" == "50.00"
    assert f"{100 * report.precision:.2f}" == "50.00"
    assert f"{100 * report.f1:.2f}" == "66.67"
    assert report.recall == 1.0


def test_symmetric_counts():
    report = EvalReport(1, 1, 1, 1, 0.0)
    assert report.accuracy == report.precision == report.recall == report.f1 == 0.5


def test_zero_denominator_conventions():
    no_pred_pos = EvalReport(0, 5, 0, 5, 0.0)
    assert no_pred_pos.precision == 0.0
    no_label_pos = EvalReport(0, 5, 5, 0, 0.0)
    assert no_label_pos.recall == 0.0
    assert EvalReport(0, 10, 0, 0, 0.0).f1 == 0.0


def test_length_mismatch_and_empty():
    with pytest.raises(InvalidParamError, match="1 predictions vs 2 labels"):
        counted([P], [P, N])
    with pytest.raises(InvalidParamError, match="nothing to evaluate"):
        counted([], [])


def test_counts_match_oracle_on_random_vectors():
    import random

    rng = random.Random(0)
    preds = [rng.choice((P, N)) for _ in range(1000)]
    labels = [rng.choice((P, N)) for _ in range(1000)]
    report = counted(preds, labels)
    assert (report.tp, report.tn, report.fp, report.fn) == naive_counts(preds, labels)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([P, N]), st.sampled_from([P, N])), min_size=1, max_size=200)
)
def test_metrics_match_rational_oracle(pairs):
    preds = [p for p, _ in pairs]
    labels = [l for _, l in pairs]
    report = counted(preds, labels)
    acc, prec, rec, fsc = rational_metrics(report.tp, report.tn, report.fp, report.fn)
    assert abs(report.accuracy - float(acc)) < 1e-12
    assert abs(report.precision - float(prec)) < 1e-12
    assert abs(report.recall - float(rec)) < 1e-12
    assert abs(report.f1 - float(fsc)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([P, N]), st.sampled_from([P, N])), min_size=2, max_size=50),
    st.randoms(),
)
def test_permutation_invariance(pairs, rnd):
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    a = counted([p for p, _ in pairs], [l for _, l in pairs])
    b = counted([p for p, _ in shuffled], [l for _, l in shuffled])
    assert a == b


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([P, N]), st.sampled_from([P, N])), min_size=1, max_size=100)
)
def test_f1_harmonic_mean_bounds(pairs):
    report = counted([p for p, _ in pairs], [l for _, l in pairs])
    assert 0.0 <= report.f1 <= 2.0 * min(report.precision, report.recall) + 1e-15


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


def test_report_texts_are_pinned_byte_for_byte():
    # v predicts nothing positive (precision and F1 read 0.00); va is the
    # all-positive predictor on a 37/37 split; 6.625 rounds half to even.
    results = {
        "van": [(P, P, 8.0)] * 2 + [(P, N, 4.0)] + [(N, P, 6.0)] * 3 + [(N, N, 7.5)] * 4,
        "va": [(P, P, 6.0), (P, N, 9.0)] * 37,
        "v": [(N, P, 5.0), (N, P, 6.0), (N, N, 7.0), (N, N, 8.5)],
    }
    scored = reports(results)
    assert {mode: report.format() for mode, report in scored.items()} == {
        "v": "Items          4 (tp=0 tn=2 fp=0 fn=2)\n"
             "Accuracy (%)   50.00\n"
             "F-score (%)    0.00\n"
             "Precision (%)  0.00\n"
             "Recall (%)     0.00\n"
             "Mean confidence 6.62",
        "va": "Items          74 (tp=37 tn=0 fp=37 fn=0)\n"
              "Accuracy (%)   50.00\n"
              "F-score (%)    66.67\n"
              "Precision (%)  50.00\n"
              "Recall (%)     100.00\n"
              "Mean confidence 7.50",
        "van": "Items          10 (tp=2 tn=4 fp=1 fn=3)\n"
               "Accuracy (%)   60.00\n"
               "F-score (%)    50.00\n"
               "Precision (%)  66.67\n"
               "Recall (%)     40.00\n"
               "Mean confidence 6.80",
    }
    assert list(scored) == ["v", "va", "van"]
    assert ablation_report(scored) == (
        "Mode               Accuracy(%)  F-score(%)  Precision(%)  Confidence\n"
        "video                    50.00        0.00          0.00        6.62\n"
        "video+audio              50.00       66.67         50.00        7.50\n"
        "video+audio+nfbl         60.00       50.00         66.67        6.80"
    )
    assert ablation_csv(scored) == (
        "mode,accuracy_pct,f_score_pct,precision_pct,mean_confidence\n"
        "video,50.00,0.00,0.00,6.62\n"
        "video+audio,50.00,66.67,50.00,7.50\n"
        "video+audio+nfbl,60.00,50.00,66.67,6.80"
    )
