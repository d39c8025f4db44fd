"""Binary-classification metrics and report rendering."""

from __future__ import annotations

from dataclasses import dataclass

from .annotations import Emotion
from .errors import InvalidParamError
from .pipeline import MODES


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class EvalReport:
    counts: ConfusionCounts
    accuracy: float
    precision: float
    recall: float
    f1: float
    mean_confidence: float

    def format(self) -> str:
        c = self.counts
        return "\n".join(
            [
                f"Items          {c.total} (tp={c.tp} tn={c.tn} fp={c.fp} fn={c.fn})",
                f"Accuracy (%)   {100 * self.accuracy:.2f}",
                f"F-score (%)    {100 * self.f1:.2f}",
                f"Precision (%)  {100 * self.precision:.2f}",
                f"Recall (%)     {100 * self.recall:.2f}",
                f"Mean confidence {self.mean_confidence:.2f}",
            ]
        )


def confusion(predictions, labels) -> ConfusionCounts:
    """Per-item counts with POSITIVE as the positive class."""
    if len(predictions) != len(labels):
        raise InvalidParamError(
            f"{len(predictions)} predictions vs {len(labels)} labels"
        )
    if not predictions:
        raise InvalidParamError("nothing to evaluate")
    tp = tn = fp = fn = 0
    for pred, label in zip(predictions, labels):
        if label is Emotion.POSITIVE:
            if pred is Emotion.POSITIVE:
                tp += 1
            else:
                fn += 1
        else:
            if pred is Emotion.POSITIVE:
                fp += 1
            else:
                tn += 1
    return ConfusionCounts(tp, tn, fp, fn)


def accuracy(counts: ConfusionCounts) -> float:
    return (counts.tp + counts.tn) / counts.total


def precision(counts: ConfusionCounts) -> float:
    denom = counts.tp + counts.fp
    return counts.tp / denom if denom else 0.0


def recall(counts: ConfusionCounts) -> float:
    denom = counts.tp + counts.fn
    return counts.tp / denom if denom else 0.0


def f1(counts: ConfusionCounts) -> float:
    p, r = precision(counts), recall(counts)
    return 2.0 * p * r / (p + r) if p + r else 0.0


def evaluate(predictions, labels, confidences=None) -> EvalReport:
    counts = confusion(predictions, labels)
    mean_conf = (
        sum(confidences) / len(confidences) if confidences else 0.0
    )
    return EvalReport(
        counts=counts,
        accuracy=accuracy(counts),
        precision=precision(counts),
        recall=recall(counts),
        f1=f1(counts),
        mean_confidence=mean_conf,
    )


def score(records, labels) -> dict[str, EvalReport]:
    """One report per mode of ``records``, in ablation order. Records are the
    dicts that ``pipeline.read_results`` returns; ``labels`` maps each of
    their video ids to its true Emotion."""
    by_mode = {}
    for rec in records:
        by_mode.setdefault(rec["mode"], []).append(rec)
    return {
        mode: evaluate([Emotion(r["emotion"]) for r in recs],
                       [labels[r["video_id"]] for r in recs],
                       [r["confidence"] for r in recs])
        for mode in MODES if (recs := by_mode.get(mode))
    }


def ablation_rows(reports: dict[str, EvalReport]):
    """One (mode label, accuracy%, f1%, precision%, mean confidence) row per
    report of ``score``, in its order."""
    return [
        (MODES[mode], 100 * r.accuracy, 100 * r.f1, 100 * r.precision, r.mean_confidence)
        for mode, r in reports.items()
    ]


def ablation_report(reports: dict[str, EvalReport]) -> str:
    """Aligned ablation table: Accuracy, F-score, Precision, Confidence."""
    header = f"{'Mode':<18}{'Accuracy(%)':>12}{'F-score(%)':>12}{'Precision(%)':>14}{'Confidence':>12}"
    lines = [header]
    for label, acc, fsc, prec, conf in ablation_rows(reports):
        lines.append(f"{label:<18}{acc:>12.2f}{fsc:>12.2f}{prec:>14.2f}{conf:>12.2f}")
    return "\n".join(lines)


def ablation_csv(reports: dict[str, EvalReport]) -> str:
    """Machine-readable counterpart of ablation_report."""
    lines = ["mode,accuracy_pct,f_score_pct,precision_pct,mean_confidence"]
    for label, acc, fsc, prec, conf in ablation_rows(reports):
        lines.append(f"{label},{acc:.2f},{fsc:.2f},{prec:.2f},{conf:.2f}")
    return "\n".join(lines)
