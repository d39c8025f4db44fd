"""Binary-classification metrics and report rendering."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .annotations import Emotion
from .errors import InvalidParamError
from .pipeline import MODES


@dataclass(frozen=True)
class EvalReport:
    """Confusion counts with POSITIVE as the positive class; the rates derive
    from them, and a rate with a zero denominator reads 0.0."""

    tp: int
    tn: int
    fp: int
    fn: int
    mean_confidence: float

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0

    def format(self) -> str:
        return "\n".join([
            f"Items          {self.total} (tp={self.tp} tn={self.tn} fp={self.fp} fn={self.fn})",
            f"Accuracy (%)   {100 * self.accuracy:.2f}",
            f"F-score (%)    {100 * self.f1:.2f}",
            f"Precision (%)  {100 * self.precision:.2f}",
            f"Recall (%)     {100 * self.recall:.2f}",
            f"Mean confidence {self.mean_confidence:.2f}",
        ])


def evaluate(predictions, labels, confidences) -> EvalReport:
    if len(predictions) != len(labels):
        raise InvalidParamError(f"{len(predictions)} predictions vs {len(labels)} labels")
    if not predictions:
        raise InvalidParamError("nothing to evaluate")
    pairs = Counter(zip(predictions, labels))
    P, N = Emotion.POSITIVE, Emotion.NEGATIVE
    return EvalReport(
        tp=pairs[P, P], tn=pairs[N, N], fp=pairs[P, N], fn=pairs[N, P],
        mean_confidence=sum(confidences) / len(confidences),
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
