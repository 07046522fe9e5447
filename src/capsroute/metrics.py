"""Binary classification metrics with explicit tie and degeneracy handling.

Class 1 is the positive class throughout. Ranking metrics raise
``UndefinedMetricError`` on degenerate inputs instead of guessing; report
containers render those as an explicit ``undefined`` marker. ``format_value``
is the one value formatter of every text record and file the package writes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractError, UndefinedMetricError

__all__ = [
    "format_value",
    "confusion_counts",
    "accuracy_score",
    "f1_score",
    "roc_auc",
    "pr_auc",
    "MetricsReport",
]


def format_value(v) -> str:
    """Render one record value: ``undefined`` for None, tuples comma-joined,
    bools as true/false and floats by their shortest round-trip repr."""
    if v is None:
        return "undefined"
    if isinstance(v, tuple):
        return ",".join(format_value(x) for x in v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _as_binary(name: str, values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ContractError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise ContractError(f"{name} must contain only 0 and 1")
    return arr.astype(np.int64)


def _as_scores(scores, labels: np.ndarray) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if s.shape != labels.shape:
        raise ContractError(f"scores {s.shape} and labels {labels.shape} differ in length")
    n_bad = int(np.count_nonzero(~np.isfinite(s)))
    if n_bad:
        raise ContractError(f"scores hold {n_bad} non-finite values")
    return s


def confusion_counts(preds, labels) -> tuple[int, int, int, int]:
    """Return (tp, fp, tn, fn) with class 1 as positive."""
    p = _as_binary("predictions", preds)
    y = _as_binary("labels", labels)
    if p.shape != y.shape:
        raise ContractError(f"predictions {p.shape} and labels {y.shape} differ in length")
    tn, fn, fp, tp = np.bincount(2 * p + y, minlength=4).tolist()
    return tp, fp, tn, fn


def accuracy_score(preds, labels) -> float:
    tp, fp, tn, fn = confusion_counts(preds, labels)
    total = tp + fp + tn + fn
    if total == 0:
        raise ContractError("accuracy is undefined on empty input")
    return (tp + tn) / total


def f1_score(preds, labels) -> float:
    """Harmonic mean of precision and recall; 0 when the denominator vanishes."""
    tp, fp, _, fn = confusion_counts(preds, labels)
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2 * tp / denom


def _tie_groups(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative counts of each distinct score, highest score first."""
    y = _as_binary("labels", labels)
    _, group = np.unique(-_as_scores(scores, y), return_inverse=True)
    pos = np.bincount(group, weights=y)
    return pos, np.bincount(group) - pos


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve by counting ranked pairs over tie groups.

    Equals the probability that a random positive outranks a random negative,
    with ties counting one half. Raises ``UndefinedMetricError`` unless both
    classes are present.
    """
    pos, neg = _tie_groups(scores, labels)
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"roc_auc needs both classes, got {n_pos} positives / {n_neg} negatives"
        )
    # Each positive outranks the negatives of lower groups and ties half of its
    # own: a sum of half-integers, hence exact.
    pairs = np.sum(pos * (n_neg - np.cumsum(neg) + neg / 2))
    return float(pairs) / (n_pos * n_neg)


def pr_auc(scores, labels) -> float:
    """Average precision over descending score thresholds.

    Tied scores enter as a single group: the precision after the whole group
    is weighted by the recall the group adds. Requires at least one positive.
    """
    pos, neg = _tie_groups(scores, labels)
    n_pos = int(pos.sum())
    if n_pos == 0:
        raise UndefinedMetricError("pr_auc needs at least one positive label")
    tp = np.cumsum(pos)
    recall = tp / n_pos
    precision = tp / (tp + np.cumsum(neg))
    # cumsum adds the terms in threshold order, one at a time; np.sum would
    # add them pairwise and round differently.
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


@dataclass
class MetricsReport:
    """Evaluation summary for one split; ranking metrics may be undefined."""

    accuracy: float
    f1: float
    roc_auc: float | None
    pr_auc: float | None
    tp: int
    fp: int
    tn: int
    fn: int
    n_samples: int

    @classmethod
    def from_predictions(cls, preds, scores, labels) -> "MetricsReport":
        tp, fp, tn, fn = confusion_counts(preds, labels)
        ranking = {}
        for metric in (roc_auc, pr_auc):
            try:
                ranking[metric.__name__] = metric(scores, labels)
            except UndefinedMetricError:
                ranking[metric.__name__] = None
        return cls(
            accuracy=accuracy_score(preds, labels),
            f1=f1_score(preds, labels),
            **ranking,
            tp=tp,
            fp=fp,
            tn=tn,
            fn=fn,
            n_samples=tp + fp + tn + fn,
        )

    def _items(self) -> list[tuple[str, str]]:
        return [(f.name, format_value(getattr(self, f.name))) for f in fields(self)]

    def to_text(self) -> str:
        """Flat key=value block, one metric per line."""
        return "\n".join(f"{k}={v}" for k, v in self._items())

    def csv_rows(self, seed: int) -> list[str]:
        """Machine-readable ``metric,value,seed`` rows."""
        return [f"{k},{v},{seed}" for k, v in self._items()]

    def confusion_table(self) -> str:
        """2x2 table with predictions as rows and truth as columns."""
        rows = [
            "            true_1  true_0",
            f"pred_1  {self.tp:8d}  {self.fp:6d}",
            f"pred_0  {self.fn:8d}  {self.tn:6d}",
        ]
        return "\n".join(rows)
