"""Evaluation metrics: global scores, alert-head scores, monetary cost, and
uncertainty diagnostics.

Ranking metrics share one convention: samples are ordered by descending
score with ties broken by original index (stable sort), and the alert head
at K percent contains the top ceil(K/100 * N) samples, never fewer than one.
The area under the precision-recall curve follows the average-precision step
convention sum_i (r_i - r_{i-1}) * p_i over the ranked positives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "threshold_predictions",
    "macro_f1",
    "pr_auc",
    "partial_pr_auc",
    "cross_entropy",
    "head_size",
    "precision_at_k",
    "recall_at_k",
    "expected_cost_at_k",
    "uncertainty_auroc",
    "OutcomeWidths",
    "interval_width_by_outcome",
    "majority_class_scores",
]


def _validate(labels, scores) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise ValueError(
            f"labels and scores must be equal-length vectors, got "
            f"{labels.shape} and {scores.shape}"
        )
    if labels.size == 0:
        raise ValueError("metrics undefined on empty input")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be binary 0/1")
    return labels.astype(np.int64), scores


def _ranking(scores: np.ndarray) -> np.ndarray:
    """Indices sorted by descending score, original order breaking ties."""
    return np.argsort(-scores, kind="stable")


def threshold_predictions(scores: np.ndarray, tau: float) -> np.ndarray:
    """Predicted class per sample: fraud iff score >= tau."""
    return (np.asarray(scores, dtype=np.float64) >= tau).astype(np.int64)


def macro_f1(labels, scores, tau: float = 0.5) -> float:
    """Unweighted mean of the per-class F1 at threshold tau.

    A class absent from both predictions and truth contributes 0.
    """
    labels, scores = _validate(labels, scores)
    preds = threshold_predictions(scores, tau)
    f1s = []
    for cls in (0, 1):
        tp = int(np.sum((preds == cls) & (labels == cls)))
        fp = int(np.sum((preds == cls) & (labels != cls)))
        fn = int(np.sum((preds != cls) & (labels == cls)))
        denom = 2 * tp + fp + fn
        f1s.append(2.0 * tp / denom if denom else 0.0)
    return float(np.mean(f1s))


def pr_auc(labels, scores) -> float:
    """Average precision: sum over ranked positives of precision / n_pos."""
    return partial_pr_auc(labels, scores, 1.0)


def partial_pr_auc(labels, scores, r: float) -> float:
    """Step integral of precision over recall in [0, r].

    The step crossing the recall cap contributes proportionally, so a
    perfect ranking scores exactly r and r=1 recovers `pr_auc`.
    """
    labels, scores = _validate(labels, scores)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"recall cap must lie in [0, 1], got {r}")
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("partial_pr_auc undefined without positive samples")
    # Positive h (1-based, in rank order) at rank rank_h adds the recall it
    # gains below the cap times its precision h / rank_h; positives past the
    # cap gain nothing.  cumsum adds the terms one by one in rank order, so
    # the area rounds as a running sum does (`sum` adds pairwise).
    ranks = np.flatnonzero(labels[_ranking(scores)] == 1) + 1
    hits = np.arange(1, n_pos + 1)
    gain = np.maximum(np.minimum(hits / n_pos, r) - (hits - 1) / n_pos, 0.0)
    return float(np.cumsum(gain * (hits / ranks))[-1])


def cross_entropy(labels, scores, clip: float = 1e-7) -> float:
    """Mean binary cross-entropy with scores clipped into [clip, 1-clip]."""
    labels, scores = _validate(labels, scores)
    p = np.clip(scores, clip, 1.0 - clip)
    return float(-np.mean(labels * np.log(p) + (1 - labels) * np.log1p(-p)))


def head_size(n: int, k_percent: float) -> int:
    """Alert-head size: ceil(k_percent/100 * n), at least 1."""
    if n < 1:
        raise ValueError("empty ranking")
    if k_percent < 0:
        raise ValueError(f"k_percent must be non-negative, got {k_percent}")
    return max(1, math.ceil(k_percent / 100.0 * n))


def _head_indices(labels, scores, k_percent):
    order = _ranking(scores)
    return order[: head_size(labels.size, k_percent)]


def precision_at_k(labels, scores, k_percent: float) -> float:
    """Fraction of the top-K% alerts that are fraud."""
    labels, scores = _validate(labels, scores)
    head = _head_indices(labels, scores, k_percent)
    return float(labels[head].sum() / head.size)


def recall_at_k(labels, scores, k_percent: float) -> float:
    """Fraction of all fraud captured by the top-K% alerts."""
    labels, scores = _validate(labels, scores)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("recall_at_k undefined without positive samples")
    head = _head_indices(labels, scores, k_percent)
    return float(labels[head].sum() / n_pos)


def expected_cost_at_k(labels, scores, amounts, k_percent: float, alpha: float = 0.02) -> float:
    """Monetary cost of alerting on the top-K%: the full amount of every
    fraud outside the head plus alpha times the amount of every legitimate
    transaction inside it."""
    labels, scores = _validate(labels, scores)
    amounts = np.asarray(amounts, dtype=np.float64)
    if amounts.shape != labels.shape:
        raise ValueError(f"amounts must match labels, got {amounts.shape}")
    in_head = np.zeros(labels.size, dtype=bool)
    in_head[_head_indices(labels, scores, k_percent)] = True
    missed = float(amounts[(labels == 1) & ~in_head].sum())
    flagged_legit = float(amounts[(labels == 0) & in_head].sum())
    return missed + alpha * flagged_legit


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of `values` in ascending order, ties sharing their mean."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def uncertainty_auroc(labels, scores, widths, tau: float = 0.5) -> float:
    """AUROC of the interval width for flagging misclassified samples.

    Misclassification (prediction at tau differs from truth) is the positive
    class; computed by the rank-sum formula with ties counted half.
    """
    labels, scores = _validate(labels, scores)
    widths = np.asarray(widths, dtype=np.float64)
    if widths.shape != labels.shape:
        raise ValueError(f"widths must match labels, got {widths.shape}")
    wrong = threshold_predictions(scores, tau) != labels
    n_pos = int(wrong.sum())
    n_neg = wrong.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            "uncertainty_auroc needs both correctly and incorrectly "
            f"classified samples (got {n_pos} wrong, {n_neg} right)"
        )
    ranks = _midranks(widths)
    rank_sum = float(ranks[wrong].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class OutcomeWidths:
    """Mean interval width per confusion cell; NaN marks an empty cell."""

    tp: float
    fp: float
    tn: float
    fn: float


def interval_width_by_outcome(labels, scores, widths, tau: float = 0.5) -> OutcomeWidths:
    labels, scores = _validate(labels, scores)
    widths = np.asarray(widths, dtype=np.float64)
    preds = threshold_predictions(scores, tau)
    cells = {}
    for name, mask in (
        ("tp", (preds == 1) & (labels == 1)),
        ("fp", (preds == 1) & (labels == 0)),
        ("tn", (preds == 0) & (labels == 0)),
        ("fn", (preds == 0) & (labels == 1)),
    ):
        cells[name] = float(widths[mask].mean()) if mask.any() else math.nan
    return OutcomeWidths(**cells)


def majority_class_scores(n: int) -> np.ndarray:
    """Scores of the trivial reference predicting the majority (legitimate)
    class for every sample."""
    return np.zeros(n)
