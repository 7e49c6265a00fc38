"""Classification metrics, label-stability measures, and stage timing.

Evaluation is frame-level: each detection with ground truth contributes one
(gt, predicted) pair.  Macro F1 averages over the full label set including
zero-support classes (their F1 counts as 0), which is why macro can sit far
below weighted F1 on imbalanced data.  The pairs and the flip rate read all
of a file's sequences from one :class:`~trackfuse.model.ColumnResult` in one
pass.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from .errors import EmptyEvaluation, IndexOutOfRange, NoEligibleTracks
from .model import ColumnResult

STAGE_DETECTION_INGEST = "detection-ingest"
STAGE_CLASSIFICATION_INGEST = "classification-ingest"
STAGE_MOT = "mot"
STAGE_REID_COST = "reid-cost"
STAGE_FUSION = "fusion"
STAGE_METRICS = "metrics"

ALL_STAGES = (
    STAGE_DETECTION_INGEST,
    STAGE_CLASSIFICATION_INGEST,
    STAGE_MOT,
    STAGE_REID_COST,
    STAGE_FUSION,
    STAGE_METRICS,
)


class ConfusionMatrix:
    """Square count matrix; rows are ground truth, columns are predictions."""

    __slots__ = ("counts",)

    def __init__(self, counts: np.ndarray):
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise IndexOutOfRange(f"confusion matrix must be square, got {counts.shape}")
        if np.any(counts < 0):
            raise IndexOutOfRange("confusion counts must be non-negative")
        counts.setflags(write=False)
        self.counts = counts

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __eq__(self, other) -> bool:
        return isinstance(other, ConfusionMatrix) and np.array_equal(self.counts, other.counts)

    def __repr__(self) -> str:
        return f"ConfusionMatrix({self.counts.tolist()!r})"


def confusion(pairs, n_classes: int) -> ConfusionMatrix:
    """Tabulate (ground truth, predicted) index pairs, an (M, 2) array or an iterable of pairs.

    The first pair out of range is an error.
    """
    index = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs)).reshape(-1, 2)
    outside = ((index < 0) | (index >= n_classes)).any(axis=1)
    if outside.any():
        gt, pred = index[int(np.argmax(outside))].tolist()
        raise IndexOutOfRange(f"pair ({gt}, {pred}) outside [0, {n_classes})")
    flat = index.astype(np.int64) @ np.array([n_classes, 1])
    return ConfusionMatrix(np.bincount(flat, minlength=n_classes * n_classes)
                           .reshape(n_classes, n_classes))


def accuracy_at_1(cm: ConfusionMatrix) -> float:
    """Fraction of evaluated detections whose prediction matched ground truth."""
    if cm.total == 0:
        raise EmptyEvaluation("no evaluated detections")
    return float(np.trace(cm.counts)) / cm.total


@dataclass(frozen=True)
class F1Scores:
    macro: float
    weighted: float
    per_class: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.per_class, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "per_class", arr)


def f1_scores(cm: ConfusionMatrix) -> F1Scores:
    """Per-class, macro, and support-weighted F1.

    Classes with P + R = 0 score 0 and still enter the macro mean.
    """
    if cm.total == 0:
        raise EmptyEvaluation("no evaluated detections")
    counts = cm.counts.astype(float)
    diag = np.diag(counts)
    support = counts.sum(axis=1)
    predicted = counts.sum(axis=0)
    precision = np.divide(diag, predicted, out=np.zeros_like(diag), where=predicted > 0)
    recall = np.divide(diag, support, out=np.zeros_like(diag), where=support > 0)
    pr = precision + recall
    per_class = np.divide(2.0 * precision * recall, pr, out=np.zeros_like(diag), where=pr > 0)
    macro = float(per_class.mean())
    weighted = float((per_class * support).sum() / support.sum())
    return F1Scores(macro=macro, weighted=weighted, per_class=per_class)


def label_flip_rate(result: ColumnResult, use_fused: bool) -> float:
    """Mean over sequences of the fraction of consecutive same-track label pairs that differ.

    Only sequences with a track of two or more rows count, added in name order.
    Raises NoEligibleTracks when no sequence has one.
    """
    order, starts = result.runs
    labels = (result.fused if use_fused else result.raw)[order]
    differs = np.zeros(len(order) + 1, dtype=np.int64)  # differs[p + 1]: row p of a run flips
    differs[2:] = labels[1:] != labels[:-1]
    differs[starts + 1] = 0  # the first row of a run has no pair
    flips_before = np.cumsum(differs)
    at = np.append(0, np.cumsum(result.track >= 0))[result.bounds]  # each sequence's first run row
    pairs = np.diff(at) - np.diff(np.searchsorted(starts, at))
    rates = [flips / n for flips, n in zip(np.diff(flips_before[at]).tolist(), pairs.tolist()) if n]
    if not rates:
        raise NoEligibleTracks("flip rate needs a track with at least two entries")
    return sum(rates) / len(rates)


def evaluation_pairs(result: ColumnResult, use_fused: bool,
                     include_unmatched: bool = True) -> np.ndarray:
    """(gt, predicted) rows (M, 2) in row order, for the rows with ground truth."""
    rows = result.cols.gt_class >= 0
    if not include_unmatched:
        rows &= result.track >= 0
    pred = result.fused if use_fused else result.raw
    return np.stack([result.cols.gt_class[rows], pred[rows]], axis=1)


class StageTimer:
    """Accumulates wall time per named pipeline stage (monotonic clock)."""

    def __init__(self):
        self.totals_s: Dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.totals_s[name] = self.totals_s.get(name, 0.0) + elapsed


class _NullTimer:
    """A timer that records nothing: the default wherever a stage timer is accepted."""

    _STAGE = nullcontext()

    def stage(self, name: str):
        return self._STAGE


NULL_TIMER = _NullTimer()


def format_profile_table(totals_ms: Mapping[str, Mapping[str, float]], samples: int) -> str:
    """Aligned table of each method's per-sample stage means (ms), from per-stage totals (ms).

    A missing stage, or ``samples`` of 0, reads 0.  Total leaves out reid-cost,
    which is nested inside mot and reported in its own column.
    """
    stages = (STAGE_MOT, STAGE_REID_COST, STAGE_CLASSIFICATION_INGEST, STAGE_DETECTION_INGEST,
              STAGE_FUSION, STAGE_METRICS)
    rows = [["Method", "Total", "MOT", "ReID", "Classification", "Detection", "Fusion", "Metrics"]]
    for name, totals in sorted(totals_ms.items()):
        mean = {stage: totals.get(stage, 0.0) / samples if samples else 0.0 for stage in ALL_STAGES}
        total = sum(mean[stage] for stage in ALL_STAGES if stage != STAGE_REID_COST)
        rows.append([name, *(f"{value:.3f}" for value in (total, *map(mean.get, stages)))])
    widths = [max(map(len, column)) for column in zip(*rows)]
    rows.insert(1, ["-" * width for width in widths])
    return "\n".join("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
                     for row in rows)
