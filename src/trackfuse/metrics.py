"""Classification metrics, label-stability measures, and stage timing.

Evaluation is frame-level: each detection with ground truth contributes one
(gt, predicted) pair.  Macro F1 averages over the full label set including
zero-support classes (their F1 counts as 0), which is why macro can sit far
below weighted F1 on imbalanced data.  Accuracy and F1 read the plain
read-only (C, C) counts that :func:`confusion` tabulates.  The pairs and the
flip rate read all of a file's sequences from one
:class:`~trackfuse.model.ColumnResult` in one pass.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Mapping, NamedTuple

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


def confusion(pairs: np.ndarray, n_classes: int) -> np.ndarray:
    """Read-only (C, C) int64 counts of (ground truth, predicted) index pairs, an (M, 2) array
    as :func:`evaluation_pairs` gives it; rows are ground truth, columns predictions.

    The first pair out of range is an error.
    """
    outside = ((pairs < 0) | (pairs >= n_classes)).any(axis=1)
    if outside.any():
        gt, pred = pairs[int(np.argmax(outside))].tolist()
        raise IndexOutOfRange(f"pair ({gt}, {pred}) outside [0, {n_classes})")
    flat = pairs.astype(np.int64) @ np.array([n_classes, 1])
    counts = np.bincount(flat, minlength=n_classes * n_classes).reshape(n_classes, n_classes)
    counts.setflags(write=False)
    return counts


def accuracy_at_1(counts: np.ndarray) -> float:
    """Fraction of evaluated detections, tabulated as :func:`confusion` counts, whose
    prediction matched ground truth."""
    total = int(counts.sum())
    if total == 0:
        raise EmptyEvaluation("no evaluated detections")
    return float(np.trace(counts)) / total


class F1Scores(NamedTuple):
    macro: float
    weighted: float
    per_class: np.ndarray


def f1_scores(counts: np.ndarray) -> F1Scores:
    """Per-class (read-only), macro, and support-weighted F1 of :func:`confusion` counts.

    Classes with P + R = 0 score 0 and still enter the macro mean.
    """
    if counts.sum() == 0:
        raise EmptyEvaluation("no evaluated detections")
    counts = counts.astype(float)
    diag = np.diag(counts)
    support = counts.sum(axis=1)
    predicted = counts.sum(axis=0)
    precision = np.divide(diag, predicted, out=np.zeros_like(diag), where=predicted > 0)
    recall = np.divide(diag, support, out=np.zeros_like(diag), where=support > 0)
    pr = precision + recall
    per_class = np.divide(2.0 * precision * recall, pr, out=np.zeros_like(diag), where=pr > 0)
    per_class.setflags(write=False)
    macro = float(per_class.mean())
    weighted = float((per_class * support).sum() / support.sum())
    return F1Scores(macro, weighted, per_class)


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
    at = np.append(0, np.cumsum(result.track >= 0))[result.cols.bounds]  # sequences' first run rows
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
