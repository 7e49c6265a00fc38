"""Per-track temporal fusion of class probabilities, plus the voting baseline.

Fusing a trajectory's per-frame distributions is a renormalized elementwise
product, computed as a sum of log probabilities so long tracks never
underflow.  The consensus label is the argmax of that log sum; relabeling
retroactively overrides every frame of the track with it.

:func:`relabel` takes ``np.log`` of a sequence's whole ``probs`` block once
and sums rank by rank over all tracks laid out in (track, frame) order, so
each track adds in the order of its own ``np.cumsum``; ``np.add.reduceat``
would not match it bit for bit.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .model import ColumnResult, Columns, track_runs


class FusionMode(Enum):
    PROBABILITY = "prob"
    MAJORITY = "vote"
    NONE = "none"


def _running(rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each row plus the earlier rows of its run; runs are contiguous from ``starts``."""
    out = rows.copy()
    lengths = np.diff(starts, append=len(rows))
    for k in range(1, int(lengths.max(initial=0))):  # rank k - 1 into rank k, in every run
        at = starts[lengths > k] + k
        out[at] += out[at - 1]
    return out


def _track_labels(probs: np.ndarray, starts: np.ndarray, mode: FusionMode,
                  online: bool) -> np.ndarray:
    """Fused label of each row of the tracks laid out from ``starts``.

    ``PROBABILITY`` takes the argmax of the running log sum, ``MAJORITY`` the
    most frequent per-row argmax, vote ties going to the larger summed mass,
    then the lower class.  Unless ``online``, every row gets its track's last.
    """
    if mode is FusionMode.PROBABILITY:
        labels = np.argmax(_running(np.log(probs), starts), axis=1)
    else:
        votes = _running((probs.argmax(axis=1)[:, None] == np.arange(probs.shape[1]))
                         .astype(np.int64), starts)
        mass = _running(probs, starts)
        labels = np.argmax(np.where(votes == votes.max(axis=1, keepdims=True), mass, -np.inf),
                           axis=1)
    if online:
        return labels
    ends = np.append(starts[1:], len(labels))
    return np.repeat(labels[ends - 1], ends - starts)


def relabel(cols: Columns, track: np.ndarray, mode: FusionMode,
            online: bool = False) -> ColumnResult:
    """A tracked sequence with each track's fused labels on its rows.

    Retroactive by default; with ``online`` a row's label uses rows up to its
    frame.  Rows without a track, and every row under ``NONE``, keep raw labels.
    """
    raw = cols.probs.argmax(axis=1)
    order, starts = runs = track_runs(track)
    fused = raw
    if mode is not FusionMode.NONE and len(order):
        fused = raw.copy()
        fused[order] = _track_labels(cols.probs[order], starts, mode, online)
    return ColumnResult(cols, track, raw, fused, runs)
