"""Per-track temporal fusion of class probabilities, plus the voting baseline.

Fusing a trajectory's per-frame distributions is a renormalized elementwise
product, computed as a sum of log probabilities so long tracks never
underflow.  The consensus label is the argmax of that log sum; relabeling
retroactively overrides every frame of the track with it.

:func:`relabel` fuses a file's :class:`~trackfuse.model.Columns` record in one
pass: it takes ``np.log`` of the file's tracked rows once, lays all tracks out
in (sequence, track, frame) order, and gives the tracks of each length one
``np.cumsum`` along their frames, so each track adds in the order of its own
``np.cumsum``; ``np.add.reduceat`` would not match it bit for bit.
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
    """``rows``, each plus the earlier rows of its run, summed in place; runs are contiguous
    from ``starts``.  The runs of one length n > 1 form one (n, runs, C) block, summed along its
    shorter axis (rank by rank, or one ``np.cumsum``), so each run adds in its own order."""
    lengths = np.diff(starts, append=len(rows))
    for n in (np.bincount(lengths)[2:].nonzero()[0] + 2).tolist():
        at = starts[lengths == n] + np.arange(n)[:, None]  # row k holds rank k of each run
        block = rows[at]
        if at.shape[1] > n:
            for k in range(1, n):
                block[k] += block[k - 1]
        else:
            np.cumsum(block, axis=0, out=block)
        rows[at] = block
    return rows


def _track_labels(probs: np.ndarray, starts: np.ndarray, mode: FusionMode,
                  online: bool) -> np.ndarray:
    """Fused label of each row of the tracks laid out from ``starts``, overwriting ``probs``.

    ``PROBABILITY`` takes the argmax of the running log sum, ``MAJORITY`` the
    most frequent per-row argmax, vote ties going to the larger summed mass,
    then the lower class.  Unless ``online``, every row gets its track's last.
    """
    if mode is FusionMode.PROBABILITY:
        labels = np.argmax(_running(np.log(probs, out=probs), starts), axis=1)
    else:
        votes = _running((probs.argmax(axis=1)[:, None] == np.arange(probs.shape[1]))
                         .astype(np.int64), starts)
        mass = _running(probs, starts)
        mass[votes < votes.max(axis=1, keepdims=True)] = -np.inf
        labels = np.argmax(mass, axis=1)
    if online:
        return labels
    ends = np.append(starts[1:], len(labels))
    return np.repeat(labels[ends - 1], ends - starts)


def relabel(cols: Columns, track: np.ndarray, mode: FusionMode,
            online: bool = False) -> ColumnResult:
    """The tracked file ``cols`` with each track's fused labels.

    ``track`` holds a track id per row of ``cols``, each sequence numbering its
    own.  Retroactive by default; with ``online`` a row's label uses rows up to
    its frame.  Rows without a track, and every row under ``NONE``, keep raw labels.
    """
    raw = cols.probs.argmax(axis=1)
    order, starts = runs = track_runs(track, cols.bounds)
    fused = raw
    if mode is not FusionMode.NONE and len(order):
        fused = raw.copy()
        fused[order] = _track_labels(cols.probs[order], starts, mode, online)
    return ColumnResult(cols, track, raw, fused, runs)
