"""Per-track temporal fusion of class probabilities, plus the voting baseline.

Fusing a trajectory's per-frame distributions is a renormalized elementwise
product, computed as a sum of log probabilities so long tracks never
underflow.  The consensus label is the argmax of that log sum; relabeling
retroactively overrides every frame of the track with it.

:func:`fuse` takes ``np.log`` of a sequence's whole ``probs`` block once and
sums rank by rank over all tracks laid out in (track, frame) order, so each
track adds in the order of its own ``np.cumsum``; ``np.add.reduceat`` would
not match it bit for bit.  :func:`relabel` is its object form.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Tuple

import numpy as np

from .errors import EmptyTrack
from .model import ColumnResult, Columns, DetectionLabel, SequenceResult, Track, track_runs


class FusionMode(Enum):
    PROBABILITY = "prob"
    MAJORITY = "vote"
    NONE = "none"


def _entries(track: Track):
    if not track.entries:
        raise EmptyTrack(f"track {track.id} has no entries")
    return track.entries


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


def fuse(cols: Columns, track: np.ndarray, mode: FusionMode,
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


def relabel(result: SequenceResult, mode: FusionMode, online: bool = False) -> SequenceResult:
    """:func:`fuse` over a SequenceResult's tracks: their entries, in order, are the rows."""
    fused: Dict[Tuple[int, int], int] = {}
    if mode is not FusionMode.NONE and result.tracks:
        entries = [(t.id, e) for t in result.tracks for e in _entries(t)]
        starts = np.cumsum([0] + [len(t.entries) for t in result.tracks[:-1]])
        labels = _track_labels(np.array([e.dist.probs for _, e in entries]), starts, mode, online)
        fused = {(track_id, e.frame_id): label
                 for (track_id, e), label in zip(entries, labels.tolist())}
    per_frame = tuple(
        DetectionLabel(rec.detection, rec.track_id,
                       fused.get((rec.track_id, rec.frame_id), rec.raw_label))
        for rec in result.per_frame
    )
    return SequenceResult(tracks=result.tracks, per_frame=per_frame)
