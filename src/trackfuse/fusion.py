"""Per-track temporal fusion of class probabilities, plus the voting baseline.

Fusing a trajectory's per-frame distributions is a renormalized elementwise
product, computed as a sum of log probabilities so long tracks never
underflow.  The consensus label is the argmax of that log sum; relabeling
retroactively overrides every frame of the track with it.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Tuple

import numpy as np

from .errors import EmptyTrack, LengthMismatch
from .model import ClassDistribution, DetectionLabel, SequenceResult, Track


class FusionMode(Enum):
    PROBABILITY = "prob"
    MAJORITY = "vote"
    NONE = "none"


_UNDERFLOW_GUARD = 1e-320
# Keeps strongly-dominated classes representable instead of exactly zero.
# Deliberately far below the ingestion floor: re-flooring fused outputs at
# that level would cap the likelihood ratio an iterated fold can carry and
# make folding disagree with the summed-log consensus.


def fuse_pair(prev: ClassDistribution, curr: ClassDistribution) -> ClassDistribution:
    """Renormalized elementwise product of two distributions, done in log space."""
    if len(prev) != len(curr):
        raise LengthMismatch(f"cannot fuse lengths {len(prev)} and {len(curr)}")
    joint = prev.log() + curr.log()
    top = joint.max()
    joint = joint - (top + np.log(np.exp(joint - top).sum()))
    return ClassDistribution(np.maximum(np.exp(joint), _UNDERFLOW_GUARD))


def _entries(track: Track):
    if not track.entries:
        raise EmptyTrack(f"track {track.id} has no entries")
    return track.entries


def _running_log(track: Track) -> np.ndarray:
    """Row k is the per-class sum of log probabilities over entries 0..k."""
    return np.cumsum([e.dist.log() for e in _entries(track)], axis=0)


def _running_labels(track: Track, mode: FusionMode) -> np.ndarray:
    """Fused label after each entry of ``track``, from that entry and earlier ones only.

    ``PROBABILITY`` takes the argmax of the running log sum.  ``MAJORITY``
    takes the most frequent per-frame argmax; vote ties go to the class with
    the larger summed probability mass, then to the lowest class index.
    """
    if mode is FusionMode.PROBABILITY:
        return np.argmax(_running_log(track), axis=1)
    probs = np.array([e.dist.probs for e in _entries(track)])
    votes = np.cumsum(probs.argmax(axis=1)[:, None] == np.arange(probs.shape[1]), axis=0)
    mass = np.cumsum(probs, axis=0)
    return np.argmax(np.where(votes == votes.max(axis=1, keepdims=True), mass, -np.inf), axis=1)


def consensus_label(track: Track) -> Tuple[int, np.ndarray]:
    """Track-level label: argmax of the summed log probabilities.

    Returns the label index (ties toward the lowest class index) and the
    unnormalized log-score vector.
    """
    scores = _running_log(track)[-1]
    return int(np.argmax(scores)), scores


def relabel(result: SequenceResult, mode: FusionMode, online: bool = False) -> SequenceResult:
    """Overwrite fused labels with each track's consensus label.

    The default is retroactive: one label per track, applied to all of its
    frames.  With ``online=True`` the label at frame t uses entries up to t
    only.  Unmatched detections keep their raw label; ``FusionMode.NONE``
    leaves every fused label equal to the raw label.
    """
    fused: Dict[Tuple[int, int], int] = {}
    if mode is not FusionMode.NONE:
        for t in result.tracks:
            labels = _running_labels(t, mode).tolist()
            for k, e in enumerate(t.entries):
                fused[t.id, e.frame_id] = labels[k if online else -1]
    per_frame = tuple(
        DetectionLabel(rec.detection, rec.track_id,
                       fused.get((rec.track_id, rec.frame_id), rec.raw_label))
        for rec in result.per_frame
    )
    return SequenceResult(tracks=result.tracks, per_frame=per_frame)
