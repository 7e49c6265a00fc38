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
from scipy.special import logsumexp

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
    joint = joint - logsumexp(joint)
    return ClassDistribution(np.maximum(np.exp(joint), _UNDERFLOW_GUARD))


def consensus_label(track: Track) -> Tuple[int, np.ndarray]:
    """Track-level label: argmax of the summed log probabilities.

    Returns the label index (ties toward the lowest class index) and the
    unnormalized log-score vector.
    """
    if not track.entries:
        raise EmptyTrack(f"track {track.id} has no entries")
    return int(np.argmax(track.cum_log)), np.array(track.cum_log)


def majority_vote(track: Track) -> int:
    """Most frequent per-frame argmax along the track.

    Vote ties go to the class with the larger summed probability mass over the
    track, then to the lowest class index.
    """
    if not track.entries:
        raise EmptyTrack(f"track {track.id} has no entries")
    n_classes = len(track.entries[0].dist)
    votes = np.zeros(n_classes, dtype=int)
    mass = np.zeros(n_classes)
    for entry in track.entries:
        votes[entry.dist.argmax] += 1
        mass += entry.dist.probs
    return _vote_winner(votes, mass)


def _vote_winner(votes: np.ndarray, mass: np.ndarray) -> int:
    """Class with the most votes; ties go to the larger mass, then the lowest index."""
    tied = np.flatnonzero(votes == votes.max())
    return int(max(tied, key=lambda c: (mass[c], -c)))


def _track_labels(track: Track, mode: FusionMode, online: bool) -> Dict[int, int]:
    """Fused label per frame_id of one track."""
    if not online:
        label = consensus_label(track)[0] if mode is FusionMode.PROBABILITY else majority_vote(track)
        return {e.frame_id: label for e in track.entries}

    labels: Dict[int, int] = {}
    n_classes = len(track.entries[0].dist)
    cum = np.zeros(n_classes)
    votes = np.zeros(n_classes, dtype=int)
    mass = np.zeros(n_classes)
    for entry in track.entries:
        if mode is FusionMode.PROBABILITY:
            cum += entry.dist.log()
            labels[entry.frame_id] = int(np.argmax(cum))
        else:
            votes[entry.dist.argmax] += 1
            mass += entry.dist.probs
            labels[entry.frame_id] = _vote_winner(votes, mass)
    return labels


def relabel(result: SequenceResult, mode: FusionMode, online: bool = False) -> SequenceResult:
    """Overwrite fused labels with each track's consensus label.

    The default is retroactive: one label per track, applied to all of its
    frames.  With ``online=True`` the label at frame t uses entries up to t
    only.  Unmatched detections keep their raw label; ``FusionMode.NONE``
    leaves every fused label equal to the raw label.
    """
    by_track: Dict[int, Dict[int, int]] = {
        t.id: {} if mode is FusionMode.NONE else _track_labels(t, mode, online)
        for t in result.tracks
    }
    per_frame = []
    for rec in result.per_frame:
        fused = rec.raw_label
        if rec.track_id is not None:
            fused = by_track[rec.track_id].get(rec.frame_id, rec.raw_label)
        per_frame.append(
            DetectionLabel(rec.frame_id, rec.detection, rec.track_id, rec.raw_label, fused)
        )
    return SequenceResult(tracks=result.tracks, per_frame=tuple(per_frame))
