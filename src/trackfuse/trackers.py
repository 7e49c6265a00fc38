"""Pluggable tracking-by-detection: six association strategies, one lifecycle.

Every tracker consumes per-frame detections and maintains a set of live
tracks.  Only detections with score >= ``det_threshold_high`` take part in the
primary association and may spawn tracks; ByteTrack additionally runs a second
association pass over [det_threshold_low, det_threshold_high) detections,
which may extend tracks but never start them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import assoc, motion
from .errors import (
    DegenerateGeometry,
    InvalidConfig,
    MissingEmbedding,
    OutOfOrderFrame,
)
from .metrics import NULL_TIMER, STAGE_REID_COST
from .model import (
    BoundingBox,
    Detection,
    DetectionLabel,
    SequenceResult,
    Track,
    TrackEntry,
    config_number,
)

EMBEDDING_SMOOTHING = 0.9
# Exponential moving average factor for a track's appearance embedding.


class TrackerKind(Enum):
    IOU = "iou"
    CENTROID = "centroid"
    CENTROID_KF = "centroid-kf"
    SORT = "sort"
    BYTETRACK = "bytetrack"
    APPEARANCE = "appearance"


_KF_KINDS = {TrackerKind.CENTROID_KF, TrackerKind.SORT, TrackerKind.BYTETRACK,
             TrackerKind.APPEARANCE}


@dataclass(frozen=True)
class TrackerConfig:
    """Gates, thresholds, and lifecycle parameters for one tracker run.

    ``centroid_gate`` is a fraction of the larger box diagonal; ``iou_gate``
    and ``cosine_gate`` are absolute similarity floors.
    """

    kind: TrackerKind
    iou_gate: float = 0.3
    centroid_gate: float = 0.5
    det_threshold_high: float = 0.5
    det_threshold_low: float = 0.1
    min_hits: int = 1
    max_age: int = 10
    appearance_weight: float = 0.5
    cosine_gate: float = 0.25
    motion_spec: Optional[motion.MotionModelSpec] = None

    def __post_init__(self):
        object.__setattr__(self, "kind", TrackerKind(self.kind))
        for f in fields(self):  # the annotations are strings under `from __future__`
            if f.type in ("float", "int"):
                value = config_number(getattr(self, f.name), f.name, integral=f.type == "int")
                object.__setattr__(self, f.name, value)
        if not (0.0 <= self.det_threshold_low <= self.det_threshold_high <= 1.0):
            raise InvalidConfig("need 0 <= det_threshold_low <= det_threshold_high <= 1")
        if self.min_hits < 1:
            raise InvalidConfig("min_hits must be >= 1")
        if self.max_age < 0:
            raise InvalidConfig("max_age must be >= 0")
        if not (0.0 <= self.appearance_weight <= 1.0):
            raise InvalidConfig("appearance_weight must lie in [0, 1]")
        if not (0.0 <= self.iou_gate <= 1.0):
            raise InvalidConfig("iou_gate must lie in [0, 1]")
        if self.centroid_gate <= 0.0:
            raise InvalidConfig("centroid_gate must be > 0")

    def resolved_motion_spec(self) -> motion.MotionModelSpec:
        if self.motion_spec is not None:
            return self.motion_spec
        model = (motion.MotionModel.CENTROID_CV4
                 if self.kind is TrackerKind.CENTROID_KF
                 else motion.MotionModel.SORT_CV7)
        return motion.default_spec(model)

    @classmethod
    def from_dict(cls, data: dict) -> "TrackerConfig":
        """The config JSON-like ``data`` describes; a key it does not read is InvalidConfig."""
        data = dict(data)
        known = {f.name for f in fields(cls) if f.name != "motion_spec"} | {"motion"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise InvalidConfig(f"unknown config fields: {unknown}")
        try:
            spec = _motion_spec(data.pop("motion")) if "motion" in data else None
            return cls(motion_spec=spec, **data)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidConfig(f"bad tracker config: {exc}") from None


def _motion_spec(data) -> motion.MotionModelSpec:
    """``data`` holds a ``model`` name and only the noise fields that model reads."""
    if not isinstance(data, dict):
        raise InvalidConfig(f"motion config must be a JSON object, got {data!r}")
    model = motion.MotionModel(data.get("model"))
    unknown = sorted(set(data) - {"model", *motion.NOISE_FIELDS[model]})
    if unknown:
        raise InvalidConfig(f"motion model {model.value!r} does not read fields {unknown}")
    return motion.MotionModelSpec(**{**data, "model": model})


class _LiveTrack:
    """Mutable tracker-internal workspace; frozen into a Track on emission."""

    __slots__ = ("id", "entries", "age_since_update", "state", "embedding")

    def __init__(self, track_id: int, frame_id: int, det: Detection,
                 kf_state: Optional[motion.KalmanState]):
        self.id = track_id
        self.entries: List[TrackEntry] = [TrackEntry(frame_id, det.bbox, det.dist)]
        self.age_since_update = 0
        self.state = kf_state
        self.embedding = None if det.embedding is None else _unit(det.embedding)

    @property
    def last_bbox(self) -> BoundingBox:
        return self.entries[-1].bbox

    def reference_bbox(self) -> BoundingBox:
        """Box used for geometric costs: the KF prediction when available."""
        if self.state is not None:
            try:
                return motion.state_to_bbox(self.state)
            except DegenerateGeometry:
                pass
        return self.last_bbox

    def mark_matched(self, frame_id: int, det: Detection):
        self.entries.append(TrackEntry(frame_id, det.bbox, det.dist))
        self.age_since_update = 0
        if self.state is not None:
            self.state = motion.kf_update(self.state, det.bbox)
        if det.embedding is not None:
            if self.embedding is None:
                self.embedding = _unit(det.embedding)
            else:
                mixed = (EMBEDDING_SMOOTHING * self.embedding
                         + (1.0 - EMBEDDING_SMOOTHING) * det.embedding)
                self.embedding = _unit(mixed)

    def mark_missed(self, max_age: int) -> bool:
        """Age the track one step; returns True when it just died."""
        self.age_since_update += 1
        return self.age_since_update > max_age

    def freeze(self) -> Track:
        return Track(id=self.id, entries=tuple(self.entries))


def _unit(vec: np.ndarray) -> np.ndarray:
    arr = np.asarray(vec, dtype=float)
    norm = float(np.linalg.norm(arr))
    return arr / norm if norm > 0.0 else arr.copy()


class TrackerState:
    """Live tracks plus the id counter and frame cursor for one sequence."""

    __slots__ = ("live", "finished", "next_id", "cursor")

    def __init__(self):
        self.live: List[_LiveTrack] = []
        self.finished: List[_LiveTrack] = []
        self.next_id = 1
        self.cursor = -1


def _geometric_cost(kind: TrackerKind, tracks: Sequence[_LiveTrack],
                    dets: Sequence[Detection], config: TrackerConfig,
                    timer=NULL_TIMER) -> assoc.CostMatrix:
    n_t, n_d = len(tracks), len(dets)
    values = np.zeros((n_t, n_d))
    mask = np.zeros((n_t, n_d), dtype=bool)

    if kind in (TrackerKind.CENTROID, TrackerKind.CENTROID_KF):
        for i, trk in enumerate(tracks):
            ref = trk.reference_bbox()
            for j, det in enumerate(dets):
                d = assoc.centroid_distance(ref, det.bbox)
                gate = config.centroid_gate * max(ref.diagonal, det.bbox.diagonal)
                values[i, j] = d
                mask[i, j] = d <= gate
        return assoc.CostMatrix(values, mask)

    ious = assoc.iou_matrix([trk.reference_bbox().as_tuple() for trk in tracks],
                            [det.bbox.as_tuple() for det in dets])
    mask = ious >= config.iou_gate
    values = 1.0 - ious

    if kind is TrackerKind.APPEARANCE:
        with timer.stage(STAGE_REID_COST):
            cos, ok = _cosine_matrix(tracks, dets)
        w = config.appearance_weight
        values = w * (1.0 - cos) + (1.0 - w) * (1.0 - ious)
        mask = mask & ok & (cos >= config.cosine_gate)
    return assoc.CostMatrix(values, mask)


def _cosine_matrix(tracks: Sequence[_LiveTrack],
                   dets: Sequence[Detection]) -> Tuple[np.ndarray, np.ndarray]:
    """Pairwise cosine similarity plus a validity mask (both sides non-zero)."""
    n_t, n_d = len(tracks), len(dets)
    cos = np.zeros((n_t, n_d))
    ok = np.zeros((n_t, n_d), dtype=bool)
    if n_t == 0 or n_d == 0:
        return cos, ok
    det_embs = np.stack([d.embedding for d in dets])
    det_norms = np.linalg.norm(det_embs, axis=1)
    for i, trk in enumerate(tracks):
        if trk.embedding is None:
            continue
        t_norm = float(np.linalg.norm(trk.embedding))
        if t_norm == 0.0:
            continue
        valid = det_norms > 0.0
        cos[i, valid] = det_embs[valid] @ trk.embedding / (det_norms[valid] * t_norm)
        ok[i, valid] = True
    return cos, ok


def _greedy_iou(tracks: Sequence[_LiveTrack], dets: Sequence[Detection],
                config: TrackerConfig):
    """Highest-IoU-first greedy matching; equal IoUs go to the lower track, then detection."""
    ious = assoc.iou_matrix([trk.last_bbox.as_tuple() for trk in tracks],
                            [det.bbox.as_tuple() for det in dets])
    # nonzero lists pairs in (i, j) order, which the stable sort keeps among equal IoUs.
    rows, cols = np.nonzero(ious >= config.iou_gate)
    order = np.argsort(-ious[rows, cols], kind="stable")
    used_t, used_d = set(), set()
    matches = []
    for i, j in zip(rows[order].tolist(), cols[order].tolist()):
        if i in used_t or j in used_d:
            continue
        matches.append((i, j))
        used_t.add(i)
        used_d.add(j)
    um_t = tuple(i for i in range(len(tracks)) if i not in used_t)
    um_d = tuple(j for j in range(len(dets)) if j not in used_d)
    return tuple(matches), um_t, um_d


def tracker_step(state: TrackerState, frame_id: int,
                 detections: Sequence[Detection], config: TrackerConfig,
                 timer=NULL_TIMER) -> Tuple[TrackerState, List[Tuple[int, Optional[int]]]]:
    """Advance one frame; returns the state and (detection_index, track_id) pairs.

    Raises:
        OutOfOrderFrame: frame_id is not strictly beyond the cursor.
        MissingEmbedding: the appearance tracker saw a detection without one.
    """
    if frame_id <= state.cursor:
        raise OutOfOrderFrame(f"frame {frame_id} is not past cursor {state.cursor}")
    kind = config.kind
    if kind is TrackerKind.APPEARANCE:
        for det in detections:
            if det.embedding is None:
                raise MissingEmbedding(f"frame {frame_id}: appearance tracking needs embeddings")

    high_idx = [i for i, d in enumerate(detections) if d.score >= config.det_threshold_high]
    low_idx = ([i for i, d in enumerate(detections)
                if config.det_threshold_low <= d.score < config.det_threshold_high]
               if kind is TrackerKind.BYTETRACK else [])

    if kind in _KF_KINDS:
        for trk in state.live:
            if trk.state is not None:
                trk.state = motion.kf_predict(trk.state)

    assigned: Dict[int, int] = {}
    high_dets = [detections[i] for i in high_idx]
    if kind is TrackerKind.IOU:
        matches, um_t, um_d = _greedy_iou(state.live, high_dets, config)
    else:
        cost = _geometric_cost(kind, state.live, high_dets, config, timer)
        result = assoc.solve_assignment(cost)
        matches, um_t, um_d = result.matches, result.unmatched_tracks, result.unmatched_detections

    matched_tracks = set()
    for t_i, d_i in matches:
        trk = state.live[t_i]
        trk.mark_matched(frame_id, high_dets[d_i])
        assigned[high_idx[d_i]] = trk.id
        matched_tracks.add(t_i)

    # ByteTrack second stage: leftover tracks vs low-confidence detections.
    spawn_idx = [high_idx[d_i] for d_i in um_d]
    if kind is TrackerKind.BYTETRACK and low_idx and um_t:
        rest = [state.live[i] for i in um_t]
        low_dets = [detections[i] for i in low_idx]
        cost = _geometric_cost(TrackerKind.SORT, rest, low_dets, config, timer)
        second = assoc.solve_assignment(cost)
        for t_i, d_i in second.matches:
            trk = rest[t_i]
            trk.mark_matched(frame_id, low_dets[d_i])
            assigned[low_idx[d_i]] = trk.id
            matched_tracks.add(um_t[t_i])

    # Age and retire unmatched tracks.
    survivors = []
    for i, trk in enumerate(state.live):
        if i not in matched_tracks and trk.mark_missed(config.max_age):
            state.finished.append(trk)
        else:
            survivors.append(trk)
    state.live = survivors

    # Unmatched high-confidence detections spawn tentative tracks.
    kf_spec = config.resolved_motion_spec() if spawn_idx and kind in _KF_KINDS else None
    for det_index in spawn_idx:
        det = detections[det_index]
        kf_state = motion.kf_init(det.bbox, kf_spec) if kf_spec is not None else None
        trk = _LiveTrack(state.next_id, frame_id, det, kf_state)
        state.next_id += 1
        state.live.append(trk)
        assigned[det_index] = trk.id

    state.cursor = frame_id
    return state, [(i, assigned.get(i)) for i in range(len(detections))]


def run_sequence(frames: Sequence[Tuple[int, Sequence[Detection]]],
                 config: TrackerConfig, timer=NULL_TIMER) -> SequenceResult:
    """Fold the tracker over a whole sequence of (frame_id, detections) pairs.

    Emits every track with at least ``min_hits`` entries; shorter dead tracks
    are dropped as noise and their detections reported as unmatched.  Fused
    labels start out equal to raw labels; apply ``fusion.relabel`` afterwards.
    """
    state = TrackerState()
    raw_records: List[Tuple[int, Detection, Optional[int]]] = []
    for frame_id, dets in frames:
        state, assigned = tracker_step(state, frame_id, dets, config, timer)
        for det_index, track_id in assigned:
            raw_records.append((frame_id, dets[det_index], track_id))

    finished = state.finished + state.live
    kept = {t.id: t for t in finished if len(t.entries) >= config.min_hits}
    tracks = tuple(t.freeze() for t in sorted(kept.values(), key=lambda t: t.id))

    per_frame = []
    for frame_id, det, track_id in raw_records:
        if track_id is not None and track_id not in kept:
            track_id = None
        raw = det.dist.argmax
        per_frame.append(DetectionLabel(frame_id, det, track_id, raw, raw))
    return SequenceResult(tracks=tracks, per_frame=tuple(per_frame))
