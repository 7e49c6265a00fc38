"""Pluggable tracking-by-detection: six association strategies, one lifecycle.

Every tracker consumes per-frame detections and keeps its live tracks as the
rows of one table (:class:`TrackerState`).  Only detections with score >=
``det_threshold_high`` take part in the primary association and may spawn
tracks; ByteTrack additionally runs a second association pass over
[det_threshold_low, det_threshold_high) detections, which may extend tracks
but never start them.

:func:`track_columns` runs a sequence's :class:`~trackfuse.model.Columns`
record: each :func:`tracker_step` takes one frame's slices of the ``box``,
``score`` and ``emb`` columns, and the run returns one track id per row, -1
for a row no emitted track holds.  :func:`run_sequence` takes (frame_id,
Detection list) pairs instead and returns a
:class:`~trackfuse.model.ColumnResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import assoc, motion
from .errors import InvalidConfig, InvalidValue, MissingEmbedding, OutOfOrderFrame
from .metrics import NULL_TIMER, STAGE_REID_COST
from .model import BoundingBox, ColumnResult, Columns, Detection, config_number

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
    and ``cosine_gate`` are absolute similarity floors.  Every real-valued
    field must be finite: NaN and infinities are InvalidConfig.
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
        object.__setattr__(self, "_motion", self.motion_spec or motion.default_spec(
            motion.MotionModel.CENTROID_CV4 if self.kind is TrackerKind.CENTROID_KF
            else motion.MotionModel.SORT_CV7))

    def resolved_motion_spec(self) -> motion.MotionModelSpec:
        return self._motion

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


def _row_norms(vecs: np.ndarray) -> np.ndarray:
    """(N, 1) norms of the rows, each summed as np.linalg.norm sums one vector."""
    return np.sqrt(np.matmul(vecs[:, None, :], vecs[:, :, None])[:, 0])


def _unit_rows(vecs: np.ndarray) -> np.ndarray:
    norms = _row_norms(vecs)
    return np.divide(vecs, norms, out=vecs.copy(), where=norms > 0.0)


class TrackerState:
    """The id counter, frame cursor and live tracks of one sequence.

    ``table`` is the live tracks' struct of arrays, row i of every column
    being one track: ``id`` (N,), ``age`` (N,) frames since its last match,
    ``box`` (N, 4) its last matched box, ``mean`` (N, d) and ``cov``
    (N, d, d) for Kalman trackers, ``emb`` (N, E) unit EMA embeddings for the
    appearance tracker.
    """

    __slots__ = ("next_id", "cursor", "table")

    def __init__(self):
        self.next_id = 1
        self.cursor = -1
        self.table: Dict[str, np.ndarray] = {
            "id": np.zeros(0, dtype=int), "age": np.zeros(0, dtype=int), "box": np.zeros((0, 4))}


def _reference_boxes(state: TrackerState,
                     spec: Optional[motion.MotionModelSpec]) -> np.ndarray:
    """(N, 4) cost boxes: KF predictions, else the ``box`` column itself, which callers must not
    write.  A degenerate prediction falls back to the last box; a non-box one is InvalidValue."""
    last = state.table["box"]
    if spec is None or not len(last):
        return last
    # A CENTROID_CV4 state's extent is the size of its track's last box.
    boxes, degenerate = motion.corner_boxes(state.table["mean"], last[:, 2:] - last[:, :2], spec)
    if degenerate.any():
        boxes[degenerate] = last[degenerate]
    if not ((boxes[:, 2:] > boxes[:, :2]).all() and np.isfinite(boxes).all()):
        for row in boxes.tolist():
            BoundingBox(*row)  # the first invalid box raises the InvalidValue it gets
    return boxes


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise ``math.hypot``, which np.hypot does not match bit for bit."""
    return np.array(list(map(math.hypot, x.ravel().tolist(), y.ravel().tolist()))).reshape(x.shape)


def _geometric_cost(kind: TrackerKind, boxes: np.ndarray, det_boxes: np.ndarray,
                    config: TrackerConfig, embs: Optional[np.ndarray] = None,
                    det_embs: Optional[np.ndarray] = None, timer=NULL_TIMER) -> assoc.CostMatrix:
    """Costs of tracks with reference ``boxes`` (and ``embs`` for appearance) against detections."""
    n_t, n_d = len(boxes), len(det_boxes)
    if n_t == 0 or n_d == 0:
        return assoc.CostMatrix(np.zeros((n_t, n_d)), np.zeros((n_t, n_d), dtype=bool))

    if kind in (TrackerKind.CENTROID, TrackerKind.CENTROID_KF):
        # Distance between box centers per pair, gated at a fraction of the larger box diagonal.
        c_t, c_d = (0.5 * (b[:, :2] + b[:, 2:]) for b in (boxes, det_boxes))
        diff = c_t[:, None] - c_d[None]
        values = _hypot(diff[..., 0], diff[..., 1])
        diag_t, diag_d = (_hypot(*(b[:, 2:] - b[:, :2]).T) for b in (boxes, det_boxes))
        gate = config.centroid_gate * np.maximum(diag_t[:, None], diag_d[None])
        return assoc.CostMatrix(values, values <= gate)

    ious = assoc.iou_matrix(boxes, det_boxes)
    mask = ious >= config.iou_gate
    values = 1.0 - ious

    if kind is TrackerKind.APPEARANCE:
        with timer.stage(STAGE_REID_COST):
            cos, ok = _cosine_matrix(embs, det_embs)
        w = config.appearance_weight
        values = w * (1.0 - cos) + (1.0 - w) * (1.0 - ious)
        mask = mask & ok & (cos >= config.cosine_gate)
    return assoc.CostMatrix(values, mask)


def _cosine_matrix(embs: np.ndarray, det_embs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Pairwise cosine similarity plus a validity mask (both sides non-zero)."""
    det_norms = np.linalg.norm(det_embs, axis=1)
    t_norms = _row_norms(embs)
    valid = det_norms > 0.0
    ok = (t_norms > 0.0) & valid
    dots = np.zeros(ok.shape)
    # One matvec per track over the non-zero detections sums as a per-track loop; GEMM would not.
    dots[:, valid] = np.matmul(det_embs[valid][None], embs[:, :, None])[..., 0]
    cos = np.zeros(ok.shape)
    np.divide(dots, det_norms * t_norms, out=cos, where=ok)
    return cos, ok


def _greedy_iou(boxes: np.ndarray, det_boxes: np.ndarray, config: TrackerConfig):
    """Highest-IoU-first greedy matching; equal IoUs go to the lower track, then detection."""
    ious = assoc.iou_matrix(boxes, det_boxes)
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
    um_t = tuple(i for i in range(len(boxes)) if i not in used_t)
    um_d = tuple(j for j in range(len(det_boxes)) if j not in used_d)
    return tuple(matches), um_t, um_d


def _update_rows(state: TrackerState, rows: List[int], boxes: np.ndarray,
                 embs: Optional[np.ndarray], spec: Optional[motion.MotionModelSpec],
                 kind: TrackerKind):
    """Correct table ``rows`` against their matched ``boxes`` (and ``embs``) in one batch."""
    if not rows:
        return
    table = state.table
    if rows == list(range(len(table["id"]))):  # the whole table in order: no gather or scatter
        rows = slice(None)
    table["box"][rows] = boxes
    if spec is not None:
        table["mean"][rows], table["cov"][rows] = motion.kf_update(
            table["mean"][rows], table["cov"][rows], boxes, spec, table["id"][rows])
    if kind is TrackerKind.APPEARANCE:
        mixed = EMBEDDING_SMOOTHING * table["emb"][rows] + (1.0 - EMBEDDING_SMOOTHING) * embs
        table["emb"][rows] = _unit_rows(mixed)


def _spawn_rows(state: TrackerState, boxes: np.ndarray, embs: Optional[np.ndarray],
                spec: Optional[motion.MotionModelSpec], kind: TrackerKind) -> List[int]:
    """Start one track per detection box, append their table rows; returns the new ids."""
    ids = list(range(state.next_id, state.next_id + len(boxes)))
    new = {"id": np.array(ids), "age": np.zeros(len(boxes), dtype=int), "box": boxes}
    if spec is not None:
        new["mean"], new["cov"] = motion.kf_init(boxes, spec, ids)
    if kind is TrackerKind.APPEARANCE:
        new["emb"] = _unit_rows(embs)
    for name, col in new.items():
        state.table[name] = np.concatenate([state.table.get(name, col[:0]), col])
    state.next_id += len(boxes)
    return ids


def tracker_step(state: TrackerState, frame_id: int, boxes: np.ndarray, scores: np.ndarray,
                 embs: Optional[np.ndarray], config: TrackerConfig,
                 timer=NULL_TIMER) -> Tuple[TrackerState, np.ndarray]:
    """Advance one frame, given as its rows of the sequence columns; returns each row's track id.

    ``boxes`` (n, 4), ``scores`` (n,) and ``embs`` (n, E) or None are the
    frame's slices.  A row no track takes gets -1.  Kalman trackers predict
    all live rows in one batch and correct the rows matched in either
    ByteTrack stage in one more; stage two reads only rows stage one left.

    Raises:
        OutOfOrderFrame: frame_id is not strictly beyond the cursor.
        MissingEmbedding: the appearance tracker got detections without embeddings.
    """
    if frame_id <= state.cursor:
        raise OutOfOrderFrame(f"frame {frame_id} is not past cursor {state.cursor}")
    kind = config.kind
    if kind is not TrackerKind.APPEARANCE:
        embs = None  # only the appearance tracker reads them
    elif embs is None and len(boxes):
        raise MissingEmbedding(f"frame {frame_id}: appearance tracking needs embeddings")

    high = scores >= config.det_threshold_high
    high_idx = np.flatnonzero(high)
    high_boxes = boxes if len(high_idx) == len(boxes) else boxes[high_idx]

    spec = config.resolved_motion_spec() if kind in _KF_KINDS else None
    table = state.table
    if spec is not None and len(table["id"]):
        table["mean"], table["cov"] = motion.kf_predict(table["mean"], table["cov"], spec,
                                                        table["id"])

    ref_boxes = _reference_boxes(state, spec)
    high_embs = None if embs is None else embs[high_idx]
    if kind is TrackerKind.IOU:
        matches, um_t, um_d = _greedy_iou(ref_boxes, high_boxes, config)
    else:
        cost = _geometric_cost(kind, ref_boxes, high_boxes, config, table.get("emb"),
                               high_embs, timer)
        result = assoc.solve_assignment(cost)
        matches, um_t, um_d = result.matches, result.unmatched_tracks, result.unmatched_detections
    rows = [t_i for t_i, _ in matches]
    det_rows = high_idx[[d_i for _, d_i in matches]].tolist()

    # ByteTrack second stage: leftover tracks vs low-confidence detections.
    if kind is TrackerKind.BYTETRACK and um_t:
        low_idx = np.flatnonzero(~high & (scores >= config.det_threshold_low))
        if len(low_idx):
            cost = _geometric_cost(TrackerKind.SORT, ref_boxes[list(um_t)], boxes[low_idx],
                                   config, timer=timer)
            for t_i, d_i in assoc.solve_assignment(cost).matches:
                rows.append(um_t[t_i])
                det_rows.append(int(low_idx[d_i]))
    assigned = np.full(len(boxes), -1)
    assigned[det_rows] = table["id"][rows]
    _update_rows(state, rows, boxes[det_rows], None if embs is None else embs[det_rows],
                 spec, kind)

    # Age unmatched tracks and retire those past max_age.
    table["age"] += 1
    table["age"][rows] = 0
    keep = table["age"] <= config.max_age
    if not keep.all():
        state.table = {name: col[keep] for name, col in table.items()}

    # Unmatched high-confidence detections spawn tentative tracks.
    spawn = high_idx[list(um_d)]
    if len(spawn):
        assigned[spawn] = _spawn_rows(state, boxes[spawn], None if embs is None else embs[spawn],
                                      spec, kind)

    state.cursor = frame_id
    return state, assigned


def track_columns(cols: Columns, config: TrackerConfig, timer=NULL_TIMER) -> np.ndarray:
    """Fold the tracker over a sequence's frames; returns each row's track id, -1 for none.

    A track with fewer than ``min_hits`` rows is dropped as noise, and its
    rows read -1 like unmatched detections.
    """
    state = TrackerState()
    track = np.full(len(cols.score), -1)
    bounds = cols.starts.tolist()
    for frame_id, lo, hi in zip(cols.frame_ids.tolist(), bounds, bounds[1:]):
        state, track[lo:hi] = tracker_step(state, frame_id, cols.box[lo:hi], cols.score[lo:hi],
                                           None if cols.emb is None else cols.emb[lo:hi],
                                           config, timer)
    if config.min_hits > 1:  # a row's count is its track's length; -1 rows stay -1
        track[np.bincount(track + 1)[track + 1] < config.min_hits] = -1
    return track


def run_sequence(frames: Sequence[Tuple[int, Sequence[Detection]]],
                 config: TrackerConfig, timer=NULL_TIMER) -> ColumnResult:
    """:func:`track_columns` of (frame_id, detections) pairs, one row per detection in order.

    Fused labels equal raw labels; ``fusion.relabel(res.cols, res.track, ...)`` fuses them.

    Raises:
        InvalidValue: a detection's own frame_id is not its frame's.
    """
    frames = list(frames)
    for frame_id, dets in frames:
        for det in dets:
            if det.frame_id != frame_id:
                raise InvalidValue(f"frame {frame_id} holds a detection of frame {det.frame_id}")
    cols = Columns.from_frames(frames)
    raw = cols.probs.argmax(axis=1)
    return ColumnResult(cols, track_columns(cols, config, timer), raw, raw)
