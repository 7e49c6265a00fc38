"""Pluggable tracking-by-detection: six association strategies, one lifecycle.

Every tracker consumes per-frame detections and keeps its live tracks as the
rows of one table (:class:`TrackerState`).  Only detections with score >=
``det_threshold_high`` take part in the primary association and may spawn
tracks; ByteTrack additionally runs a second association pass over
[det_threshold_low, det_threshold_high) detections, which may extend tracks
but never start them.

:func:`track_columns` runs a sequence's :class:`~trackfuse.model.Columns`
record: each :func:`tracker_step` takes one frame's slices of the ``box`` column
as (4, n) rows, of their observations (Kalman trackers, observed once per
sequence), and of ``score`` and ``emb``; the run returns one track id per row,
-1 for a row no emitted track holds.  :func:`run_sequence` takes (frame_id,
Detection list) pairs instead and returns a :class:`~trackfuse.model.ColumnResult`.
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

_TRACK_LAST = ("box", "mean", "cov")  # the TrackerState.table columns whose track axis is last
_EVERY = slice(None)  # the rows index of an update that matched every track in table order


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
    field must be finite: NaN and infinities are InvalidConfig.  The motion spec is resolved
    once; ``_kalman``, which every step reads, is it for the Kalman kinds and None otherwise.
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
        object.__setattr__(self, "_kalman", self._motion if self.kind in _KF_KINDS else None)

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
    """(N,) norms of the rows, each summed as np.linalg.norm sums one vector."""
    return np.sqrt(np.matmul(vecs[:, None, :], vecs[:, :, None])[:, 0, 0])


def _rescaled(vecs: np.ndarray, norms) -> Tuple[np.ndarray, np.ndarray]:
    """``vecs`` and their ``norms(vecs)``, after dividing each row of finite entries, not all 0,
    whose norm under- or overflowed to 0 or inf by its largest magnitude.  Cosines and unit
    rows do not depend on scale; every other row keeps its values and its norm."""
    with np.errstate(over="ignore"):
        lens = norms(vecs)
    listed = lens.tolist()  # Python's min and max cost less than numpy's on a few rows
    if 0.0 < min(listed, default=1.0) and max(listed, default=0.0) < math.inf:
        return vecs, lens
    top = np.abs(vecs).max(axis=1, initial=0.0)  # NaN or inf on a row that holds one
    lost = ~((lens > 0.0) & (lens < math.inf)) & (top > 0.0) & (top < math.inf)
    vecs = np.divide(vecs, top[:, None], out=vecs.copy(), where=lost[:, None])
    return vecs, np.where(lost, norms(vecs), lens)


def _unit_rows(vecs: np.ndarray) -> np.ndarray:
    vecs, norms = _rescaled(vecs, _row_norms)
    return np.divide(vecs, norms[:, None], out=vecs.copy(), where=norms[:, None] > 0.0)


class TrackerState:
    """The id counter, frame cursor and live tracks of one sequence.

    ``table`` is the live tracks' struct of arrays, one track per entry along
    each column's track axis.  That axis is the first of ``id`` (N,), ``age``
    (N,) frames since its last match and ``emb`` (N, E) unit EMA embeddings
    (appearance tracker), and the last of ``box`` (4, N) its last matched box and
    the Kalman columns (see ``motion``), ``mean`` (d, N) and ``cov`` (3, o, N).
    """

    __slots__ = ("next_id", "cursor", "table")

    def __init__(self):
        self.next_id = 1
        self.cursor = -1
        self.table: Dict[str, np.ndarray] = {
            "id": np.zeros(0, dtype=int), "age": np.zeros(0, dtype=int), "box": np.zeros((4, 0))}


def _reference_boxes(state: TrackerState,
                     spec: Optional[motion.MotionModelSpec]) -> np.ndarray:
    """(4, N) cost boxes: KF predictions, else the ``box`` column itself, which callers must not
    write.  A degenerate prediction falls back to the last box; a non-box one is InvalidValue."""
    last = state.table["box"]
    if spec is None or not last.shape[1]:
        return last
    if spec.model is motion.MotionModel.SORT_CV7:
        boxes, degenerate = motion.corner_boxes(state.table["mean"], None, spec)
    else:  # a CENTROID_CV4 state's extent is its last box's size, inf past the float range
        with np.errstate(over="ignore"):
            boxes, degenerate = motion.corner_boxes(state.table["mean"], last[2:] - last[:2], spec)
    if np.count_nonzero(degenerate):
        boxes[:, degenerate] = last[:, degenerate]
    n_ok = np.count_nonzero(boxes[2:] > boxes[:2]) + np.count_nonzero(np.isfinite(boxes))
    if n_ok < 6 * boxes.shape[1]:  # 2 ordered corner pairs and 4 finite coordinates per box
        for row in boxes.T.tolist():
            BoundingBox(*row)  # the first invalid box raises the InvalidValue it gets
    return boxes


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise ``math.hypot``, which np.hypot does not match bit for bit."""
    return np.array(list(map(math.hypot, x.ravel().tolist(), y.ravel().tolist()))).reshape(x.shape)


def _geometric_cost(kind: TrackerKind, boxes: np.ndarray, det_boxes: np.ndarray,
                    config: TrackerConfig, embs: Optional[np.ndarray] = None,
                    det_embs: Optional[np.ndarray] = None, timer=NULL_TIMER) -> assoc.CostMatrix:
    """Costs of tracks at ``boxes`` (4, N) (and ``embs``) against detections at ``det_boxes``."""
    n_t, n_d = boxes.shape[1], det_boxes.shape[1]
    if n_t == 0 or n_d == 0:
        return assoc.CostMatrix(np.zeros((n_t, n_d)), np.zeros((n_t, n_d), dtype=bool))

    if kind in (TrackerKind.CENTROID, TrackerKind.CENTROID_KF):
        # Distance between box centers per pair, gated at a fraction of the larger box diagonal.
        with np.errstate(over="ignore", invalid="ignore"):  # extents past the float range: inf
            c_t, c_d = (0.5 * (b[:2] + b[2:]) for b in (boxes, det_boxes))
            diff = c_t[:, :, None] - c_d[:, None]
            values = _hypot(diff[0], diff[1])
            diag_t, diag_d = (_hypot(*(b[2:] - b[:2])) for b in (boxes, det_boxes))
            gate = config.centroid_gate * np.maximum(diag_t[:, None], diag_d[None])
        return assoc.CostMatrix(values, values <= gate)

    ious = assoc.iou_matrix(boxes, det_boxes)
    mask = ious >= config.iou_gate
    if kind is not TrackerKind.APPEARANCE:  # an admitted IoU lies in [gate, 1]: a finite cost
        return assoc.CostMatrix._of_iou(1.0 - ious, mask)

    with timer.stage(STAGE_REID_COST):
        cos, ok = _cosine_matrix(embs, det_embs)
    w = config.appearance_weight
    values = w * (1.0 - cos) + (1.0 - w) * (1.0 - ious)
    return assoc.CostMatrix(values, mask & ok & (cos >= config.cosine_gate))


def _cosine_matrix(embs: np.ndarray, det_embs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Pairwise cosine similarity plus a validity mask (both sides non-zero).

    ``embs`` are the table's unit rows, whose norms are finite; detection rows are rescaled."""
    det_embs, det_norms = _rescaled(det_embs, lambda vecs: np.linalg.norm(vecs, axis=1))
    t_norms = _row_norms(embs)[:, None]
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
    rows, cols = (ious >= config.iou_gate).nonzero()
    order = (-ious[rows, cols]).argsort(kind="stable")
    used_t, used_d = set(), set()
    matches = []
    for i, j in zip(rows[order].tolist(), cols[order].tolist()):
        if i in used_t or j in used_d:
            continue
        matches.append((i, j))
        used_t.add(i)
        used_d.add(j)
    um_t = tuple(i for i in range(boxes.shape[1]) if i not in used_t)
    um_d = tuple(j for j in range(det_boxes.shape[1]) if j not in used_d)
    return tuple(matches), um_t, um_d


def _update_rows(state: TrackerState, rows, at: np.ndarray, boxes: np.ndarray,
                 obs: Optional[np.ndarray], embs: Optional[np.ndarray],
                 spec: Optional[motion.MotionModelSpec], kind: TrackerKind):
    """Correct table ``rows`` against the frame's detections ``at`` (index array) in one batch.

    ``rows`` indexes distinct table rows in any order (ByteTrack's second stage appends its
    own), or is ``_EVERY``: then the table's columns are read and replaced without a gather
    or scatter.  Either way each row gets the same values."""
    table = state.table
    whole = rows is _EVERY
    new = {"box": boxes.take(at, 1)}  # take keeps each gathered row contiguous
    if spec is not None:
        means, covs = ((table["mean"], table["cov"]) if whole else
                       (table["mean"].take(rows, -1), table["cov"].take(rows, -1)))
        new["mean"], new["cov"] = motion.kf_update(means, covs, obs.take(at, 1), spec,
                                                   table["id"][rows])  # read by errors only
    if kind is TrackerKind.APPEARANCE:
        mixed = EMBEDDING_SMOOTHING * table["emb"][rows] + (1.0 - EMBEDDING_SMOOTHING) * embs[at]
        new["emb"] = _unit_rows(mixed)
    if whole:
        table.update(new)
        return
    for name, col in new.items():
        table[name][(..., rows) if name in _TRACK_LAST else rows] = col


def _spawn_rows(state: TrackerState, at, boxes: np.ndarray, obs: Optional[np.ndarray],
                embs: Optional[np.ndarray], spec: Optional[motion.MotionModelSpec],
                kind: TrackerKind) -> List[int]:
    """Start one track per detection ``at`` (indices), append their table rows; returns the ids."""
    ids = list(range(state.next_id, state.next_id + len(at)))
    new = {"id": np.array(ids), "age": np.zeros(len(ids), dtype=int), "box": boxes.take(at, 1)}
    if spec is not None:
        new["mean"], new["cov"] = motion.kf_init(obs.take(at, 1), spec, ids)
    if kind is TrackerKind.APPEARANCE:
        new["emb"] = _unit_rows(embs[at])
    for name, col in new.items():
        old = state.table.get(name, col[..., :0] if name in _TRACK_LAST else col[:0])
        state.table[name] = np.concatenate([old, col], axis=-1 if name in _TRACK_LAST else 0)
    state.next_id += len(ids)
    return ids


def tracker_step(state: TrackerState, frame_id: int, boxes: np.ndarray, obs: Optional[np.ndarray],
                 scores: np.ndarray, embs: Optional[np.ndarray], config: TrackerConfig,
                 timer=NULL_TIMER) -> Tuple[TrackerState, np.ndarray]:
    """Advance one frame, given as its rows of the sequence columns; returns each row's track id.

    ``boxes`` (4, n), their ``motion.observe`` rows ``obs`` (o, n) (None without
    a motion model), ``scores`` (n,) and ``embs`` (n, E) or None are the frame's
    slices.  A row no track takes gets -1.  Kalman trackers predict all
    live rows in one batch and correct the rows matched in either ByteTrack
    stage in one more; stage two reads only rows stage one left.  On an
    empty table every high-confidence row spawns a track, in order, with no
    cost matrix built.

    Raises:
        OutOfOrderFrame: frame_id is not strictly beyond the cursor.
        MissingEmbedding: the appearance tracker got detections without embeddings.
    """
    if frame_id <= state.cursor:
        raise OutOfOrderFrame(f"frame {frame_id} is not past cursor {state.cursor}")
    kind, n = config.kind, len(scores)
    if kind is not TrackerKind.APPEARANCE:
        embs = None  # only the appearance tracker reads them
    elif embs is None and n:
        raise MissingEmbedding(f"frame {frame_id}: appearance tracking needs embeddings")

    high = scores >= config.det_threshold_high
    high_at = high.nonzero()[0]
    spec = config._kalman
    assigned = np.full(n, -1)
    table, ids = state.table, state.table["id"]
    if not len(ids):  # nothing to match or age: every high-confidence detection spawns, in order
        if len(high_at):
            assigned[high_at] = _spawn_rows(state, high_at, boxes, obs, embs, spec, kind)
        state.cursor = frame_id
        return state, assigned

    high_idx = high_at.tolist()
    high_boxes = boxes if len(high_idx) == n else boxes.take(high_at, 1)
    if spec is not None:
        table["mean"], table["cov"] = motion.kf_predict(table["mean"], table["cov"], spec, ids)

    ref_boxes = _reference_boxes(state, spec)
    if kind is TrackerKind.IOU:
        matches, um_t, um_d = _greedy_iou(ref_boxes, high_boxes, config)
    else:
        cost = _geometric_cost(kind, ref_boxes, high_boxes, config, table.get("emb"),
                               None if embs is None else embs[high_at], timer)
        matches, um_t, um_d = assoc.solve_assignment(cost)
    rows = [t_i for t_i, _ in matches]
    det_rows = [high_idx[d_i] for _, d_i in matches]

    # ByteTrack second stage: leftover tracks vs low-confidence detections.
    if kind is TrackerKind.BYTETRACK and um_t:
        low_at = (~high & (scores >= config.det_threshold_low)).nonzero()[0]
        if len(low_at):
            cost = _geometric_cost(TrackerKind.SORT, ref_boxes.take(um_t, 1),
                                   boxes.take(low_at, 1), config, timer=timer)
            low_idx = low_at.tolist()
            for t_i, d_i in assoc.solve_assignment(cost).matches:
                rows.append(um_t[t_i])
                det_rows.append(low_idx[d_i])
    if rows:  # index arrays, converted once, or _EVERY, which also skips the gathers
        rows = _EVERY if rows == list(range(len(ids))) else np.array(rows)
        det_at = np.array(det_rows)
        assigned[det_at] = ids[rows]
        _update_rows(state, rows, det_at, boxes, obs, embs, spec, kind)

    # Age unmatched tracks and retire those past max_age.
    age = state.table["age"]
    age += 1
    age[rows] = 0
    keep = age <= config.max_age
    if np.count_nonzero(keep) < len(keep):
        state.table = {name: col.compress(keep, axis=-1 if name in _TRACK_LAST else 0)
                       for name, col in state.table.items()}

    # Unmatched high-confidence detections spawn tentative tracks.
    spawn = [high_idx[d_i] for d_i in um_d]
    if spawn:
        assigned[spawn] = _spawn_rows(state, spawn, boxes, obs, embs, spec, kind)

    state.cursor = frame_id
    return state, assigned


def track_columns(cols: Columns, config: TrackerConfig, timer=NULL_TIMER) -> np.ndarray:
    """Fold the tracker over a sequence's frames; returns each row's track id, -1 for none.

    A track with fewer than ``min_hits`` rows is dropped as noise, and its
    rows read -1 like unmatched detections.
    """
    state = TrackerState()
    track = np.full(len(cols.score), -1)
    box = np.ascontiguousarray(cols.box.T)  # (4, n): each frame's slice is four contiguous rows
    obs = None if config._kalman is None else motion.observe(config.resolved_motion_spec(), box)
    emb = cols.emb if config.kind is TrackerKind.APPEARANCE else None  # no other step reads it
    bounds = cols.starts.tolist()
    for frame_id, lo, hi in zip(cols.frame_ids.tolist(), bounds, bounds[1:]):
        state, track[lo:hi] = tracker_step(
            state, frame_id, box[:, lo:hi], None if obs is None else obs[:, lo:hi],
            cols.score[lo:hi], None if emb is None else emb[lo:hi], config, timer)
    if config.min_hits > 1:  # a row's count is its track's length; -1 rows stay -1
        track[np.bincount(track + 1)[track + 1] < config.min_hits] = -1
    return track


def run_sequence(frames: Sequence[Tuple[int, Sequence[Detection]]],
                 config: TrackerConfig, timer=NULL_TIMER) -> ColumnResult:
    """:func:`track_columns` of (frame_id, detections) pairs, one row per detection in order.

    Fused labels equal raw labels; ``fusion.relabel({seq: res.cols}, {seq: res.track}, ...)``
    fuses them.

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
