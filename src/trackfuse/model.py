"""Core value types: label sets, boxes, class distributions, detections, sequence columns.

All types here are immutable after construction (frozen dataclasses, read-only
numpy arrays).  A sequence is one :class:`Columns` record, and the tracked,
fused outcome of a file's sequences one :class:`ColumnResult` over all their
rows.  :class:`Detection` is the library's
per-detection input form, turned into columns by ``Columns.from_frames`` and
built from them by ``Columns.frames``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateSum, InvalidConfig, InvalidValue, WrongLength

PROB_FLOOR = 1e-12
# Probabilities are floored here before any log is taken, so log-space math
# stays finite while the argmax of any realistically confident class survives.


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def unchecked(cls, **fields):
    """A ``cls`` holding ``fields`` as given, without ``__post_init__``: for checked values."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


class LabelSet:
    """Ordered, closed set of class names; position in ``names`` is the class index."""

    __slots__ = ("names",)

    def __init__(self, names: Sequence[str]):
        names = tuple(str(n) for n in names)
        if not names:
            raise InvalidValue("label set must contain at least one class")
        if len(set(names)) != len(names):
            raise InvalidValue("label names must be unique")
        self.names = names

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, i: int) -> str:
        return self.names[i]

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelSet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"LabelSet({list(self.names)!r})"


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in image pixel coordinates, corner form (x1, y1, x2, y2)."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        for name in ("x1", "y1", "x2", "y2"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise InvalidValue(f"bbox {name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise InvalidValue(
                f"bbox corners must satisfy x2 > x1 and y2 > y1, got {self.as_tuple()}"
            )

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True, eq=False)
class ClassDistribution:
    """Probability vector over the closed label set.

    Instances must already lie on the floored simplex: strictly positive
    entries summing to 1 within 1e-6.  Data from outside the process goes
    through :func:`validate_distribution` instead of this constructor, and
    ``Columns.frames`` wraps rows it has already validated.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise InvalidValue("probs must be a non-empty 1-D vector")
        if not np.all(np.isfinite(probs)):
            raise InvalidValue("probs must be finite")
        if np.any(probs <= 0.0):
            raise InvalidValue("probs must be strictly positive; run validate_distribution")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-6:
            raise InvalidValue(f"probs must sum to 1 within 1e-6, got {total!r}")
        object.__setattr__(self, "probs", _readonly(probs))


def validate_distribution(raw, n_classes: int) -> np.ndarray:
    """Validate each row of N ingested score vectors (N, C): project it onto the floored simplex.

    Entries are floored at ``PROB_FLOOR``, then renormalized; the floor+renorm
    pass is iterated to a fixpoint so that validating an already-validated
    vector reproduces it exactly.  A converged row maps to itself while the
    others iterate, so no row's result depends on the rest; one vector ``v``
    is validated as the table ``v[None]``.

    Raises, for the first bad row, whose index is the error's ``row``:
        WrongLength: the shape is not (N, ``n_classes``).
        InvalidValue: any entry is negative, NaN, or infinite.
        DegenerateSum: the raw sum is below 1e-9 and cannot be normalized.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != n_classes:
        raise WrongLength(f"expected {n_classes} entries, got shape {arr.shape}")
    finite, negative, sums = np.isfinite(arr).all(axis=1), (arr < 0.0).any(axis=1), arr.sum(axis=1)
    for row in np.flatnonzero(~finite | negative | (sums < 1e-9))[:1]:
        exc = (InvalidValue("distribution entries must be finite") if not finite[row] else
               InvalidValue("distribution entries must be non-negative") if negative[row] else
               DegenerateSum(f"sum {float(sums[row])!r} is too small to normalize"))
        exc.row = int(row)
        raise exc

    x = arr
    for _ in range(16):
        y = np.maximum(x, PROB_FLOOR)
        total = y.sum(axis=1, keepdims=True)
        np.divide(y, total, out=y, where=np.abs(total - 1.0) > 1e-12)
        if np.array_equal(y, x):
            break
        x = y
    return x


def index_value(value, name: str = "frame_id") -> int:
    """``value`` as a non-negative integer id; integral floats pass, booleans do not."""
    if type(value) is int and value >= 0:
        return value
    try:
        if not isinstance(value, bool) and int(value) == value and value >= 0:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidValue(f"{name} must be a non-negative integer, got {value!r}")


def score_value(value) -> float:
    """``value`` as a detector score in [0, 1]."""
    score = float(value)
    if not (math.isfinite(score) and 0.0 <= score <= 1.0):
        raise InvalidValue(f"score must lie in [0, 1], got {score!r}")
    return score


def embedding_value(value) -> np.ndarray:
    """``value`` as a read-only appearance vector: finite, non-empty and 1-D."""
    emb = np.asarray(value, dtype=float)
    if emb.ndim != 1 or emb.size == 0 or not np.isfinite(emb).all():
        raise InvalidValue("embedding must be a finite, non-empty 1-D vector")
    return _readonly(emb)


def config_number(value, name: str, integral: bool = False):
    """``value`` as a finite float, or as an int if ``integral``; strings and booleans fail."""
    kind, what = (numbers.Integral, "an integer") if integral else (numbers.Real, "a real number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InvalidConfig(f"{name} must be {what}, got {value!r}")
    number = int(value) if integral else float(value)
    if not (integral or math.isfinite(number)):
        raise InvalidConfig(f"{name} must be finite, got {value!r}")
    return number


@dataclass(frozen=True, eq=False)
class Detection:
    """One per-frame observation: box, detector score, class distribution.

    ``embedding`` is an optional appearance vector; ``gt_class``/``gt_track``
    carry ground truth for evaluation and stay None at inference time.
    """

    frame_id: int
    bbox: BoundingBox
    score: float
    dist: ClassDistribution
    embedding: Optional[np.ndarray] = None
    gt_class: Optional[int] = None
    gt_track: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "frame_id", index_value(self.frame_id))
        object.__setattr__(self, "score", score_value(self.score))
        if self.embedding is not None:
            object.__setattr__(self, "embedding", embedding_value(self.embedding))
        for name in ("gt_class", "gt_track"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, index_value(v, name))


def index_column(values) -> np.ndarray:
    """Non-negative ids (or -1) as an int64 column; ids past int64 keep Python ints."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass(frozen=True, eq=False)
class Columns:
    """One sequence's detections, one row each, sorted by frame and in file order within one.

    ``box`` (N, 4) holds corners, read-only ``probs`` (N, C) floored-simplex
    rows, ``emb`` (N, E) embeddings or None, ``gt_class``/``gt_track`` -1
    where missing.  Frame ``frame_ids[i]`` spans rows ``starts[i]:starts[i + 1]``.
    """

    frame: np.ndarray
    box: np.ndarray
    score: np.ndarray
    probs: np.ndarray
    emb: Optional[np.ndarray]
    gt_class: np.ndarray
    gt_track: np.ndarray
    frame_ids: np.ndarray
    starts: np.ndarray

    @classmethod
    def from_frames(cls, frames: Sequence[Tuple[int, Sequence["Detection"]]]) -> "Columns":
        """The columns of (frame_id, detections) pairs; ``emb`` needs embeddings of one size."""
        dets = [det for _, group in frames for det in group]
        embs = [det.embedding for det in dets]
        sizes = {None if emb is None else emb.size for emb in embs}
        probs = np.array([det.dist.probs for det in dets]) if dets else np.zeros((0, 1))
        probs.setflags(write=False)
        return cls(
            frame=index_column([det.frame_id for det in dets]),
            box=np.array([det.bbox.as_tuple() for det in dets], dtype=float).reshape(-1, 4),
            score=np.array([det.score for det in dets], dtype=float),
            probs=probs,
            emb=np.stack(embs) if len(sizes) == 1 and None not in sizes else None,
            gt_class=index_column([-1 if d.gt_class is None else d.gt_class for d in dets]),
            gt_track=index_column([-1 if d.gt_track is None else d.gt_track for d in dets]),
            frame_ids=index_column([frame_id for frame_id, _ in frames]),
            starts=np.cumsum([0] + [len(group) for _, group in frames]),
        )

    @classmethod
    def concat(cls, parts: Sequence["Columns"]) -> "Columns":
        """The rows and frames of ``parts``, one part after another.

        One part is returned as it is; several keep no ``emb``, since their
        embedding sizes may differ.
        """
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.from_frames([])
        rows = np.cumsum([0] + [len(part.frame) for part in parts])
        cat = {name: np.concatenate([getattr(part, name) for part in parts]) for name in (
            "frame", "box", "score", "probs", "gt_class", "gt_track", "frame_ids")}
        cat["probs"].setflags(write=False)
        starts = np.concatenate([part.starts[:-1] + lo for part, lo in zip(parts, rows.tolist())]
                                + [rows[-1:]])
        return cls(**cat, emb=None, starts=starts)

    def frames(self) -> List[Tuple[int, List["Detection"]]]:
        """(frame_id, detections) pairs whose probs and embeddings are read-only row views."""
        rows = zip(self.frame.tolist(), *self.box.T.tolist(), self.score.tolist(),
                   self.gt_class.tolist(), self.gt_track.tolist())
        dets = [unchecked(
            Detection, frame_id=frame_id, bbox=unchecked(BoundingBox, x1=x1, y1=y1, x2=x2, y2=y2),
            score=score, dist=unchecked(ClassDistribution, probs=self.probs[i]),
            embedding=None if self.emb is None else self.emb[i],
            gt_class=None if gt_class < 0 else gt_class,
            gt_track=None if gt_track < 0 else gt_track,
        ) for i, (frame_id, x1, y1, x2, y2, score, gt_class, gt_track) in enumerate(rows)]
        bounds = self.starts.tolist()  # a slice is exact-size; appending over-allocates
        return [(frame_id, dets[lo:hi])
                for frame_id, lo, hi in zip(self.frame_ids.tolist(), bounds, bounds[1:])]


def track_runs(track: np.ndarray,
               bounds: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Rows with a track id (-1 is none) in (sequence, track, frame) order, and where runs start.

    Sequence ``k`` spans rows ``bounds[k]:bounds[k + 1]``, frame-sorted, and
    numbers its own tracks; without ``bounds`` the rows are one sequence.
    The sort is stable, so a track's rows stay in frame order.
    """
    kept = np.flatnonzero(track >= 0)
    key = track[kept]
    if bounds is not None and len(bounds) > 2 and len(kept):  # one key per (sequence, id)
        key = key + (np.searchsorted(bounds, kept, side="right") - 1) * (int(key.max()) + 1)
    order = np.argsort(key, kind="stable")
    return kept[order], np.flatnonzero(np.diff(key[order], prepend=-1))


@dataclass(frozen=True, eq=False)
class ColumnResult:
    """Tracked sequences: per row its track id (-1 for none), argmax and fused label.

    Sequence ``names[k]`` spans rows ``bounds[k]:bounds[k + 1]`` of ``cols``
    and numbers its tracks from 1; by default the rows are one sequence named
    "".  ``runs`` is :func:`track_runs` of ``track``, computed when not given.
    """

    cols: Columns
    track: np.ndarray
    raw: np.ndarray
    fused: np.ndarray
    names: Tuple[str, ...] = ("",)
    bounds: Optional[np.ndarray] = None
    runs: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        if self.bounds is None:
            object.__setattr__(self, "bounds", np.array([0, len(self.track)]))
        if self.runs is None:
            object.__setattr__(self, "runs", track_runs(self.track, self.bounds))
