"""Core value types: label sets, a file's detection columns, and the checks of ingested values.

All types here are immutable after construction (frozen dataclasses, read-only
numpy arrays).  A detections file is one :class:`Columns` record over all its
sequences, and its tracked, fused outcome one :class:`ColumnResult` over the
same rows.  Columns are the library's only detection form: there is no object
per detection.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateSum, InvalidConfig, InvalidValue, WrongLength

PROB_FLOOR = 1e-12
# Probabilities are floored here before any log is taken, so log-space math
# stays finite while the argmax of any realistically confident class survives.


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


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


def check_corners(x1, y1, x2, y2) -> None:
    """InvalidValue unless the corners are finite with x2 > x1 and y2 > y1; the first
    non-finite corner names itself.  An int past the float range raises OverflowError."""
    corners = []
    for name, value in zip(("x1", "y1", "x2", "y2"), (x1, y1, x2, y2)):
        value = float(value)
        if not math.isfinite(value):
            raise InvalidValue(f"bbox {name} must be finite, got {value!r}")
        corners.append(value)
    x1, y1, x2, y2 = corners
    if not (x2 > x1 and y2 > y1):
        raise InvalidValue(f"bbox corners must satisfy x2 > x1 and y2 > y1, got {(x1, y1, x2, y2)}")


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


def index_column(values) -> np.ndarray:
    """Non-negative ids (or -1) as an int64 column; ids past int64 keep Python ints."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass(frozen=True, eq=False)
class Columns:
    """A file's detections, one row each, sorted by sequence name, then frame, in file order
    within a frame.

    Sequence ``names[k]`` spans rows ``bounds[k]:bounds[k + 1]``, and ``emb[k]``
    holds its (rows, E) embeddings or None; E may differ between sequences.
    ``box`` (N, 4) holds corners, read-only ``probs`` (N, C) floored-simplex
    rows, ``gt_class``/``gt_track`` -1 where missing.  Each frame of each
    sequence that holds rows is one group: group ``i``, frame ``frame_ids[i]``,
    spans rows ``starts[i]:starts[i + 1]``.
    """

    frame: np.ndarray
    box: np.ndarray
    score: np.ndarray
    probs: np.ndarray
    emb: Tuple[Optional[np.ndarray], ...]
    gt_class: np.ndarray
    gt_track: np.ndarray
    frame_ids: np.ndarray
    starts: np.ndarray
    names: Tuple[str, ...]
    bounds: np.ndarray


def track_runs(track: np.ndarray, bounds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rows with a track id (-1 is none) in (sequence, track, frame) order, and where runs start.

    Sequence ``k`` spans rows ``bounds[k]:bounds[k + 1]``, frame-sorted, and
    numbers its own tracks.  The sort is stable, so a track's rows stay in frame order.
    """
    kept = np.flatnonzero(track >= 0)
    key = track[kept]
    if len(bounds) > 2 and len(kept):  # one key per (sequence, id)
        key = key + (np.searchsorted(bounds, kept, side="right") - 1) * (int(key.max()) + 1)
    order = np.argsort(key, kind="stable")
    return kept[order], np.flatnonzero(np.diff(key[order], prepend=-1))


@dataclass(frozen=True, eq=False)
class ColumnResult:
    """A tracked file: per row of ``cols`` its track id (-1 for none), argmax and fused label.

    Each sequence numbers its tracks from 1.  ``runs`` is :func:`track_runs` of ``track``.
    """

    cols: Columns
    track: np.ndarray
    raw: np.ndarray
    fused: np.ndarray
    runs: Tuple[np.ndarray, np.ndarray]
