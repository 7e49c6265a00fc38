"""Similarity primitives and the gated optimal-assignment solver.

All trackers reduce data association to one call: build a :class:`CostMatrix`
(tracks x detections, with a boolean admissibility mask) and hand it to
:func:`solve_assignment`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidValue
from .model import BoundingBox

GATE_SENTINEL = 1e9
# Cost of leaving a row unmatched; dominates any real cost without
# overflowing row or column sums.


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0 when disjoint."""
    ix1 = max(a.x1, b.x1)
    iy1 = max(a.y1, b.y1)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    iw = max(0.0, ix2 - ix1)
    ih = max(0.0, iy2 - iy1)
    inter = iw * ih
    if inter <= 0.0:
        return 0.0
    return inter / (a.area + b.area - inter)


def iou_matrix(a, b) -> np.ndarray:
    """Pairwise :func:`iou` of boxes ``a`` (n, 4) and ``b`` (m, 4), rows [x1, y1, x2, y2].

    Broadcasts the same float operations, in the same order, as :func:`iou`,
    so every entry equals the scalar result bit for bit.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 4)[:, None, :]
    b = np.asarray(b, dtype=float).reshape(-1, 4)[None, :, :]
    iw = np.maximum(0.0, np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0]))
    ih = np.maximum(0.0, np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1]))
    inter = iw * ih
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    out = np.zeros(inter.shape)
    np.divide(inter, area_a + area_b - inter, out=out, where=inter > 0.0)
    return out


def centroid_distance(a: BoundingBox, b: BoundingBox) -> float:
    """Euclidean distance between box centers, in pixels."""
    (ax, ay), (bx, by) = a.center, b.center
    return math.hypot(ax - bx, ay - by)


@dataclass(frozen=True)
class CostMatrix:
    """Rectangular track-by-detection cost matrix with an admissibility mask."""

    values: np.ndarray
    gate_mask: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.gate_mask, dtype=bool)
        if values.ndim != 2 or mask.shape != values.shape:
            raise InvalidValue(
                f"cost values {values.shape} and gate mask {mask.shape} must be equal 2-D shapes"
            )
        if not np.all(np.isfinite(values[mask])):
            raise InvalidValue("admissible cost entries must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "gate_mask", mask)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class AssignmentResult:
    matches: Tuple[Tuple[int, int], ...]
    unmatched_tracks: Tuple[int, ...]
    unmatched_detections: Tuple[int, ...]


def solve_assignment(cost: CostMatrix) -> AssignmentResult:
    """Minimum-cost maximum-cardinality matching over admissible pairs.

    Among matchings that use admissible pairs only, cardinality is maximal and
    the total cost minimal.  Ties go to the lexicographically smallest match
    list: the lowest track index is matched first, to its lowest detection
    index, and a track is left unmatched only when no optimal matching pairs
    it.

    Rows and columns without an admissible pair stay unmatched.  A pair that
    is the only admissible pair of both its row and its column belongs to
    every maximum-cardinality matching, so it is matched without a solve.
    Only the block of rows and columns that remain, where pairs compete, goes
    to the canonical solver.  There an unmatched row pays ``GATE_SENTINEL``
    on a dummy column of its own; comparisons are made on (unmatched count,
    real cost) pairs, but the solver itself mixes 1e9 with O(1) costs, so
    real-cost optimality inside a block holds to roughly 1e-7 * n.
    """
    n_rows, n_cols = cost.shape
    if n_rows == 0 or n_cols == 0:
        return AssignmentResult((), tuple(range(n_rows)), tuple(range(n_cols)))

    mask = cost.gate_mask
    row_degree = mask.sum(axis=1)
    col_degree = mask.sum(axis=0)
    single_rows = np.flatnonzero(row_degree == 1)
    single_cols = mask[single_rows].argmax(axis=1)
    forced = col_degree[single_cols] == 1
    forced_rows, forced_cols = single_rows[forced], single_cols[forced]
    matches = list(zip(forced_rows.tolist(), forced_cols.tolist()))

    in_block = row_degree > 0
    in_block[forced_rows] = False
    block_rows = np.flatnonzero(in_block)
    if block_rows.size:
        in_block = col_degree > 0
        in_block[forced_cols] = False
        block_cols = np.flatnonzero(in_block)
        block = np.ix_(block_rows, block_cols)
        for r, c in _canonical_matching(cost.values[block], mask[block]):
            matches.append((int(block_rows[r]), int(block_cols[c])))
    matches.sort()

    matched_rows = {r for r, _ in matches}
    matched_cols = {c for _, c in matches}
    return AssignmentResult(
        tuple(matches),
        tuple(r for r in range(n_rows) if r not in matched_rows),
        tuple(c for c in range(n_cols) if c not in matched_cols),
    )


def _split_cost(padded, real, rows, cols) -> Tuple[int, float]:
    """Total of an assignment as (sentinel count, real-cost sum), summed separately."""
    picked_real = real[rows, cols]
    sent = int(np.size(picked_real) - np.count_nonzero(picked_real))
    return sent, float(padded[rows, cols][picked_real].sum())


def _canonical_matching(values: np.ndarray, mask: np.ndarray) -> List[Tuple[int, int]]:
    """Lexicographically smallest optimal matching of one block, as (row, col) pairs.

    The block is solved as a rectangular R x (C + R) problem: inadmissible
    cells are ``inf`` and row ``r`` alone may leave itself unmatched, at
    ``GATE_SENTINEL``, through dummy column ``C + r``.  Rows are then fixed in
    order.  A row keeps the column the current optimal solution gives it
    unless a smaller column still permits an optimal completion; that is
    checked by re-solving the remaining rows, compared as (sentinel count,
    real cost) pairs so sentinel magnitude never blurs real-cost comparisons.
    """
    n_rows, n_cols = values.shape
    padded = np.full((n_rows, n_cols + n_rows), np.inf)
    padded[:, :n_cols] = np.where(mask, values, np.inf)
    padded[np.arange(n_rows), n_cols + np.arange(n_rows)] = GATE_SENTINEL
    real = np.zeros(padded.shape, dtype=bool)
    real[:, :n_cols] = mask

    rows0, cols0 = linear_sum_assignment(padded)
    need_sent, need_real = _split_cost(padded, real, rows0, cols0)
    solution = cols0.tolist()

    avail = list(range(n_cols + n_rows))
    matches: List[Tuple[int, int]] = []
    for r in range(n_rows):
        rest_rows = np.arange(r + 1, n_rows)
        picked = solution[r]
        # Only row r's own dummy is finite beyond column C, and it is never
        # below the solution's column, so every candidate is an admissible pair.
        candidates = [c for c in avail if c < picked and real[r, c]]
        if candidates and rest_rows.size:
            # Per-row top-2 minima over the still-available columns, for cheap pruning.
            sub_all = padded[np.ix_(rest_rows, avail)]
            order = np.argsort(sub_all, axis=1)
            min1 = sub_all[np.arange(len(rest_rows)), order[:, 0]]
            min1_col = np.asarray(avail)[order[:, 0]]
            min2 = sub_all[np.arange(len(rest_rows)), order[:, 1]]
        for c in candidates:
            pair_real = float(padded[r, c])
            if rest_rows.size == 0:
                cand = (0, pair_real)
            else:
                # Lower bound with column c removed; prune before the exact solve.
                lb = pair_real + float(np.where(min1_col == c, min2, min1).sum())
                need_total = need_sent * GATE_SENTINEL + need_real
                margin = 1e-9 + 1e-12 * max(abs(lb), abs(need_total))
                if lb > need_total + margin:
                    continue
                rest_cols = [c2 for c2 in avail if c2 != c]
                sub = padded[np.ix_(rest_rows, rest_cols)]
                srows, scols = linear_sum_assignment(sub)
                s_sent, s_real = _split_cost(
                    sub, real[np.ix_(rest_rows, rest_cols)], srows, scols
                )
                cand = (s_sent, pair_real + s_real)
            if cand[0] == need_sent and cand[1] <= need_real + 1e-9 * max(1.0, abs(need_real)):
                picked = c
                if rest_rows.size:
                    solution[r + 1:] = [rest_cols[j] for j in scols]
                break
        avail.remove(picked)
        if picked < n_cols:
            avail.remove(n_cols + r)
            need_real -= float(padded[r, picked])
            matches.append((r, picked))
        else:
            need_sent -= 1
    return matches
