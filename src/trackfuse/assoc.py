"""Similarity primitives and the gated optimal-assignment solver.

All trackers reduce data association to one call: build a :class:`CostMatrix`
(tracks x detections, with a boolean admissibility mask) and hand it to
:func:`solve_assignment`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import InvalidValue


def iou_matrix(a, b) -> np.ndarray:
    """Pairwise intersection over union of boxes ``a`` (n, 4) and ``b`` (m, 4), 0 when disjoint.

    Rows are [x1, y1, x2, y2].  Every entry equals, bit for bit, the scalar
    ``reference_iou`` of ``tests/oracles.py``, which does the same float
    operations in the same order.
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
        if not (np.isfinite(values).all() or np.isfinite(values[mask]).all()):
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
    to :func:`_canonical_matching`, which solves it once and reads the
    tie-break off that solve's duals.
    """
    n_rows, n_cols = cost.shape
    if n_rows == 0 or n_cols == 0:
        return AssignmentResult((), tuple(range(n_rows)), tuple(range(n_cols)))

    mask = cost.gate_mask
    rows, cols = np.nonzero(mask)  # every admissible pair, in (row, col) order
    forced = (mask.sum(axis=1)[rows] == 1) & (mask.sum(axis=0)[cols] == 1)
    matches = list(zip(rows[forced].tolist(), cols[forced].tolist()))
    if not forced.all():
        # The block: every row and column with an admissible pair that is not forced.
        free = ~forced
        block_rows = np.flatnonzero(np.bincount(rows[free], minlength=n_rows))
        block_cols = np.flatnonzero(np.bincount(cols[free], minlength=n_cols))
        block = np.ix_(block_rows, block_cols)
        for r, c in _canonical_matching(cost.values[block], mask[block]):
            matches.append((int(block_rows[r]), int(block_cols[c])))
        matches.sort()

    rows, cols = {r for r, _ in matches}, {c for _, c in matches}
    return AssignmentResult(tuple(matches), tuple(r for r in range(n_rows) if r not in rows),
                            tuple(c for c in range(n_cols) if c not in cols))


def linear_sum_assignment(cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-cost assignment of every row of ``cost`` (rows <= columns, ``inf`` forbidden).

    Shortest augmenting paths with Jonker-Volgenant dual updates (Crouse, IEEE
    TAES 2016): each row joins by a Dijkstra search over reduced costs.
    Returns ``col4row`` and duals ``u``, ``v``: ``u[r] + v[c] <= cost[r, c]``
    with equality on matched pairs, ``v <= 0``, and ``v == 0`` on free columns.
    """
    n_rows, n_cols = cost.shape
    u, v = np.zeros(n_rows), np.zeros(n_cols)
    col4row, row4col = np.full(n_rows, -1), np.full(n_cols, -1)
    for start in range(n_rows):
        dist, path = np.full(n_cols, np.inf), np.zeros(n_cols, dtype=int)
        done = np.zeros(n_cols, dtype=bool)
        row, reach = start, 0.0
        while row >= 0:
            reduced = reach + cost[row] - u[row] - v
            closer = ~done & (reduced < dist)
            dist[closer], path[closer] = reduced[closer], row
            open_dist = np.where(done, np.inf, dist)
            reach = open_dist.min()
            if reach == np.inf:
                raise InvalidValue(f"row {start} of the cost matrix cannot be assigned")
            ties = np.flatnonzero(open_dist == reach)
            col = ties[np.argmin(row4col[ties] >= 0)]  # a free column first
            done[col] = True
            row = row4col[col]
        owned = done & (row4col >= 0)
        u[start] += reach
        u[row4col[owned]] += reach - dist[owned]
        v[done] -= reach - dist[done]
        while row != start:
            row = path[col]
            row4col[col] = row
            col4row[row], col = col, col4row[row]
    return col4row, u, v


def _canonical_matching(values: np.ndarray, mask: np.ndarray) -> List[Tuple[int, int]]:
    """Lexicographically smallest optimal matching of one block, as (row, col) pairs.

    One solve of the R x (C + R) problem: inadmissible cells are ``inf``, and
    row ``r`` alone may stay unmatched, on dummy column ``C + r`` priced at
    ``big``, more than any two matchings' real costs can differ.  Its duals
    mark the tight edges (reduced cost within ``1e-9 * big`` of 0); one phantom
    row per free column, tight where the column dual is 0, squares that graph
    so its perfect matchings are the optimal assignments.  Rows are then fixed
    in order, each to its smallest tight column that later rows can free.
    """
    n_rows, n_cols = values.shape
    n = n_cols + n_rows
    big = 1.0 + 2.0 * float(np.abs(np.where(mask, values, 0.0)).max(axis=1).sum())
    padded = np.full((n_rows, n), np.inf)
    padded[:, :n_cols] = np.where(mask, values, np.inf)
    padded[np.arange(n_rows), n_cols + np.arange(n_rows)] = big
    col_of, u, v = linear_sum_assignment(padded)
    tol = 1e-9 * big
    tight = np.vstack([padded - u[:, None] - v <= tol, np.tile(v >= -tol, (n_cols, 1))])
    owner = np.full(n, -1)
    owner[col_of] = np.arange(n_rows)
    owner[owner < 0] = np.arange(n_rows, n)
    col_of = np.argsort(owner)
    for r in range(n_rows):
        for c in np.flatnonzero(tight[r, :col_of[r]]):
            if owner[c] > r and _reroute(tight, owner, col_of, r, c):
                break
    return [(r, int(c)) for r, c in enumerate(col_of[:n_rows]) if c < n_cols]


def _reroute(tight, owner, col_of, r, c) -> bool:
    """Give row ``r`` column ``c`` if an alternating path of rows after ``r`` frees it."""
    target = col_of[r]
    seen = np.arange(len(owner)) == c
    came_from = {owner[c]: r}
    queue = [owner[c]]
    for row in queue:
        for col in np.flatnonzero(tight[row] & ~seen):
            seen[col] = True
            if col == target:
                while True:
                    col_of[row], col = col, col_of[row]
                    owner[col_of[row]] = row
                    if row == r:
                        return True
                    row = came_from[row]
            if owner[col] > r:
                came_from[owner[col]] = row
                queue.append(owner[col])
    return False
