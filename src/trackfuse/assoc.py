"""Similarity primitives and the gated optimal-assignment solver.

All trackers reduce data association to one call: build a :class:`CostMatrix`
(tracks x detections, with a boolean admissibility mask) and hand it to
:func:`solve_assignment`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np

from .errors import InvalidValue

_ZERO = np.zeros(())  # a 0-d operand, which numpy need not convert on each call as it does 0.0


def iou_matrix(a, b) -> np.ndarray:
    """Pairwise intersection over union of boxes ``a`` (4, n) and ``b`` (4, m), 0 when disjoint.

    Rows are [x1, y1, x2, y2], one box per column.  Every entry equals, bit for bit, the scalar
    ``reference_iou`` of ``tests/oracles.py``, which does the same float
    operations in the same order.  Areas past the float range give inf or NaN
    entries, which no gate admits, without a numpy warning.
    """
    a = np.asarray(a, dtype=float)[:, :, None]
    b = np.asarray(b, dtype=float)[:, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        wh = np.maximum(_ZERO, np.minimum(a[2:], b[2:]) - np.maximum(a[:2], b[:2]))
        inter = wh[0] * wh[1]
        ext_a, ext_b = a[2:] - a[:2], b[2:] - b[:2]  # rows w, h; indexed, not unpacked
        out = np.zeros(inter.shape)
        union = ext_a[0] * ext_a[1] + ext_b[0] * ext_b[1] - inter
        np.divide(inter, union, out=out, where=inter > _ZERO)
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

    @classmethod
    def _of_iou(cls, values: np.ndarray, gate_mask: np.ndarray) -> "CostMatrix":
        """Costs 1 - IoU, unchecked: every entry the IoU gate admits is finite."""
        cost = object.__new__(cls)
        cost.__dict__.update(values=values, gate_mask=gate_mask)
        return cost

    @property
    def shape(self) -> Tuple[int, int]:
        return self.values.shape


class AssignmentResult(NamedTuple):
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
    tie-break off that solve's duals.  All-forced frames take Python sets alone.
    """
    n_rows, n_cols = cost.shape
    mask = cost.gate_mask
    rows, cols = mask.nonzero()  # every admissible pair, in (row, col) order
    row_list, col_list = rows.tolist(), cols.tolist()
    matches = list(zip(row_list, col_list))
    used_rows, used_cols = set(row_list), set(col_list)
    if len(used_rows) < len(matches) or len(used_cols) < len(matches):
        forced = (mask.sum(axis=1)[rows] == 1) & (mask.sum(axis=0)[cols] == 1)
        matches = list(zip(rows[forced].tolist(), cols[forced].tolist()))
        # The block: every row and column with an admissible pair that is not forced.
        block_rows = np.flatnonzero(np.bincount(rows[~forced], minlength=n_rows))
        block_cols = np.flatnonzero(np.bincount(cols[~forced], minlength=n_cols))
        block = np.ix_(block_rows, block_cols)
        for r, c in _canonical_matching(cost.values[block], mask[block]):
            matches.append((int(block_rows[r]), int(block_cols[c])))
        matches.sort()
        used_rows, used_cols = {r for r, _ in matches}, {c for _, c in matches}
    return AssignmentResult(tuple(matches), tuple([r for r in range(n_rows) if r not in used_rows]),
                            tuple([c for c in range(n_cols) if c not in used_cols]))


def linear_sum_assignment(cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-cost assignment of every row of ``cost`` (rows <= columns, ``inf`` forbidden).

    Shortest augmenting paths with Jonker-Volgenant dual updates (Crouse, IEEE
    TAES 2016): each row joins by a Dijkstra search over reduced costs.
    Returns ``col4row`` and duals ``u``, ``v``: ``u[r] + v[c] <= cost[r, c]``
    with equality on matched pairs, ``v <= 0``, and ``v == 0`` on free columns.
    """
    n_rows, n_cols = cost.shape
    cost = cost.tolist()
    u, v = [0.0] * n_rows, [0.0] * n_cols
    col4row, row4col = [-1] * n_rows, [-1] * n_cols
    for start in range(n_rows):
        dist, path = [math.inf] * n_cols, [0] * n_cols
        todo, done = list(range(n_cols)), []  # columns not yet reached, and reached in order
        row, reach = start, 0.0
        while row >= 0:
            row_cost, u_row, last, reach, col = cost[row], u[row], reach, math.inf, -1
            for c in todo:  # relax, and find the first closest column, a free one first
                d = last + row_cost[c] - u_row - v[c]
                if d < dist[c]:
                    dist[c], path[c] = d, row
                d = dist[c]
                if d < reach or d == reach and row4col[col] >= 0 > row4col[c]:
                    reach, col = d, c
            if reach == math.inf:
                raise InvalidValue(f"row {start} of the cost matrix cannot be assigned")
            todo.remove(col)
            done.append(col)
            row = row4col[col]
        u[start] += reach
        for c in done[:-1]:  # every reached column but the last, free one has a row
            u[row4col[c]] += reach - dist[c]
        for c in done:
            v[c] -= reach - dist[c]
        while row != start:
            row = path[col]
            row4col[col] = row
            col4row[row], col = col, col4row[row]
    return np.array(col4row, dtype=int), np.array(u), np.array(v)


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
    with np.errstate(over="ignore"):  # an overflow is the InvalidValue below
        big = 1.0 + 2.0 * float(np.abs(np.where(mask, values, 0.0)).max(axis=1).sum())
    if not math.isfinite(big):
        raise InvalidValue("admissible cost entries must sum to a finite total")
    padded = np.full((n_rows, n), np.inf)
    padded[:, :n_cols] = np.where(mask, values, np.inf)
    padded[np.arange(n_rows), n_cols + np.arange(n_rows)] = big
    col4row, u, v = linear_sum_assignment(padded)
    tol = 1e-9 * big
    tight = [row.nonzero()[0].tolist() for row in padded - u[:, None] - v <= tol]  # ascending
    tight += [np.flatnonzero(v >= -tol).tolist()] * n_cols  # phantoms own the free columns
    col_of = col4row.tolist() + sorted(set(range(n)) - set(col4row.tolist()))
    owner = sorted(range(n), key=col_of.__getitem__)  # the inverse permutation
    for r in range(n_rows):
        for c in tight[r]:
            if c >= col_of[r] or owner[c] > r and _reroute(tight, owner, col_of, r, c):
                break
    return [(r, c) for r, c in enumerate(col_of[:n_rows]) if c < n_cols]


def _reroute(tight, owner, col_of, r, c) -> bool:
    """Give row ``r`` column ``c`` if an alternating path of rows after ``r`` frees it."""
    target = col_of[r]
    seen = {c}
    came_from = {owner[c]: r}
    queue = [owner[c]]
    for row in queue:
        for col in [col for col in tight[row] if col not in seen]:
            seen.add(col)
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
