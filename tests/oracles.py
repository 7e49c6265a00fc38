"""Shared test oracles: exhaustive assignment search, reference assignment
solvers, a textbook Kalman filter, reference label fusion, and random input
builders.

The ``reference_*`` functions keep code the library replaced (scalar IoU, the
numpy port of the block solver, one-track Kalman steps on dense matrices,
per-pair centroid costs, per-track cosine loops, running-sum fusion, pairwise
fusion folds, the one-vector probability fixpoint and the line-by-line
detection parser) as references for the forms that replaced them.

These deliberately reimplement the checked math through a different route
(brute-force enumeration, per-candidate re-solves of the padded square
problem, Joseph-form updates in extended precision) so that agreement with
the library is evidence, not tautology.
"""

import csv
import itertools
import json
import math
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

import trackfuse.motion as motion
import trackfuse.trackers as trackers
from trackfuse.assoc import AssignmentResult, CostMatrix, iou_matrix, solve_assignment
from trackfuse.errors import (
    DegenerateSum, EmptyEvaluation, EmptyFile, IndexOutOfRange, InvalidValue,
    MissingEmbedding, NoEligibleTracks, OutOfOrderFrame, ParseError, SchemaError,
    TrackfuseError, WrongLength,
)
from trackfuse.fusion import FusionMode
from trackfuse.io import open_text, read_labels
from trackfuse.metrics import ConfusionMatrix, accuracy_at_1, f1_scores
from trackfuse.model import PROB_FLOOR, BoundingBox, ClassDistribution, Detection
from trackfuse.model import validate_distribution
from trackfuse.trackers import TrackerKind

SENTINEL = 1e9
TRACK_LAST = ("box", "mean", "cov")  # the tracker table columns whose track axis is the last


def exhaustive_min_total(values: np.ndarray) -> float:
    """Minimum total over complete matchings of the smaller side (all pairs admissible)."""
    rows, cols = values.shape
    if rows <= cols:
        perms = np.array(list(itertools.permutations(range(cols), rows)), dtype=int)
        totals = values[np.arange(rows)[None, :], perms].sum(axis=1)
    else:
        perms = np.array(list(itertools.permutations(range(rows), cols)), dtype=int)
        totals = values[perms, np.arange(cols)[None, :]].sum(axis=1)
    return float(totals.min())


def exhaustive_gated_optimum(values: np.ndarray, mask: np.ndarray):
    """Best (inadmissible count, real cost) and the lex-smallest optimal matches.

    Enumerates every permutation of the sentinel-padded square problem, scoring
    each as (number of non-admissible pairs, summed real cost); among optima it
    returns the lexicographically smallest admissible match list.
    """
    rows, cols = values.shape
    n = max(rows, cols)
    best = None
    best_matches = None
    for perm in itertools.permutations(range(n)):
        sent = 0
        real = 0.0
        matches = []
        for r in range(rows):
            c = perm[r]
            if c < cols and mask[r, c]:
                real += float(values[r, c])
                matches.append((r, c))
            else:
                sent += 1
        sent += max(0, n - rows)
        key = (sent, real)
        if best is None or key[0] < best[0] or (key[0] == best[0] and key[1] < best[1] - 1e-12):
            best = key
            best_matches = matches
        elif key[0] == best[0] and abs(key[1] - best[1]) <= 1e-12 and matches < best_matches:
            best_matches = matches
    return best, tuple(best_matches)



def reference_iou(a: BoundingBox, b: BoundingBox) -> float:
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
    return inter / ((a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter)


def reference_greedy_iou(tracks, dets, iou_gate: float):
    """Highest-IoU-first greedy matching by scalar :func:`reference_iou` over every pair.

    Candidates sort as ``(-iou, track, detection)`` tuples, so equal IoUs go
    to the lower track index, then the lower detection index.
    """
    candidates = sorted((-reference_iou(trk.last_bbox, det.bbox), i, j)
                        for i, trk in enumerate(tracks) for j, det in enumerate(dets)
                        if reference_iou(trk.last_bbox, det.bbox) >= iou_gate)
    used_t, used_d, matches = set(), set(), []
    for _, i, j in candidates:
        if i not in used_t and j not in used_d:
            matches.append((i, j))
            used_t.add(i)
            used_d.add(j)
    return (tuple(matches), tuple(i for i in range(len(tracks)) if i not in used_t),
            tuple(j for j in range(len(dets)) if j not in used_d))


def reference_solve_assignment(cost: CostMatrix) -> AssignmentResult:
    """Reference solver: sentinel-padded square, one re-solve per candidate.

    Pads the problem to an n x n square with ``SENTINEL`` in every
    inadmissible or padded cell, then fixes rows in order, keeping for each the
    smallest column that still permits an optimal completion.  Unmatched rows
    compete for sentinel columns here, so with exact ties it may leave a low
    row unmatched; on continuous costs its matching is the unique optimum.
    """
    n_rows, n_cols = cost.shape
    if n_rows == 0 or n_cols == 0:
        return AssignmentResult((), tuple(range(n_rows)), tuple(range(n_cols)))

    n = max(n_rows, n_cols)
    padded = np.full((n, n), SENTINEL, dtype=float)
    padded[:n_rows, :n_cols] = np.where(cost.gate_mask, cost.values, SENTINEL)
    real = np.zeros((n, n), dtype=bool)
    real[:n_rows, :n_cols] = cost.gate_mask

    cols = _reference_lex_min(padded, real, n_rows)

    matches = tuple(
        (r, int(c)) for r, c in enumerate(cols) if c < n_cols and real[r, int(c)]
    )
    matched_rows = {r for r, _ in matches}
    matched_cols = {c for _, c in matches}
    return AssignmentResult(
        matches,
        tuple(r for r in range(n_rows) if r not in matched_rows),
        tuple(c for c in range(n_cols) if c not in matched_cols),
    )


def _reference_split(padded, real, rows, cols) -> Tuple[int, float]:
    picked_real = real[rows, cols]
    sent = int(np.size(picked_real) - np.count_nonzero(picked_real))
    return sent, float(padded[rows, cols][picked_real].sum())


def _reference_lex_min(padded: np.ndarray, real: np.ndarray, n_fix: int) -> List[int]:
    n = padded.shape[0]
    rows0, cols0 = linear_sum_assignment(padded)
    need_sent, need_real = _reference_split(padded, real, rows0, cols0)
    solution = [int(cols0[np.argwhere(rows0 == r)[0, 0]]) for r in range(n)]

    avail = list(range(n))
    chosen: List[int] = []
    for r in range(min(n_fix, n)):
        rest_rows = np.arange(r + 1, n)
        if rest_rows.size:
            sub_all = padded[np.ix_(rest_rows, avail)]
            order = np.argsort(sub_all, axis=1)
            min1 = sub_all[np.arange(len(rest_rows)), order[:, 0]]
            min1_col = np.asarray(avail)[order[:, 0]]
            min2 = (
                sub_all[np.arange(len(rest_rows)), order[:, 1]]
                if len(avail) > 1
                else min1
            )
        picked = None
        for c in avail:
            pair_sent = 0 if real[r, c] else 1
            pair_real = float(padded[r, c]) if real[r, c] else 0.0
            if pair_sent > need_sent:
                continue
            if rest_rows.size == 0:
                cand = (pair_sent, pair_real)
            else:
                lb = pair_real + pair_sent * SENTINEL
                lb += float(np.where(min1_col == c, min2, min1).sum())
                need_total = need_sent * SENTINEL + need_real
                margin = 1e-9 + 1e-12 * max(abs(lb), abs(need_total))
                if lb > need_total + margin:
                    continue
                rest_cols = [c2 for c2 in avail if c2 != c]
                sub = padded[np.ix_(rest_rows, rest_cols)]
                srows, scols = linear_sum_assignment(sub)
                s_sent, s_real = _reference_split(
                    sub, real[np.ix_(rest_rows, rest_cols)], srows, scols
                )
                cand = (pair_sent + s_sent, pair_real + s_real)
            if cand[0] == need_sent and cand[1] <= need_real + 1e-9 * max(1.0, abs(need_real)):
                picked = c
                need_sent -= pair_sent
                need_real -= pair_real
                break
        if picked is None:
            picked = solution[r]
            need_sent -= 0 if real[r, picked] else 1
            need_real -= float(padded[r, picked]) if real[r, picked] else 0.0
        chosen.append(picked)
        avail.remove(picked)

    chosen.extend(avail)
    return chosen

def reference_linear_sum_assignment(cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The numpy port of Jonker-Volgenant that ``assoc.linear_sum_assignment`` replaced.

    Each Dijkstra step is whole-row array operations; the float operations and
    their order are the list version's, so ``col4row``, ``u`` and ``v`` agree bit
    for bit, and so do the "row r cannot be assigned" errors.
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


def reference_canonical_matching(values: np.ndarray, mask: np.ndarray) -> List[Tuple[int, int]]:
    """The numpy port of ``assoc._canonical_matching`` on boolean tight-edge matrices."""
    n_rows, n_cols = values.shape
    n = n_cols + n_rows
    big = 1.0 + 2.0 * float(np.abs(np.where(mask, values, 0.0)).max(axis=1).sum())
    padded = np.full((n_rows, n), np.inf)
    padded[:, :n_cols] = np.where(mask, values, np.inf)
    padded[np.arange(n_rows), n_cols + np.arange(n_rows)] = big
    col_of, u, v = reference_linear_sum_assignment(padded)
    tol = 1e-9 * big
    tight = np.vstack([padded - u[:, None] - v <= tol, np.tile(v >= -tol, (n_cols, 1))])
    owner = np.full(n, -1)
    owner[col_of] = np.arange(n_rows)
    owner[owner < 0] = np.arange(n_rows, n)
    col_of = np.argsort(owner)
    for r in range(n_rows):
        for c in np.flatnonzero(tight[r, :col_of[r]]):
            if owner[c] > r and _reference_reroute(tight, owner, col_of, r, c):
                break
    return [(r, int(c)) for r, c in enumerate(col_of[:n_rows]) if c < n_cols]


def _reference_reroute(tight, owner, col_of, r, c) -> bool:
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


def _solve_ld(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting in long double precision."""
    a = np.array(a, dtype=np.longdouble)
    b = np.array(b, dtype=np.longdouble)
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0:
            raise np.linalg.LinAlgError("singular matrix")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def reference_transition_matrix(spec) -> np.ndarray:
    """F, (d, d): position i moves by dt times velocity i + o."""
    d, o = spec.state_dim, spec.obs_dim
    f = np.eye(d)
    f[np.arange(d - o), np.arange(o, d)] = spec.dt
    return f


def reference_measurement_matrix(spec) -> np.ndarray:
    """H = [I 0], (o, d)."""
    return np.eye(spec.obs_dim, spec.state_dim)


def dense_view(covs, spec) -> np.ndarray:
    """The (N, d, d) covariances that the filter's (3, o, N) block rows a, b, c stand for."""
    covs = np.moveaxis(covs, -1, 0)
    d, o = spec.state_dim, spec.obs_dim
    moved = d - o  # the coordinates that have a velocity
    assert not covs[:, 1:, moved:].any(), "a coordinate without velocity has a b or c"
    pos, vel = np.arange(moved), np.arange(o, d)
    out = np.zeros((len(covs), d, d))
    out[:, np.arange(o), np.arange(o)] = covs[:, 0]
    out[:, pos, vel] = out[:, vel, pos] = covs[:, 1, :moved]
    out[:, vel, vel] = covs[:, 2, :moved]
    return out


def _reference_height_like(mean) -> float:
    s = max(float(mean[2]), 1e-6)
    r = max(float(mean[3]), 1e-6)
    return max(math.sqrt(s / r), 1.0)


def reference_process_noise(spec, mean) -> np.ndarray:
    """One state's Q, built the way the one-track filter built it."""
    if spec.model is motion.MotionModel.SORT_CV7:
        h = _reference_height_like(mean)
        wp, wv = spec.std_weight_position, spec.std_weight_velocity
        std = np.array([wp * h, wp * h, wp * h * h, 1e-2, wv * h, wv * h, wv * h * h])
        return np.diag(std**2)
    q = spec.process_std
    dt = spec.dt
    axis = np.array([[dt**4 / 4.0, dt**3 / 2.0], [dt**3 / 2.0, dt**2]]) * q * q
    out = np.zeros((4, 4))
    for pos, vel in ((0, 2), (1, 3)):
        out[pos, pos] = axis[0, 0]
        out[pos, vel] = out[vel, pos] = axis[0, 1]
        out[vel, vel] = axis[1, 1]
    return out


def reference_measurement_noise(spec, mean) -> np.ndarray:
    if spec.model is motion.MotionModel.SORT_CV7:
        h = _reference_height_like(mean)
        wp = spec.std_weight_position
        std = np.array([wp * h, wp * h, wp * h * h, 1e-1])
        return np.diag(std**2)
    return np.eye(2) * spec.measurement_std**2


def _center(bbox) -> Tuple[float, float]:
    return 0.5 * (bbox.x1 + bbox.x2), 0.5 * (bbox.y1 + bbox.y2)


def reference_observe(spec, bbox) -> np.ndarray:
    cx, cy = _center(bbox)
    if spec.model is motion.MotionModel.SORT_CV7:
        w, h = bbox.x2 - bbox.x1, bbox.y2 - bbox.y1
        return np.array([cx, cy, w * h, w / h])
    return np.array([cx, cy])


def _reference_checked_cov(cov: np.ndarray) -> np.ndarray:
    sym = 0.5 * (cov + cov.T)
    np.linalg.cholesky(sym + motion.PSD_TOLERANCE * np.eye(sym.shape[0]))
    return sym


def reference_kf_init(bbox, spec):
    """One track's initial (mean, cov), computed as the one-track filter did."""
    cx, cy = _center(bbox)
    if spec.model is motion.MotionModel.SORT_CV7:
        bw, bh = bbox.x2 - bbox.x1, bbox.y2 - bbox.y1
        area, aspect = bw * bh, bw / bh
        mean = np.array([cx, cy, area, aspect, 0.0, 0.0, 0.0])
        h = _reference_height_like(mean)
        wp, wv = spec.std_weight_position, spec.std_weight_velocity
        std = np.array([
            2 * wp * h, 2 * wp * h, 2 * wp * h * h, 1e-1,
            10 * wv * h, 10 * wv * h, 10 * wv * h * h,
        ])
        return mean, np.diag(std**2)
    r, q = spec.measurement_std, spec.process_std
    return np.array([cx, cy, 0.0, 0.0]), np.diag([r * r, r * r, (10 * q) ** 2, (10 * q) ** 2])


def reference_kf_predict(mean, cov, spec):
    """One track's predict in float64, in the operation order the batched filter keeps."""
    mean = np.array(mean)
    if spec.model is motion.MotionModel.SORT_CV7 and mean[2] + mean[6] * spec.dt <= 0.0:
        mean[6] = 0.0
    f = reference_transition_matrix(spec)
    q = reference_process_noise(spec, mean)
    return f @ mean, _reference_checked_cov(f @ cov @ f.T + q)


def reference_kf_update(mean, cov, spec, bbox):
    """One track's update in float64, in the operation order the batched filter keeps."""
    h = reference_measurement_matrix(spec)
    r = reference_measurement_noise(spec, mean)
    innovation = reference_observe(spec, bbox) - h @ mean
    s = h @ cov @ h.T + r
    gain = np.linalg.solve(s, h @ cov).T
    return mean + gain @ innovation, _reference_checked_cov((np.eye(len(mean)) - gain @ h) @ cov)


def reference_corner_boxes(means, extents, spec):
    """``motion.corner_boxes`` in its first table form: ``any(axis=0)`` flags, and 1.0
    placeholders put into a copy of every SORT_CV7 table by ``np.where``, degenerate rows or not."""
    if spec.model is motion.MotionModel.SORT_CV7:
        degenerate = (means[2:4] <= 0.0).any(axis=0)
        s, r = np.where(degenerate, 1.0, means[2:4])[:, None]
        with np.errstate(over="ignore"):
            w = np.sqrt(s * r)
        half = np.concatenate([w, s / w]) / 2.0
    else:
        degenerate = (extents <= 0.0).any(axis=0)
        half = extents / 2.0
    return np.concatenate([means[:2] - half, means[:2] + half]), degenerate


def oracle_predict(mean, cov, spec):
    """Textbook predict in long doubles: m <- F m, P <- F P F^T + Q."""
    f = reference_transition_matrix(spec).astype(np.longdouble)
    q = reference_process_noise(spec, np.asarray(mean, dtype=float)).astype(np.longdouble)
    m = np.asarray(mean, dtype=np.longdouble)
    p = np.asarray(cov, dtype=np.longdouble)
    if spec.model is motion.MotionModel.SORT_CV7 and m[2] + m[6] * spec.dt <= 0.0:
        m = m.copy()
        m[6] = 0.0
    return f @ m, f @ p @ f.T + q


def oracle_update(mean, cov, spec, bbox):
    """Joseph-form correction in long doubles; independent of the library's form."""
    h = reference_measurement_matrix(spec).astype(np.longdouble)
    r = reference_measurement_noise(spec, np.asarray(mean, dtype=float)).astype(np.longdouble)
    z = reference_observe(spec, bbox).astype(np.longdouble)
    m = np.asarray(mean, dtype=np.longdouble)
    p = np.asarray(cov, dtype=np.longdouble)
    s = h @ p @ h.T + r
    k = _solve_ld(s.T, (p @ h.T).T).T  # K = P H^T S^-1 via S^T K^T = (P H^T)^T
    m_new = m + k @ (z - h @ m)
    i_kh = np.eye(p.shape[0], dtype=np.longdouble) - k @ h
    p_new = i_kh @ p @ i_kh.T + k @ r @ k.T
    return m_new, p_new


def reference_centroid_cost(boxes, dets, centroid_gate: float):
    """Per-pair ``math.hypot`` of box-center offsets, gated at a fraction of the larger diagonal."""
    from trackfuse.model import BoundingBox

    values = np.zeros((len(boxes), len(dets)))
    mask = np.zeros(values.shape, dtype=bool)
    for i, box in enumerate(np.asarray(boxes).tolist()):
        ref = BoundingBox(*box)
        for j, det in enumerate(dets):
            (ax, ay), (bx, by) = _center(ref), _center(det.bbox)
            values[i, j] = d = math.hypot(ax - bx, ay - by)
            diagonals = (math.hypot(b.x2 - b.x1, b.y2 - b.y1) for b in (ref, det.bbox))
            mask[i, j] = d <= centroid_gate * max(diagonals)
    return values, mask


def reference_cosine_matrix(embs, det_embs):
    """Per-track loop of cosine similarities, as the tracker computed them one track at a time."""
    cos = np.zeros((len(embs), len(det_embs)))
    ok = np.zeros(cos.shape, dtype=bool)
    det_norms = np.linalg.norm(det_embs, axis=1)
    for i, emb in enumerate(embs):
        t_norm = float(np.linalg.norm(emb))
        if t_norm == 0.0:
            continue
        valid = det_norms > 0.0
        cos[i, valid] = det_embs[valid] @ emb / (det_norms[valid] * t_norm)
        ok[i, valid] = True
    return cos, ok


def _reference_vote_winner(votes: np.ndarray, mass: np.ndarray) -> int:
    """Class with the most votes; ties go to the larger mass, then the lowest index."""
    tied = np.flatnonzero(votes == votes.max())
    return int(max(tied, key=lambda c: (mass[c], -c)))


def reference_track_labels(track, vote: bool, online: bool) -> Dict[int, int]:
    """Fused label per frame_id of one track, from per-entry running sums.

    Walks the entries once, adding each log probability (or vote and mass) to
    a running total; ``online`` takes the label after each entry, otherwise
    every frame gets the label after the last entry.
    """
    n_classes = track.entries[0].dist.probs.size
    cum = np.zeros(n_classes)
    votes = np.zeros(n_classes, dtype=int)
    mass = np.zeros(n_classes)
    labels: Dict[int, int] = {}
    for entry in track.entries:
        if vote:
            votes[int(np.argmax(entry.dist.probs))] += 1
            mass += entry.dist.probs
            labels[entry.frame_id] = _reference_vote_winner(votes, mass)
        else:
            cum += np.log(entry.dist.probs)
            labels[entry.frame_id] = int(np.argmax(cum))
    if not online:
        last = labels[track.entries[-1].frame_id]
        labels = dict.fromkeys(labels, last)
    return labels


_UNDERFLOW_GUARD = 1e-320
# Keeps strongly-dominated classes representable instead of exactly zero.
# Deliberately far below the ingestion floor: re-flooring fused outputs at
# that level would cap the likelihood ratio an iterated fold can carry and
# make folding disagree with the summed-log consensus.


def reference_fuse_pair(prev: ClassDistribution, curr: ClassDistribution) -> ClassDistribution:
    """Renormalized elementwise product of two distributions, done in log space."""
    if prev.probs.size != curr.probs.size:
        raise WrongLength(f"cannot fuse lengths {prev.probs.size} and {curr.probs.size}")
    joint = np.log(prev.probs) + np.log(curr.probs)
    top = joint.max()
    joint = joint - (top + np.log(np.exp(joint - top).sum()))
    return ClassDistribution(np.maximum(np.exp(joint), _UNDERFLOW_GUARD))


def random_box(rng: np.random.Generator, img=1000.0, min_size=5.0, max_size=120.0):
    from trackfuse.model import BoundingBox

    w = rng.uniform(min_size, max_size)
    h = rng.uniform(min_size, max_size)
    x = rng.uniform(0.0, img - w)
    y = rng.uniform(0.0, img - h)
    return BoundingBox(x, y, x + w, y + h)


def random_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.dirichlet(np.ones(n) * 0.5)
    return np.maximum(raw, 1e-12) / np.maximum(raw, 1e-12).sum()


def distribution(raw) -> ClassDistribution:
    """``raw`` validated by the library as a one-row table, for building a Detection."""
    arr = np.asarray(raw, dtype=float)
    return ClassDistribution(validate_distribution(arr[None], arr.size)[0])


def reference_validate_distribution(raw, n_classes: int) -> ClassDistribution:
    """One vector's floor-and-renormalise fixpoint, as the library ran it per detection."""
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1 or arr.size != n_classes:
        raise WrongLength(f"expected {n_classes} entries, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidValue("distribution entries must be finite")
    if np.any(arr < 0.0):
        raise InvalidValue("distribution entries must be non-negative")
    if float(arr.sum()) < 1e-9:
        raise DegenerateSum(f"sum {float(arr.sum())!r} is too small to normalize")

    x = arr
    for _ in range(16):
        y = np.maximum(x, PROB_FLOOR)
        total = float(y.sum())
        if abs(total - 1.0) > 1e-12:
            y = y / total
        if np.array_equal(y, x):
            break
        x = y
    return ClassDistribution(x)


def _reference_parse_json(text: str, line_no: int = 1):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(line_no + exc.lineno - 1, f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(line_no, "JSON is nested too deeply") from None


def _reference_read_records(path):
    count = 0
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            count += 1
            record = _reference_parse_json(text, line_no)
            if not isinstance(record, dict):
                raise ParseError(line_no, "record must be a JSON object")
            yield line_no, record
    if count == 0:
        raise EmptyFile(f"detection file {path} contains no records")


def reference_parse_detections(path, label_set):
    """The line-by-line detection parser: each line's Detection is built and checked in full."""
    n_classes = len(label_set)
    grouped: Dict[str, Dict[int, List[Detection]]] = {}
    emb_dims: Dict[str, Optional[int]] = {}
    for line_no, record in _reference_read_records(path):
        det, seq = _reference_parse_line(record, line_no, n_classes)
        actual = None if det.embedding is None else det.embedding.size
        expected = emb_dims.setdefault(seq, actual)
        if actual != expected:
            raise SchemaError(
                f"line {line_no}: embedding dim {actual} differs from "
                f"{expected} earlier in sequence {seq!r}"
            )
        grouped.setdefault(seq, {}).setdefault(det.frame_id, []).append(det)
    return {
        seq: [(frame, dets) for frame, dets in sorted(frames.items())]
        for seq, frames in grouped.items()
    }


def _require_numbers(values: list, name: str, line_no: int) -> None:
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        raise ParseError(line_no, f"{name} must hold real numbers, got {values!r}")


def _sequence_name(record: dict, line_no: int) -> str:
    if not isinstance(record["seq"], str):
        raise ParseError(line_no, f"seq must be a string, got {record['seq']!r}")
    return record["seq"]


def _reference_parse_line(record: dict, line_no: int, n_classes: int):
    for key in ("seq", "frame", "bbox", "score", "probs"):
        if key not in record:
            raise ParseError(line_no, f"missing field {key!r}")
    bbox_values = record["bbox"]
    if not isinstance(bbox_values, list) or len(bbox_values) != 4:
        raise ParseError(line_no, f"bbox must be [x1, y1, x2, y2], got {bbox_values!r}")
    _require_numbers(bbox_values, "bbox", line_no)
    try:
        bbox = BoundingBox(*bbox_values)
    except (TrackfuseError, OverflowError) as exc:
        raise ParseError(line_no, str(exc)) from None

    probs = record["probs"]
    if not isinstance(probs, list) or len(probs) != n_classes:
        raise SchemaError(
            f"line {line_no}: probs has {len(probs) if isinstance(probs, list) else 'no'} "
            f"entries, label set has {n_classes}"
        )
    _require_numbers(probs, "probs", line_no)
    _require_numbers([record["score"]], "score", line_no)
    if isinstance(record.get("embedding"), list):
        _require_numbers(record["embedding"], "embedding", line_no)
    try:
        dist = reference_validate_distribution(probs, n_classes)
        det = Detection(
            frame_id=record["frame"],
            bbox=bbox,
            score=record["score"],
            dist=dist,
            embedding=record.get("embedding"),
            gt_class=record.get("gt_class"),
            gt_track=record.get("gt_track"),
        )
    except TrackfuseError as exc:
        raise ParseError(line_no, str(exc)) from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(line_no, f"bad field value: {exc}") from None
    return det, _sequence_name(record, line_no)


# The object path of `track` and `eval`, as the library ran it before its
# columnar form: one Detection per row, one tracker_step per frame over
# Detection lists, track and label records of its own (RefTrack, RefLabel,
# RefResult), per-track fusion and per-record metrics.
# ``reference_track_outputs`` runs it end to end.

class RefTrack(NamedTuple):
    """An identity's trajectory: its id and the detections matched to it, in frame order."""

    id: int
    entries: Tuple[Detection, ...]


class RefLabel(NamedTuple):
    """One detection's outcome: its track id (None for none) and fused class label."""

    detection: Detection
    track_id: Optional[int]
    fused_label: int

    @property
    def frame_id(self) -> int:
        return self.detection.frame_id

    @property
    def raw_label(self) -> int:
        return int(np.argmax(self.detection.dist.probs))


class RefResult(NamedTuple):
    """One sequence on the object path: its tracks, and one RefLabel per detection in order."""

    tracks: Tuple[RefTrack, ...]
    per_frame: Tuple[RefLabel, ...]


def reference_result(result) -> RefResult:
    """The object form of a ``ColumnResult``: its rows as Detections, grouped by track id."""
    dets = [det for _, group in result.cols.frames() for det in group]
    ids = result.track.tolist()
    entries = {}
    for det, track_id in zip(dets, ids):
        if track_id >= 0:
            entries.setdefault(track_id, []).append(det)
    return RefResult(tuple(RefTrack(i, tuple(group)) for i, group in sorted(entries.items())),
                     tuple(RefLabel(det, None if track_id < 0 else track_id, label)
                           for det, track_id, label in zip(dets, ids, result.fused.tolist())))


def track_rows(result) -> List[np.ndarray]:
    """Each track's rows of a ``ColumnResult`` in frame order, tracks by ascending id."""
    order, starts = result.runs
    return [order[lo:hi] for lo, hi in zip(starts.tolist(), starts[1:].tolist() + [len(order)])]


def track_frames(result) -> Dict[int, Tuple[int, ...]]:
    """Track id -> the frame ids of its rows in order, for each track of a ``ColumnResult``."""
    return {int(result.track[rows[0]]): tuple(result.cols.frame[rows].tolist())
            for rows in track_rows(result)}


def _reference_geometric_cost(kind, boxes, dets, config, embs=None):
    """Costs of tracks with reference ``boxes`` (and ``embs`` for appearance) against ``dets``."""
    n_t, n_d = len(boxes), len(dets)
    if n_t == 0 or n_d == 0:
        return CostMatrix(np.zeros((n_t, n_d)), np.zeros((n_t, n_d), dtype=bool))
    det_boxes = np.array([det.bbox.as_tuple() for det in dets])

    if kind in (TrackerKind.CENTROID, TrackerKind.CENTROID_KF):
        c_t, c_d = (0.5 * (b[:, :2] + b[:, 2:]) for b in (boxes, det_boxes))
        diff = c_t[:, None] - c_d[None]
        values = trackers._hypot(diff[..., 0], diff[..., 1])
        diag_t, diag_d = (trackers._hypot(*(b[:, 2:] - b[:, :2]).T) for b in (boxes, det_boxes))
        gate = config.centroid_gate * np.maximum(diag_t[:, None], diag_d[None])
        return CostMatrix(values, values <= gate)

    ious = iou_matrix(boxes.T, det_boxes.T)
    mask = ious >= config.iou_gate
    values = 1.0 - ious

    if kind is TrackerKind.APPEARANCE:
        cos, ok = trackers._cosine_matrix(embs, np.stack([det.embedding for det in dets]))
        w = config.appearance_weight
        values = w * (1.0 - cos) + (1.0 - w) * (1.0 - ious)
        mask = mask & ok & (cos >= config.cosine_gate)
    return CostMatrix(values, mask)


def _reference_greedy_iou_step(boxes, dets, config):
    ious = iou_matrix(boxes.T, np.array([det.bbox.as_tuple() for det in dets]).reshape(-1, 4).T)
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
    um_d = tuple(j for j in range(len(dets)) if j not in used_d)
    return tuple(matches), um_t, um_d


def _reference_update_rows(state, matched, spec, kind):
    if not matched:
        return
    table = state.table
    rows = [row for row, _ in matched]
    table["box"][:, rows] = boxes = np.array([det.bbox.as_tuple() for _, det in matched]).T
    if spec is not None:
        table["mean"][:, rows], table["cov"][..., rows] = motion.kf_update(
            table["mean"][:, rows], table["cov"][..., rows], motion.observe(spec, boxes), spec,
            table["id"][rows].tolist())
    if kind is TrackerKind.APPEARANCE:
        mixed = (trackers.EMBEDDING_SMOOTHING * table["emb"][rows]
                 + (1.0 - trackers.EMBEDDING_SMOOTHING)
                 * np.stack([det.embedding for _, det in matched]))
        table["emb"][rows] = trackers._unit_rows(mixed)


def _reference_spawn_rows(state, dets, spec, kind):
    ids = list(range(state.next_id, state.next_id + len(dets)))
    new = {"id": np.array(ids), "age": np.zeros(len(dets), dtype=int),
           "box": np.array([det.bbox.as_tuple() for det in dets]).T}
    if spec is not None:
        new["mean"], new["cov"] = motion.kf_init(motion.observe(spec, new["box"]), spec, ids)
    if kind is TrackerKind.APPEARANCE:
        new["emb"] = trackers._unit_rows(np.stack([det.embedding for det in dets]))
    for name, col in new.items():
        if name in state.table:
            col = np.concatenate([state.table[name], col], axis=-1 if name in TRACK_LAST else 0)
        state.table[name] = col
    state.next_id += len(dets)
    return ids


def reference_tracker_step(state, frame_id, detections, config):
    """One frame over a list of Detections; returns the state and (index, track id or None)."""
    if frame_id <= state.cursor:
        raise OutOfOrderFrame(f"frame {frame_id} is not past cursor {state.cursor}")
    for det in detections:
        if det.frame_id != frame_id:
            raise InvalidValue(f"frame {frame_id} holds a detection of frame {det.frame_id}")
    kind = config.kind
    if kind is TrackerKind.APPEARANCE:
        for det in detections:
            if det.embedding is None:
                raise MissingEmbedding(f"frame {frame_id}: appearance tracking needs embeddings")

    high_idx = [i for i, d in enumerate(detections) if d.score >= config.det_threshold_high]
    low_idx = ([i for i, d in enumerate(detections)
                if config.det_threshold_low <= d.score < config.det_threshold_high]
               if kind is TrackerKind.BYTETRACK else [])

    spec = config.resolved_motion_spec() if kind in trackers._KF_KINDS else None
    table = state.table
    ids = table["id"].tolist()
    if spec is not None and ids:
        table["mean"], table["cov"] = motion.kf_predict(table["mean"], table["cov"], spec, ids)

    assigned = {}
    high_dets = [detections[i] for i in high_idx]
    boxes = trackers._reference_boxes(state, spec).T
    if kind is TrackerKind.IOU:
        matches, um_t, um_d = _reference_greedy_iou_step(boxes, high_dets, config)
    else:
        cost = _reference_geometric_cost(kind, boxes, high_dets, config, table.get("emb"))
        result = solve_assignment(cost)
        matches, um_t, um_d = result.matches, result.unmatched_tracks, result.unmatched_detections
    matched = [(t_i, high_dets[d_i]) for t_i, d_i in matches]
    for t_i, d_i in matches:
        assigned[high_idx[d_i]] = ids[t_i]

    if kind is TrackerKind.BYTETRACK and low_idx and um_t:
        low_dets = [detections[i] for i in low_idx]
        cost = _reference_geometric_cost(TrackerKind.SORT, boxes[list(um_t)], low_dets, config)
        for t_i, d_i in solve_assignment(cost).matches:
            matched.append((um_t[t_i], low_dets[d_i]))
            assigned[low_idx[d_i]] = ids[um_t[t_i]]
    _reference_update_rows(state, matched, spec, kind)

    table["age"] += 1
    table["age"][[row for row, _ in matched]] = 0
    keep = table["age"] <= config.max_age
    if not keep.all():
        state.table = {name: col[..., keep] if name in TRACK_LAST else col[keep]
                       for name, col in table.items()}

    spawn_idx = [high_idx[d_i] for d_i in um_d]
    if spawn_idx:
        new_ids = _reference_spawn_rows(state, [detections[i] for i in spawn_idx], spec, kind)
        assigned.update(zip(spawn_idx, new_ids))

    state.cursor = frame_id
    return state, [(i, assigned.get(i)) for i in range(len(detections))]


def reference_run_sequence(frames, config):
    """A RefResult of ``frames``, tracked one reference_tracker_step per frame."""
    state = trackers.TrackerState()
    records = []
    for frame_id, dets in frames:
        state, assigned = reference_tracker_step(state, frame_id, dets, config)
        records.extend((dets[i], track_id) for i, track_id in assigned)

    entries = {}
    for det, track_id in records:
        if track_id is not None:
            entries.setdefault(track_id, []).append(det)
    tracks = tuple(RefTrack(i, tuple(dets)) for i, dets in sorted(entries.items())
                   if len(dets) >= config.min_hits)
    kept = {t.id for t in tracks}
    per_frame = tuple(RefLabel(det, track_id if track_id in kept else None,
                               int(np.argmax(det.dist.probs))) for det, track_id in records)
    return RefResult(tracks, per_frame)


def _reference_running_labels(track, mode):
    if mode is FusionMode.PROBABILITY:
        return np.argmax(np.cumsum([np.log(e.dist.probs) for e in track.entries], axis=0), axis=1)
    probs = np.array([e.dist.probs for e in track.entries])
    votes = np.cumsum(probs.argmax(axis=1)[:, None] == np.arange(probs.shape[1]), axis=0)
    mass = np.cumsum(probs, axis=0)
    return np.argmax(np.where(votes == votes.max(axis=1, keepdims=True), mass, -np.inf), axis=1)


def reference_relabel(result, mode, online=False):
    """``result`` with each track's fused labels, from one cumsum per track."""
    fused = {}
    if mode is not FusionMode.NONE:
        for t in result.tracks:
            labels = _reference_running_labels(t, mode).tolist()
            for k, e in enumerate(t.entries):
                fused[t.id, e.frame_id] = labels[k if online else -1]
    per_frame = tuple(
        RefLabel(rec.detection, rec.track_id,
                 fused.get((rec.track_id, rec.frame_id), rec.raw_label))
        for rec in result.per_frame
    )
    return RefResult(result.tracks, per_frame)


def reference_write_tracks(results, path):
    """The track CSV of RefResults, one tuple per matched record."""
    rows = []
    for seq in sorted(results):
        for rec in results[seq].per_frame:
            if rec.track_id is not None:
                b = rec.detection.bbox
                rows.append((seq, rec.frame_id, rec.track_id, b.x1, b.y1, b.x2 - b.x1, b.y2 - b.y1,
                             rec.detection.score, rec.fused_label, rec.raw_label))
    rows.sort(key=lambda r: r[:3])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        plain = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        plain.writerow("frame,track_id,x,y,w,h,score,fused_class,raw_class,seq".split(","))
        for seq, *fields in rows:
            (quoted if "\r" in seq else plain).writerow((*fields, seq))


def reference_confusion(pairs, n_classes):
    pairs = list(pairs)
    index = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    outside = ((index < 0) | (index >= n_classes)).any(axis=1)
    if outside.any():
        gt, pred = pairs[int(np.argmax(outside))]
        raise IndexOutOfRange(f"pair ({gt}, {pred}) outside [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (index[:, 0], index[:, 1]), 1)
    return ConfusionMatrix(counts)


def reference_label_flip_rate(result, use_fused):
    by_track = {}
    for rec in result.per_frame:
        if rec.track_id is None:
            continue
        label = rec.fused_label if use_fused else rec.raw_label
        by_track.setdefault(rec.track_id, []).append((rec.frame_id, label))
    flips = 0
    pairs = 0
    for recs in by_track.values():
        recs.sort()
        labels = [lbl for _, lbl in recs]
        pairs += len(labels) - 1
        flips += sum(a != b for a, b in zip(labels, labels[1:]))
    if pairs == 0:
        raise NoEligibleTracks("flip rate needs a track with at least two entries")
    return flips / pairs


def reference_evaluation_pairs(results, use_fused, include_unmatched=True):
    pairs = []
    for seq in sorted(results):
        for rec in results[seq].per_frame:
            if rec.detection.gt_class is None:
                continue
            if rec.track_id is None and not include_unmatched:
                continue
            pred = rec.fused_label if use_fused else rec.raw_label
            pairs.append((rec.detection.gt_class, pred))
    return pairs


def reference_metrics_report(results, label_set, include_unmatched, with_flip_rate,
                             with_per_class):
    """The metrics JSON payload of RefResults, from per-record pairs."""
    report = {}
    fused_cm = None
    for key, use_fused in (("raw", False), ("fused", True)):
        pairs = reference_evaluation_pairs(results, use_fused, include_unmatched)
        if not pairs:
            raise EmptyEvaluation("no detections carry gt_class; nothing to evaluate")
        cm = reference_confusion(pairs, len(label_set))
        scores = f1_scores(cm)
        report[key] = {
            "acc1": accuracy_at_1(cm),
            "f1_macro": scores.macro,
            "f1_weighted": scores.weighted,
        }
        if use_fused:
            fused_cm = cm
            report["n_evaluated"] = len(pairs)
    report["n_matched"] = sum(
        1 for res in results.values() for rec in res.per_frame if rec.track_id is not None
    )
    if with_flip_rate:
        rates = {"raw": [], "fused": []}
        for res in results.values():
            try:
                for key, values in rates.items():
                    values.append(reference_label_flip_rate(res, use_fused=key == "fused"))
            except NoEligibleTracks:
                continue
        report["flip_rate"] = {key: sum(v) / len(v) if v else 0.0 for key, v in rates.items()}
    if with_per_class:
        scores = f1_scores(fused_cm)
        support = fused_cm.counts.sum(axis=1)
        report["per_class"] = [
            {"label": label_set[i], "f1": float(scores.per_class[i]), "support": int(support[i])}
            for i in range(len(label_set))
        ]
    return report


def reference_track_outputs(detections, labels, csv_path, metrics_path, config, mode, online,
                            matched_only=False):
    """`track --metrics-out` by the object path: parse, track, relabel, write CSV and JSON."""
    label_set = read_labels(labels)
    sequences = reference_parse_detections(detections, label_set)
    results = {seq: reference_relabel(reference_run_sequence(sequences[seq], config), mode,
                                      online=online)
               for seq in sorted(sequences)}
    reference_write_tracks(results, csv_path)
    report = reference_metrics_report(results, label_set, include_unmatched=not matched_only,
                                      with_flip_rate=True, with_per_class=False)
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
