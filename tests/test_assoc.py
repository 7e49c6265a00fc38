"""Similarity primitives and the gated assignment solver against brute force."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment as scipy_lsa

from oracles import (
    exhaustive_gated_optimum,
    exhaustive_min_total,
    random_box,
    reference_iou,
    reference_solve_assignment,
)
import trackfuse.assoc as assoc
from trackfuse.assoc import (
    AssignmentResult,
    CostMatrix,
    iou_matrix,
    solve_assignment,
)
from trackfuse.errors import InvalidValue
from trackfuse.model import BoundingBox
from trackfuse.trackers import TrackerConfig, TrackerKind, _geometric_cost


def _rasterized_iou(a: BoundingBox, b: BoundingBox, cells_per_px: int = 4) -> float:
    """Counting oracle: rasterize both boxes onto a fine grid and count cells."""
    step = 1.0 / cells_per_px
    x_lo = min(a.x1, b.x1)
    x_hi = max(a.x2, b.x2)
    y_lo = min(a.y1, b.y1)
    y_hi = max(a.y2, b.y2)
    xs = np.arange(x_lo + step / 2, x_hi, step)
    ys = np.arange(y_lo + step / 2, y_hi, step)
    gx, gy = np.meshgrid(xs, ys)
    in_a = (gx > a.x1) & (gx < a.x2) & (gy > a.y1) & (gy < a.y2)
    in_b = (gx > b.x1) & (gx < b.x2) & (gy > b.y1) & (gy < b.y2)
    return float(np.count_nonzero(in_a & in_b)) / float(np.count_nonzero(in_a | in_b))


def _iou(a: BoundingBox, b: BoundingBox) -> float:
    """:func:`iou_matrix` of one box against one box."""
    return float(iou_matrix([a.as_tuple()], [b.as_tuple()])[0, 0])


class TestIou:
    def test_identical_boxes(self):
        b = BoundingBox(0, 0, 10, 10)
        assert _iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert _iou(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 6, 6)) == 0.0

    def test_partial_overlap_against_cell_count(self):
        a = BoundingBox(0, 0, 2, 2)
        b = BoundingBox(1, 0, 3, 2)
        # Integer-aligned corners: the unit-cell count is exact (2 of 6 cells).
        assert _rasterized_iou(a, b, cells_per_px=1) == pytest.approx(1.0 / 3.0)
        assert _iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_random_boxes_match_rasterized_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_box(rng, img=40.0, min_size=4.0, max_size=16.0)
            b = random_box(rng, img=40.0, min_size=4.0, max_size=16.0)
            assert _iou(a, b) == pytest.approx(_rasterized_iou(a, b, 8), abs=0.05)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            a = random_box(rng)
            b = random_box(rng)
            v = _iou(a, b)
            assert v == _iou(b, a)
            assert 0.0 <= v <= 1.0
            assert _iou(a, a) == 1.0


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestIouMatrix:
    def _assert_bitwise(self, boxes_a, boxes_b):
        got = iou_matrix([b.as_tuple() for b in boxes_a], [b.as_tuple() for b in boxes_b])
        want = [[reference_iou(a, b) for b in boxes_b] for a in boxes_a]
        assert got.shape == (len(boxes_a), len(boxes_b))
        assert np.array_equal(_bits(got), _bits(np.reshape(want, got.shape)))

    def test_random_boxes_equal_scalar_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            boxes_a = [random_box(rng, img=200.0) for _ in range(int(rng.integers(1, 15)))]
            boxes_b = [random_box(rng, img=200.0) for _ in range(int(rng.integers(1, 15)))]
            self._assert_bitwise(boxes_a, boxes_b)

    def test_special_layouts_equal_scalar_bitwise(self):
        base = BoundingBox(10.0, 10.0, 20.0, 20.0)
        boxes = [
            base,
            BoundingBox(10.0, 10.0, 20.0, 20.0),     # identical
            BoundingBox(30.0, 30.0, 40.0, 40.0),     # disjoint
            BoundingBox(20.0, 10.0, 30.0, 20.0),     # touching along an edge
            BoundingBox(20.0, 20.0, 25.0, 25.0),     # touching at a corner
            BoundingBox(12.5, 12.5, 17.5, 17.5),     # contained
            BoundingBox(0.0, 0.0, 40.0, 40.0),       # containing
            BoundingBox(0.1, 0.2, 10.3, 10.7),       # non-representable corners
            BoundingBox(-5.0, -5.0, 10.0, 10.0),     # corner-to-corner
        ]
        self._assert_bitwise(boxes, boxes)

    def test_empty_sides(self):
        box = [(0.0, 0.0, 1.0, 1.0)]
        assert iou_matrix([], box).shape == (0, 1)
        assert iou_matrix(box, []).shape == (1, 0)


def _centroid_cost(a: BoundingBox, b: BoundingBox) -> float:
    """The centroid tracker's cost of a track at box ``a`` against a detection at box ``b``."""
    kind = TrackerKind.CENTROID
    cost = _geometric_cost(kind, np.array([a.as_tuple()]), np.array([b.as_tuple()]),
                           TrackerConfig(kind=kind))
    return float(cost.values[0, 0])


class TestCentroidDistance:
    def test_identity(self):
        b = BoundingBox(3, 4, 9, 11)
        assert _centroid_cost(b, b) == 0.0

    def test_three_four_five(self):
        a = BoundingBox(-1, -1, 1, 1)     # center (0, 0)
        b = BoundingBox(2, 3, 4, 5)       # center (3, 4)
        assert _centroid_cost(a, b) == 5.0

    def test_sqrt5(self):
        a = BoundingBox(0, 0, 2, 2)       # center (1, 1)
        b = BoundingBox(1, 2, 3, 4)       # center (2, 3)
        # Exact reference: sqrt(5) evaluated in extended precision.
        expected = float(np.sqrt(np.longdouble(5)))
        assert _centroid_cost(a, b) == pytest.approx(expected, abs=1e-12)


def _all_admissible(values: np.ndarray) -> CostMatrix:
    return CostMatrix(values, np.ones(values.shape, dtype=bool))


def _total(values: np.ndarray, result: AssignmentResult) -> float:
    return float(sum(values[r, c] for r, c in result.matches))


class TestCostMatrix:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_only_admissible_entries_must_be_finite(self, bad):
        values = np.array([[0.5, bad], [0.25, 0.75]])
        mask = np.array([[True, False], [True, True]])
        assert CostMatrix(values, mask).shape == (2, 2)  # a gated-out entry may be anything
        with pytest.raises(InvalidValue, match="admissible cost entries must be finite"):
            CostMatrix(values, np.ones((2, 2), dtype=bool))


class TestSolveAssignment:
    def test_diagonal_dominance(self):
        result = solve_assignment(_all_admissible(np.array([[1.0, 2.0], [2.0, 1.0]])))
        assert result.matches == ((0, 0), (1, 1))
        assert result.unmatched_tracks == ()
        assert result.unmatched_detections == ()

    def test_empty_side(self):
        result = solve_assignment(CostMatrix(np.zeros((1, 0)), np.zeros((1, 0), dtype=bool)))
        assert result.matches == ()
        assert result.unmatched_tracks == (0,)
        assert result.unmatched_detections == ()

    def test_empty_matrix(self):
        result = solve_assignment(CostMatrix(np.zeros((0, 0)), np.zeros((0, 0), dtype=bool)))
        assert result == AssignmentResult((), (), ())

    def test_seeded_5x5_matches_brute_force(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0.0, 1.0, size=(5, 5))
        result = solve_assignment(_all_admissible(values))
        assert len(result.matches) == 5
        assert _total(values, result) == pytest.approx(exhaustive_min_total(values), abs=1e-9)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_shapes_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        values = rng.uniform(0.0, 10.0, size=(rows, cols))
        result = solve_assignment(_all_admissible(values))
        assert len(result.matches) == min(rows, cols)
        assert _total(values, result) <= exhaustive_min_total(values) + 1e-9

    def test_gated_pairs_never_matched(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            values = rng.uniform(0.0, 1.0, size=(rows, cols))
            mask = rng.random((rows, cols)) < 0.6
            result = solve_assignment(CostMatrix(values, mask))
            for r, c in result.matches:
                assert mask[r, c]

    def test_gated_optimum_matches_exhaustive(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 5))
            values = rng.uniform(0.0, 1.0, size=(rows, cols))
            mask = rng.random((rows, cols)) < 0.7
            result = solve_assignment(CostMatrix(values, mask))
            (best_sent, best_real), _ = exhaustive_gated_optimum(values, mask)
            # Admissible matches = padded square size minus sentinel picks.
            assert len(result.matches) == max(rows, cols) - best_sent
            assert _total(values, result) == pytest.approx(best_real, abs=1e-6)

    def test_lexicographic_tie_break(self):
        # Costs on a coarse grid force plenty of exact ties.
        rng = np.random.default_rng(31)
        for _ in range(40):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 5))
            values = rng.integers(0, 3, size=(rows, cols)).astype(float) / 4.0
            mask = rng.random((rows, cols)) < 0.8
            result = solve_assignment(CostMatrix(values, mask))
            _, want_matches = exhaustive_gated_optimum(values, mask)
            assert result.matches == want_matches
        # Sparse masks leave rows unmatched, which must not take columns others need.
        for _ in range(300):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 5))
            values = rng.integers(0, 3, size=(rows, cols)).astype(float) / 4.0
            mask = rng.random((rows, cols)) < rng.uniform(0.2, 0.5)
            result = solve_assignment(CostMatrix(values, mask))
            _, want_matches = exhaustive_gated_optimum(values, mask)
            assert result.matches == want_matches

    def test_unmatched_row_leaves_shared_column_to_lower_row(self):
        # Both rows tie on the only admissible column; the lower track index wins it.
        values = np.array([[0.5, 0.5], [0.5, 0.5]])
        mask = np.array([[False, True], [False, True]])
        result = solve_assignment(CostMatrix(values, mask))
        assert result == AssignmentResult(((0, 1),), (1,), (0,))
        assert exhaustive_gated_optimum(values, mask)[1] == ((0, 1),)

    def test_matches_reference_solver_on_continuous_costs(self):
        # Continuous costs make the optimum unique, so both solvers must agree exactly.
        rng = np.random.default_rng(53)
        for _ in range(2000):
            rows = int(rng.integers(1, 13))
            cols = int(rng.integers(1, 13))
            values = rng.uniform(0.0, 1.0, size=(rows, cols))
            mask = rng.random((rows, cols)) < rng.uniform(0.05, 0.9)
            cost = CostMatrix(values, mask)
            assert solve_assignment(cost) == reference_solve_assignment(cost)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            values = rng.uniform(0.0, 1.0, size=(n, n))
            base = solve_assignment(_all_admissible(values))
            shifted = solve_assignment(_all_admissible(values + 7.5))
            assert base.matches == shifted.matches
            assert _total(values + 7.5, shifted) == pytest.approx(
                _total(values, base) + 7.5 * n, rel=1e-12)


def _iou_style_block(rng, rows: int, cols: int):
    """1 - IoU costs from a coarse grid of overlaps, gated at IoU >= 0.3: many exact ties."""
    values = 1.0 - rng.choice([0.3, 0.5, 0.7, 0.9, 1.0], (rows, cols)) * rng.choice(
        [1.0, 0.5], (rows, cols))
    return values, values <= 0.7


class TestBlockSolver:
    def test_one_solve_per_block(self, monkeypatch):
        calls = []
        solver = assoc.linear_sum_assignment
        monkeypatch.setattr(assoc, "linear_sum_assignment",
                            lambda cost: calls.append(cost.shape) or solver(cost))
        rng = np.random.default_rng(61)
        for _ in range(300):
            # Every pair admissible and both sides >= 2: no forced pair, one block.
            rows, cols = (int(k) for k in rng.integers(2, 9, size=2))
            solve_assignment(_all_admissible(rng.integers(0, 3, size=(rows, cols)) / 4.0))
        assert len(calls) == 300

    def test_iou_style_ties_match_exhaustive(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            cols = int(rng.integers(1, 5))
            rows = int(rng.integers(cols + 1, 8))
            values, mask = _iou_style_block(rng, rows, cols)
            result = solve_assignment(CostMatrix(values, mask))
            assert result.matches == exhaustive_gated_optimum(values, mask)[1]

    @pytest.mark.parametrize("rows", [20, 50, 100])
    @pytest.mark.parametrize("col_ratio", [1.0, 0.5, 1.5])
    def test_large_all_admissible_blocks_match_reference(self, rows, col_ratio):
        rng = np.random.default_rng(rows + int(10 * col_ratio))
        values = rng.uniform(0.0, 1.0, size=(rows, int(rows * col_ratio)))
        cost = _all_admissible(values)
        assert solve_assignment(cost) == reference_solve_assignment(cost)

    def test_duals_are_feasible_and_complementary(self):
        rng = np.random.default_rng(71)
        for _ in range(300):
            rows = int(rng.integers(1, 12))
            cols = rows + int(rng.integers(0, 12))
            cost = np.where(rng.random((rows, cols)) < 0.6,
                            rng.integers(0, 5, size=(rows, cols)) / 4.0, np.inf)
            cost[np.arange(rows), rng.permutation(cols)[:rows]] = 10.0  # one complete assignment
            col4row, u, v = assoc.linear_sum_assignment(cost)
            assert sorted(set(col4row.tolist())) == sorted(col4row.tolist())
            finite = np.isfinite(cost)
            slack = np.where(finite, cost - u[:, None] - v, 0.0)
            assert slack.min() >= -1e-9
            assert np.allclose(slack[np.arange(rows), col4row], 0.0, atol=1e-9)
            free = np.ones(cols, dtype=bool)
            free[col4row] = False
            assert np.all(v <= 0.0) and np.all(v[free] == 0.0)
            want_rows, want_cols = scipy_lsa(cost)
            assert cost[np.arange(rows), col4row].sum() == pytest.approx(
                cost[want_rows, want_cols].sum(), abs=1e-9)

    def test_row_without_a_complete_assignment_is_invalid(self):
        # Both rows can only take column 1.
        with pytest.raises(InvalidValue, match="row 1"):
            assoc.linear_sum_assignment(np.array([[np.inf, 1.0], [np.inf, 2.0]]))
