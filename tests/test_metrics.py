"""Classification metrics against hand counts and a scalar reimplementation."""

import time

import numpy as np
import pytest

from oracles import distribution
from trackfuse.errors import EmptyEvaluation, IndexOutOfRange, NoEligibleTracks
from trackfuse.fusion import FusionMode, relabel
from trackfuse.metrics import (
    ConfusionMatrix,
    StageTimer,
    accuracy_at_1,
    confusion,
    f1_scores,
    format_profile_table,
    label_flip_rate,
)
from trackfuse.model import BoundingBox, Columns, Detection
from trackfuse.synth import ScenarioConfig, flicker_class, generate_scenario
from trackfuse.trackers import TrackerConfig, TrackerKind, track_columns

# Five hand-tabulated pairs: gt 0 predicted 0 and 1; gt 1 predicted 1 twice;
# gt 2 predicted 0.
FIVE_PAIRS = [(0, 0), (0, 1), (1, 1), (1, 1), (2, 0)]


def _scalar_f1(counts):
    """Plain-python per-class precision/recall/F1 plus macro and weighted means."""
    n = len(counts)
    per_class = []
    supports = []
    for c in range(n):
        tp = counts[c][c]
        pred = sum(counts[g][c] for g in range(n))
        supp = sum(counts[c][p] for p in range(n))
        precision = tp / pred if pred else 0.0
        recall = tp / supp if supp else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append(f1)
        supports.append(supp)
    macro = sum(per_class) / n
    total = sum(supports)
    weighted = sum(f * s for f, s in zip(per_class, supports)) / total
    return per_class, macro, weighted


class TestConfusion:
    def test_empty_pairs(self):
        cm = confusion([], 3)
        assert cm.total == 0
        assert np.array_equal(cm.counts, np.zeros((3, 3), dtype=int))

    def test_diagonal(self):
        cm = confusion([(0, 0), (1, 1)], 2)
        assert np.array_equal(cm.counts, [[1, 0], [0, 1]])

    def test_hand_tabulated(self):
        cm = confusion(FIVE_PAIRS, 3)
        assert np.array_equal(cm.counts, [[1, 1, 0], [0, 2, 0], [1, 0, 0]])

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            confusion([(0, 3)], 3)
        with pytest.raises(IndexOutOfRange):
            confusion([(-1, 0)], 3)

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_pair_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        pairs = [tuple(p) for p in rng.integers(0, n, (int(rng.integers(0, 400)), 2)).tolist()]
        counts = np.zeros((n, n), dtype=np.int64)
        for gt, pred in pairs:
            counts[gt, pred] += 1
        assert np.array_equal(confusion(iter(pairs), n).counts, counts)

    @pytest.mark.parametrize("bad", [(3, 0), (0, -1), (-3, 2), (2, 10 ** 6)])
    def test_names_the_first_pair_out_of_range(self, bad):
        pairs = [(0, 1), (2, 2), bad, (-1, 5), (1, 0)]
        with pytest.raises(IndexOutOfRange, match=rf"^pair \({bad[0]}, {bad[1]}\) outside \[0, 3\)$"):
            confusion(pairs, 3)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy_at_1(confusion([(i, i) for i in range(4)], 4)) == 1.0

    def test_all_wrong(self):
        assert accuracy_at_1(confusion([(0, 1), (1, 0)], 2)) == 0.0

    def test_hand_tabulated(self):
        assert accuracy_at_1(confusion(FIVE_PAIRS, 3)) == pytest.approx(0.6)

    def test_empty_raises(self):
        with pytest.raises(EmptyEvaluation):
            accuracy_at_1(confusion([], 3))


class TestF1:
    def test_perfect(self):
        scores = f1_scores(confusion([(i, i) for i in range(3)], 3))
        assert scores.macro == 1.0
        assert scores.weighted == 1.0

    def test_absent_class_scores_zero_but_counts(self):
        # Class 2 never appears in gt or predictions: F1 = 0, still averaged.
        scores = f1_scores(confusion([(0, 0), (1, 1)], 3))
        assert scores.per_class[2] == 0.0
        assert scores.macro == pytest.approx(2.0 / 3.0)
        assert scores.weighted == 1.0

    def test_hand_computed_five_pairs(self):
        # class 0: P=1/2, R=1/2, F1=1/2; class 1: P=2/3, R=1, F1=4/5; class 2: 0.
        scores = f1_scores(confusion(FIVE_PAIRS, 3))
        assert scores.per_class == pytest.approx([0.5, 0.8, 0.0])
        assert scores.macro == pytest.approx((0.5 + 0.8 + 0.0) / 3.0)
        assert scores.weighted == pytest.approx((2 * 0.5 + 2 * 0.8 + 1 * 0.0) / 5.0)

    def test_matches_scalar_reimplementation(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            counts = rng.integers(0, 20, size=(n, n))
            if counts.sum() == 0:
                counts[0, 0] = 1
            scores = f1_scores(ConfusionMatrix(counts))
            want_per_class, want_macro, want_weighted = _scalar_f1(counts.tolist())
            assert np.max(np.abs(scores.per_class - np.asarray(want_per_class))) <= 1e-12
            assert abs(scores.macro - want_macro) <= 1e-12
            assert abs(scores.weighted - want_weighted) <= 1e-12
            assert 0.0 <= scores.macro <= 1.0
            assert 0.0 <= scores.weighted <= 1.0

    def test_weighted_equals_macro_under_equal_support(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            support = int(rng.integers(1, 15))
            counts = np.zeros((n, n), dtype=int)
            for g in range(n):
                cols = rng.integers(0, n, size=support)
                for c in cols:
                    counts[g, c] += 1
            scores = f1_scores(ConfusionMatrix(counts))
            assert scores.weighted == pytest.approx(scores.macro, abs=1e-12)


def _tracked(cols, mode=FusionMode.NONE):
    """``cols`` tracked by the IoU tracker and fused with ``mode``."""
    return relabel(cols, track_columns(cols, TrackerConfig(kind=TrackerKind.IOU)), mode)


def _flicker_columns(flicker=0.3, frames=2000, n_classes=10, seed=42):
    config = ScenarioConfig(seed=seed, num_objects=1, num_frames=frames,
                            n_classes=n_classes, flicker=flicker, confidence=0.8,
                            size_range=(40.0, 40.0))
    return generate_scenario(config).columns


class TestLabelFlipRate:
    def test_fused_labels_never_flip(self):
        result = _tracked(_flicker_columns(), FusionMode.PROBABILITY)
        assert label_flip_rate(result, use_fused=True) == 0.0

    def test_alternating_labels_always_flip(self):
        # One 4-frame track whose argmax alternates A, B, A, B.
        config = ScenarioConfig(seed=0, num_objects=1, num_frames=4, n_classes=2,
                                flicker=0.0, confidence=0.9, size_range=(40.0, 40.0))
        scenario = generate_scenario(config)
        frames = []
        for f, dets in scenario.detection_frames():
            det = dets[0]
            probs = det.dist.probs if f % 2 == 0 else det.dist.probs[::-1]
            frames.append((f, [type(det)(frame_id=f, bbox=det.bbox, score=det.score,
                                         dist=type(det.dist)(np.array(probs)),
                                         embedding=det.embedding)]))
        assert label_flip_rate(_tracked(Columns.from_frames(frames)), use_fused=False) == 1.0

    def test_track_boundaries_are_not_flips(self):
        # Two constant tracks with different labels: no pair crosses between them.
        def det(f, x, probs):
            return Detection(f, BoundingBox(x, 0, x + 20, 20), 0.9, distribution(probs))

        frames = [(f, [det(f, 0, [0.9, 0.1]), det(f, 500, [0.2, 0.8])]) for f in range(3)]
        result = _tracked(Columns.from_frames(frames))
        assert result.track.tolist() == [1, 2] * 3 and result.raw.tolist() == [0, 1] * 3
        assert label_flip_rate(result, use_fused=False) == 0.0

    def test_raw_flip_rate_matches_corruption_model(self):
        phi, n_classes = 0.3, 10
        result = _tracked(_flicker_columns(flicker=phi, frames=20_000, n_classes=n_classes))
        want = 2 * phi * (1 - phi) + phi * phi * (n_classes - 2) / (n_classes - 1)
        got = label_flip_rate(result, use_fused=False)
        assert got == pytest.approx(want, abs=0.02)
        # Monte Carlo replay of the corruption model itself, as a second route.
        config = ScenarioConfig(seed=1, num_objects=1, num_frames=2, n_classes=n_classes,
                                flicker=phi, confidence=0.8)
        rng = np.random.default_rng(123)
        labels = [flicker_class(0, config, rng) for _ in range(100_000)]
        mc = np.mean([a != b for a, b in zip(labels, labels[1:])])
        assert got == pytest.approx(mc, abs=0.02)

    def test_no_eligible_tracks(self):
        config = ScenarioConfig(seed=3, num_objects=1, num_frames=1)
        result = _tracked(generate_scenario(config).columns)
        with pytest.raises(NoEligibleTracks):
            label_flip_rate(result, use_fused=False)


def _table_cells(totals_ms, samples):
    """Each method's row of ``format_profile_table``, keyed by column header."""
    header, _, *rows = format_profile_table(totals_ms, samples).splitlines()
    return {row.split()[0]: dict(zip(header.split(), row.split())) for row in rows}


class TestProfile:
    def test_unused_stage_reports_zero(self):
        cells = _table_cells({"iou": {}}, samples=10)
        assert cells["iou"] == {
            "Method": "iou", "Total": "0.000", "MOT": "0.000", "ReID": "0.000",
            "Classification": "0.000", "Detection": "0.000", "Fusion": "0.000",
            "Metrics": "0.000"}

    def test_mean_times_count_equals_total(self):
        timer = StageTimer()
        for _ in range(7):
            with timer.stage("mot"):
                time.sleep(0.001)
        assert list(timer.totals_s) == ["mot"]
        total_ms = timer.totals_s["mot"] * 1000.0
        assert total_ms >= 7.0  # at least 7 ms total
        cells = _table_cells({"sort": {"mot": total_ms}}, samples=7)
        assert cells["sort"]["MOT"] == f"{total_ms / 7:.3f}"
        # Total leaves out reid-cost, which runs inside mot.
        cells = _table_cells({"sort": {"mot": 7.0, "reid-cost": 3.5, "fusion": 1.4,
                                       "detection-ingest": 0.7}}, samples=7)
        assert [cells["sort"][k] for k in ("Total", "MOT", "ReID", "Fusion", "Detection")] == [
            "1.300", "1.000", "0.500", "0.200", "0.100"]

    def test_zero_samples_has_zero_means(self):
        timer = StageTimer()
        with timer.stage("mot"):
            pass
        cells = _table_cells({"iou": {"mot": timer.totals_s["mot"] * 1000.0}}, samples=0)
        assert cells["iou"]["MOT"] == cells["iou"]["Total"] == "0.000"
