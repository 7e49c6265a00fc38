"""Tracker family: association behavior, lifecycle, determinism."""

import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    columns_of,
    detection,
    file_of,
    random_box,
    reference_box,
    reference_centroid_cost,
    reference_corner_boxes,
    reference_cosine_matrix,
    reference_frames,
    reference_greedy_iou,
    reference_tracker_step,
    reference_unit_rows,
    track_frames,
    tracked,
)
from trackfuse import assoc, motion, trackers
from trackfuse.errors import InvalidConfig, InvalidValue, MissingEmbedding, OutOfOrderFrame
from trackfuse.motion import MotionModel, MotionModelSpec
from trackfuse.synth import ScenarioConfig, generate_scenario
from trackfuse.trackers import (
    TrackerConfig,
    TrackerKind,
    TrackerState,
    _cosine_matrix,
    _geometric_cost,
    _greedy_iou,
    _unit_rows,
    tracker_step,
)

ALL_KINDS = list(TrackerKind)


def _det(frame, box, probs=(0.7, 0.3), score=0.9, emb=(1.0, 0.0), gt=None):
    return detection(frame, box, probs, score, emb, gt_track=gt)


def _observe(boxes, config):
    """The ``motion.observe`` rows of (4, n) ``boxes`` that a Kalman ``tracker_step`` takes."""
    return None if config._kalman is None else motion.observe(config._kalman, boxes)


def _step(state, frame_id, dets, config):
    """``tracker_step`` over the column slices of one frame's ``dets``."""
    cols = columns_of([(frame_id, dets)])
    boxes = cols.box.T
    return tracker_step(state, frame_id, boxes, _observe(boxes, config), cols.score,
                        cols.emb[0], config)


def _boxes(dets):
    """The (4, n) corner rows of ``dets``' boxes, as the tracker keeps boxes."""
    return np.array([det.bbox.as_tuple() for det in dets]).reshape(-1, 4).T


def _gt_coverage(result):
    """track id -> set of ground-truth identities its detections carry."""
    cover = {}
    for track_id, gt_track in zip(result.track.tolist(), result.cols.gt_track.tolist()):
        if track_id >= 0:
            cover.setdefault(track_id, set()).add(gt_track)
    return cover


class TestSingleObject:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_stationary_box_makes_one_track(self, kind):
        frames = [(f, [_det(f, (50, 50, 90, 90))]) for f in range(3)]
        result = tracked(frames, TrackerConfig(kind=kind))
        assert track_frames(result) == {1: (0, 1, 2)}
        assert result.track.tolist() == [1, 1, 1]

    def test_empty_sequence(self):
        result = tracked([], TrackerConfig(kind=TrackerKind.SORT))
        assert track_frames(result) == {}
        assert len(result.track) == len(result.raw) == len(result.fused) == 0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_two_distant_boxes_stay_separate(self, kind):
        frames = []
        for f in range(6):
            frames.append((f, [
                _det(f, (0, 0, 20, 20), emb=(1.0, 0.0), gt=1),
                _det(f, (300, 300, 320, 320), emb=(0.0, 1.0), gt=2),
            ]))
        result = tracked(frames, TrackerConfig(kind=kind))
        assert len(track_frames(result)) == 2
        cover = _gt_coverage(result)
        assert all(len(s) == 1 for s in cover.values())
        assert {next(iter(s)) for s in cover.values()} == {1, 2}


def _crossing_frames():
    """Two trajectories meeting at frame 10; the object passing behind is
    occluded during the overlap (frames 9-11)."""
    config = ScenarioConfig(
        seed=7, num_objects=2, num_frames=25, image_size=(500, 500),
        size_range=(20.0, 20.0), dropout=0.0, jitter=0.0, flicker=0.0,
        start_centers=((100.0, 300.0), (260.0, 296.0)),
        velocities=((8.0, 0.0), (-8.0, 0.4)),
    )
    scenario = generate_scenario(config)
    frames = []
    for f, dets in reference_frames(scenario.columns):
        if 9 <= f <= 11:
            dets = [d for d in dets if d.gt_track != 2]
        frames.append((f, dets))
    return frames


class TestCrossingScenario:
    def test_sort_survives_the_crossing(self):
        result = tracked(_crossing_frames(), TrackerConfig(kind=TrackerKind.SORT))
        cover = _gt_coverage(result)
        assert len(track_frames(result)) == 2
        assert cover == {1: {1}, 2: {2}}
        # Every detection stays matched: the filter coasts through the gap.
        assert (result.track >= 0).all()

    def test_centroid_switches_and_fragments(self):
        result = tracked(_crossing_frames(), TrackerConfig(kind=TrackerKind.CENTROID))
        cover = _gt_coverage(result)
        # Position-only matching hands the reappearing object's slot to the
        # wrong identity and then spawns a fresh track: one impure track,
        # more tracks than objects.
        assert len(track_frames(result)) == 3
        assert any(len(s) > 1 for s in cover.values())

    @pytest.mark.parametrize("kind", [TrackerKind.SORT, TrackerKind.BYTETRACK,
                                      TrackerKind.CENTROID_KF, TrackerKind.APPEARANCE])
    def test_steps_match_the_reference_step(self, kind):
        # The occluded object reappears next to the other one's predicted box: a step that
        # cost tracks at their last boxes instead would match differently from frame 12.
        config = TrackerConfig(kind=kind)
        state, ref = TrackerState(), TrackerState()
        for frame_id, dets in _crossing_frames():
            state, ids = _step(state, frame_id, dets, config)
            ref, want = reference_tracker_step(ref, frame_id, dets, config)
            assert ids.tolist() == [-1 if t is None else t for _, t in want], frame_id
            for name in ("id", "age"):
                assert state.table[name].tolist() == ref.table[name].tolist(), (frame_id, name)

    def test_motion_model_beats_position_matching_here(self):
        sort_cover = _gt_coverage(
            tracked(_crossing_frames(), TrackerConfig(kind=TrackerKind.SORT)))
        centroid_cover = _gt_coverage(
            tracked(_crossing_frames(), TrackerConfig(kind=TrackerKind.CENTROID)))
        sort_switches = sum(len(s) - 1 for s in sort_cover.values())
        centroid_switches = sum(len(s) - 1 for s in centroid_cover.values())
        assert sort_switches == 0
        assert centroid_switches > sort_switches


class TestFullScene:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_noiseless_scene_perfectly_covered(self, kind):
        config = ScenarioConfig(seed=0, num_objects=5, num_frames=100,
                                dropout=0.0, jitter=0.0, flicker=0.0)
        frames = generate_scenario(config).columns
        result = tracked(frames, TrackerConfig(kind=kind))
        cover = _gt_coverage(result)
        assert len(track_frames(result)) == 5
        assert all(len(s) == 1 for s in cover.values())
        assert {next(iter(s)) for s in cover.values()} == {1, 2, 3, 4, 5}
        assert (result.track >= 0).all()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_parallel_motion_never_switches(self, kind):
        config = ScenarioConfig(
            seed=1, num_objects=3, num_frames=80, image_size=(1200, 700),
            size_range=(40.0, 40.0), dropout=0.0, jitter=0.0, flicker=0.0,
            start_centers=((100.0, 100.0), (200.0, 350.0), (300.0, 600.0)),
            velocities=((6.0, 0.0), (6.0, 0.0), (6.0, 0.0)),
        )
        frames = generate_scenario(config).columns
        result = tracked(frames, TrackerConfig(kind=kind))
        cover = _gt_coverage(result)
        assert len(track_frames(result)) == 3
        assert sum(len(s) - 1 for s in cover.values()) == 0

    def test_matching_is_bijective_per_frame(self):
        config = ScenarioConfig(seed=5, num_objects=6, num_frames=60,
                                dropout=0.1, jitter=1.5, flicker=0.2)
        frames = generate_scenario(config).columns
        for kind in ALL_KINDS:
            result = tracked(frames, TrackerConfig(kind=kind))
            per_frame_tracks = {}
            for frame_id, track_id in zip(result.cols.frame.tolist(), result.track.tolist()):
                if track_id < 0:
                    continue
                per_frame_tracks.setdefault(frame_id, []).append(track_id)
            for frame_id, ids in per_frame_tracks.items():
                assert len(ids) == len(set(ids)), (kind, frame_id)

    def test_track_invariants_hold(self):
        config = ScenarioConfig(seed=6, num_objects=4, num_frames=50,
                                dropout=0.05, jitter=1.0, flicker=0.3)
        frames = generate_scenario(config).columns
        result = tracked(frames, TrackerConfig(kind=TrackerKind.BYTETRACK))
        for frames_seen in track_frames(result).values():
            assert all(b > a for a, b in zip(frames_seen, frames_seen[1:]))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_identical_runs_are_identical(self, kind):
        config = ScenarioConfig(seed=9, num_objects=5, num_frames=40,
                                dropout=0.1, jitter=1.0, flicker=0.25)
        frames = generate_scenario(config).columns
        a = tracked(frames, TrackerConfig(kind=kind))
        b = tracked(frames, TrackerConfig(kind=kind))
        assert track_frames(a) == track_frames(b)
        assert np.array_equal(a.cols.probs[a.runs[0]], b.cols.probs[b.runs[0]])
        assert a.cols.frame.tolist() == b.cols.frame.tolist()
        assert a.track.tolist() == b.track.tolist() and a.raw.tolist() == b.raw.tolist()


class TestGreedyIou:
    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_equal_iou_goes_to_lower_track_index(self, order):
        left, right = (0, 0, 10, 10), (10, 0, 20, 10)
        boxes = [(left, right)[k] for k in order]
        frames = [(0, [_det(0, b) for b in boxes]),
                  (1, [_det(1, (5, 0, 15, 10))])]  # IoU 1/3 with both tracks
        result = tracked(frames, TrackerConfig(kind=TrackerKind.IOU))
        assert result.track[-1] == 1

    def test_equal_iou_goes_to_lower_detection_index(self):
        frames = [(0, [_det(0, (5, 0, 15, 10))]),
                  (1, [_det(1, (10, 0, 20, 10)), _det(1, (0, 0, 10, 10))])]
        result = tracked(frames, TrackerConfig(kind=TrackerKind.IOU))
        assert result.track[1:].tolist() == [1, 2]

    @pytest.mark.parametrize("gate", [0.0, 0.1, 0.3])
    def test_matches_scalar_reference(self, gate):
        rng = np.random.default_rng(11)
        config = TrackerConfig(kind=TrackerKind.IOU, iou_gate=gate)

        def box():
            # A coarse grid makes many IoUs tie exactly.
            x, y = rng.integers(0, 6, size=2) * 5
            w, h = rng.integers(1, 4, size=2) * 5
            return reference_box(x, y, x + w, y + h)

        for _ in range(500):
            tracks = [SimpleNamespace(last_bbox=box()) for _ in range(rng.integers(0, 7))]
            dets = [SimpleNamespace(bbox=box()) for _ in range(rng.integers(0, 7))]
            boxes = np.array([t.last_bbox.as_tuple() for t in tracks]).reshape(-1, 4)
            got = _greedy_iou(boxes.T, _boxes(dets), config)
            assert got == reference_greedy_iou(tracks, dets, gate)


class TestByteTrack:
    def test_degenerates_to_sort_when_thresholds_meet(self):
        config = ScenarioConfig(seed=12, num_objects=5, num_frames=60,
                                dropout=0.1, jitter=1.0, flicker=0.2,
                                score_range=(0.2, 1.0))
        frames = generate_scenario(config).columns
        sort_result = tracked(frames, TrackerConfig(kind=TrackerKind.SORT))
        byte_result = tracked(
            frames, TrackerConfig(kind=TrackerKind.BYTETRACK,
                                  det_threshold_low=0.5, det_threshold_high=0.5))
        assert len(sort_result.track) == len(byte_result.track)
        assert sort_result.cols.frame.tolist() == byte_result.cols.frame.tolist()
        assert sort_result.track.tolist() == byte_result.track.tolist()

    def test_low_confidence_extends_but_never_spawns(self):
        frames = [
            (0, [_det(0, (0, 0, 20, 20), score=0.9)]),
            (1, [_det(1, (2, 0, 22, 20), score=0.3),          # extends track 1
                 _det(1, (200, 200, 220, 220), score=0.3)]),  # must not spawn
        ]
        result = tracked(frames, TrackerConfig(kind=TrackerKind.BYTETRACK))
        assert track_frames(result) == {1: (0, 1)}
        assert result.track[result.cols.frame == 1].tolist() == [1, -1]

    def test_below_low_is_ignored_entirely(self):
        frames = [
            (0, [_det(0, (0, 0, 20, 20), score=0.9)]),
            (1, [_det(1, (2, 0, 22, 20), score=0.05)]),
        ]
        result = tracked(frames, TrackerConfig(kind=TrackerKind.BYTETRACK))
        assert track_frames(result) == {1: (0,)}
        assert result.track[1] == -1


class TestLifecycle:
    def test_track_dies_after_max_age(self):
        frames = [(0, [_det(0, (0, 0, 20, 20))]),
                  (1, [_det(1, (0, 0, 20, 20))])]
        frames += [(f, []) for f in range(2, 6)]
        frames.append((6, [_det(6, (1, 0, 21, 20))]))
        config = TrackerConfig(kind=TrackerKind.IOU, max_age=2)
        result = tracked(frames, config)
        # Misses at frames 2, 3, 4 exceed max_age=2: the track dies; the
        # reappearance spawns a fresh id.
        assert track_frames(result) == {1: (0, 1), 2: (6,)}

    def test_track_bridges_gap_within_max_age(self):
        frames = [(0, [_det(0, (0, 0, 20, 20))]),
                  (1, []), (2, []),
                  (3, [_det(3, (1, 0, 21, 20))])]
        config = TrackerConfig(kind=TrackerKind.IOU, max_age=5)
        result = tracked(frames, config)
        assert track_frames(result) == {1: (0, 3)}

    def test_min_hits_discards_short_tracks(self):
        frames = [(0, [_det(0, (0, 0, 20, 20))]),
                  (1, [_det(1, (0, 0, 20, 20))])]
        frames += [(f, []) for f in range(2, 15)]
        config = TrackerConfig(kind=TrackerKind.IOU, min_hits=3, max_age=3)
        result = tracked(frames, config)
        assert track_frames(result) == {}
        assert (result.track == -1).all()

    def test_min_hits_confirmation(self):
        frames = [(f, [_det(f, (0, 0, 20, 20))]) for f in range(3)]
        config = TrackerConfig(kind=TrackerKind.IOU, min_hits=3)
        result = tracked(frames, config)
        assert list(track_frames(result).values()) == [(0, 1, 2)]

    def test_min_hits_counts_entries_not_consecutive_matches(self):
        # A miss between two matches does not reset the count: two entries
        # meet min_hits=2, so the track is emitted.
        frames = [(0, [_det(0, (0, 0, 20, 20))]), (1, []),
                  (2, [_det(2, (1, 0, 21, 20))])]
        config = TrackerConfig(kind=TrackerKind.IOU, min_hits=2)
        result = tracked(frames, config)
        assert list(track_frames(result).values()) == [(0, 2)]
        assert result.track.tolist() == [1, 1]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_empty_table_frames_match_the_reference_tracker(self, kind):
        # With max_age 0 and scores down to 0, tables empty out often: an all-low frame
        # retires every track, and the next high detections spawn from an empty table.
        config = TrackerConfig(kind=kind, max_age=0)
        empty = 0
        for seed in range(6):
            scenario = generate_scenario(ScenarioConfig(
                seed=seed, num_objects=1 + seed % 3, num_frames=25, dropout=0.3, jitter=2.0,
                score_range=(0.0, 1.0)))
            state, ref = TrackerState(), TrackerState()
            for frame_id, dets in reference_frames(scenario.columns):
                empty += not len(state.table["id"])
                state, ids = _step(state, frame_id, dets, config)
                ref, want = reference_tracker_step(ref, frame_id, dets, config)
                assert ids.tolist() == [-1 if t is None else t for _, t in want]
                for name in ("id", "age"):
                    assert state.table[name].tolist() == ref.table[name].tolist()
        assert empty >= 20  # each sequence starts, and restarts more than once, from empty

    def test_low_scores_do_not_spawn_tracks(self):
        frames = [(f, [_det(f, (0, 0, 20, 20), score=0.4)]) for f in range(3)]
        result = tracked(frames, TrackerConfig(kind=TrackerKind.SORT))
        assert track_frames(result) == {}
        assert (result.track == -1).all()


class TestAppearance:
    def test_missing_embedding_raises(self):
        state = TrackerState()
        config = TrackerConfig(kind=TrackerKind.APPEARANCE)
        with pytest.raises(MissingEmbedding):
            _step(state, 0, [_det(0, (0, 0, 10, 10), emb=None)], config)

    def test_embedding_smoothing_follows_ema(self):
        config = TrackerConfig(kind=TrackerKind.APPEARANCE)
        state = TrackerState()
        state, _ = _step(state, 0, [_det(0, (0, 0, 20, 20), emb=(1.0, 0.0))], config)
        state, _ = _step(state, 1, [_det(1, (0, 0, 20, 20), emb=(0.8, 0.6))], config)
        assert len(state.table["id"]) == 1
        want = 0.9 * np.array([1.0, 0.0]) + 0.1 * np.array([0.8, 0.6])
        want = want / np.linalg.norm(want)
        assert np.allclose(state.table["emb"][0], want)

    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k is not TrackerKind.APPEARANCE])
    def test_only_appearance_keeps_embeddings(self, kind):
        dets = [_det(f, (0, 0, 20, 20), emb=(1.0, 0.0)) for f in range(2)]
        state = TrackerState()
        for f, det in enumerate(dets):
            state, _ = _step(state, f, [det], TrackerConfig(kind=kind))
        assert "emb" not in state.table
        assert set(state.table) <= {"id", "age", "box", "mean", "cov"}

    @given(st.integers(1, 16).flatmap(lambda dim: st.lists(st.one_of(
        st.just([0.0] * dim),  # a zero row stays zero
        st.tuples(st.integers(0, dim - 1), st.floats(-200.0, 200.0)).map(  # one non-zero entry
            lambda at: [10.0 ** at[1] if k == at[0] else 0.0 for k in range(dim)]),
        st.lists(st.one_of(st.just(0.0), st.builds(lambda sign, exp: sign * 10.0 ** exp,
                                                   st.sampled_from([-1.0, 1.0]),
                                                   st.floats(-200.0, 200.0))),
                 min_size=dim, max_size=dim)), min_size=1, max_size=6)))
    def test_unit_rows_match_the_reference(self, rows):
        # Entries from 1e-200 to 1e200 put squared norms past both ends of the float range.
        # The norms differ only in how the squares are summed: numpy's sum of at most 16
        # squares is off by at most 15 half-ulps, halved by the square root, and fsum's by
        # one; each quotient rounds once more.  So every entry lies within 8 ulps.
        vecs = np.array(rows)
        got, want = _unit_rows(vecs), reference_unit_rows(vecs)
        assert (np.abs(got - want) <= 8 * np.spacing(np.abs(want))).all(), (got, want)

    def test_appearance_gate_blocks_foreign_embeddings(self):
        # Same geometry, orthogonal embedding: the fused gate must reject it.
        frames = [(0, [_det(0, (0, 0, 20, 20), emb=(1.0, 0.0))]),
                  (1, [_det(1, (0, 0, 20, 20), emb=(0.0, 1.0))])]
        config = TrackerConfig(kind=TrackerKind.APPEARANCE, cosine_gate=0.5)
        result = tracked(frames, config)
        assert len(track_frames(result)) == 2


class TestTrackTable:
    def test_degenerate_prediction_costs_against_last_box(self, monkeypatch):
        # The poked rows predict area -5, no box: they cost against their last boxes and the
        # others against their predictions, bit for bit as np.where placeholders on every
        # frame gave.  Tables: one degenerate track; two of four, mixed with proper ones; and
        # all proper, for SORT_CV7 and CENTROID_CV4.  Every track keeps its detection.
        costed = []

        def reference_boxes(*args, _real=trackers._reference_boxes):
            costed.append(_real(*args))
            return costed[-1]
        monkeypatch.setattr(trackers, "_reference_boxes", reference_boxes)
        boxes = [(0, 0, 20, 20), (100, 0, 120, 20), (200, 0, 230, 40), (300, 50, 310, 90)]
        for kind, n, poked in [(TrackerKind.SORT, 1, [0]), (TrackerKind.SORT, 4, [1, 3]),
                               (TrackerKind.SORT, 4, []), (TrackerKind.CENTROID_KF, 4, [])]:
            config = TrackerConfig(kind=kind)
            spec = config._kalman
            state, _ = _step(TrackerState(), 0, [_det(0, box) for box in boxes[:n]], config)
            for row in poked:
                state.table["mean"][[2, 6], row] = (-5.0, 0.0)
            last = state.table["box"].copy()
            means, _ = motion.kf_predict(state.table["mean"], state.table["cov"], spec)
            want, flags = reference_corner_boxes(means, last[2:] - last[:2], spec)
            assert np.flatnonzero(flags).tolist() == poked
            want[:, flags] = last[:, flags]
            costed.clear()
            state, assigned = _step(state, 1, [_det(1, box) for box in boxes[:n]], config)
            assert len(costed) == 1 and np.array_equal(costed[0], want), (kind, poked)
            assert assigned.tolist() == state.table["id"].tolist() == list(range(1, n + 1))

    def test_prediction_that_is_no_box_is_invalid_value(self):
        config = TrackerConfig(kind=TrackerKind.SORT)
        state, _ = _step(TrackerState(), 0, [_det(0, (0, 0, 20, 20))], config)
        state.table["mean"][2:4, 0] = 1e200  # s * r overflows: an infinitely wide box
        with pytest.raises(InvalidValue, match="must be finite"):
            _step(state, 1, [_det(1, (0, 0, 20, 20))], config)

    def test_prediction_whose_corners_collapse_is_invalid_value(self):
        config = TrackerConfig(kind=TrackerKind.SORT)
        state, _ = _step(TrackerState(), 0, [_det(0, (0, 0, 20, 20))], config)
        state.table["mean"][:4, 0] = (1e17, 10.0, 1.0, 1.0)  # 1e17 +- 0.5 rounds to 1e17
        with pytest.raises(InvalidValue, match="x2 > x1"):
            _step(state, 1, [_det(1, (0, 0, 20, 20))], config)

    def test_one_predict_and_one_update_per_frame(self, monkeypatch):
        calls = []
        for name in ("kf_predict", "kf_update"):
            def counted(means, *args, _real=getattr(motion, name), _name=name, **kwargs):
                calls.append((_name, means.shape[-1]))
                return _real(means, *args, **kwargs)
            monkeypatch.setattr(motion, name, counted)
        # Frame 1 matches one track in each ByteTrack stage; both share one update.
        frames = [(0, [_det(0, (0, 0, 20, 20)), _det(0, (100, 0, 120, 20))]),
                  (1, [_det(1, (1, 0, 21, 20)), _det(1, (101, 0, 121, 20), score=0.3)]),
                  (2, [_det(2, (2, 0, 22, 20))])]
        result = tracked(frames, TrackerConfig(kind=TrackerKind.BYTETRACK))
        assert list(track_frames(result).values()) == [(0, 1, 2), (0, 1)]
        assert calls == [("kf_predict", 2), ("kf_update", 2), ("kf_predict", 2), ("kf_update", 1)]

    def test_one_observe_per_sequence_and_no_solve_for_forced_frames(self, monkeypatch):
        calls = []
        for module, name in ((motion, "observe"), (assoc, "linear_sum_assignment"),
                             (trackers, "tracker_step")):
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        # Two tracks apart match one detection each; in frame 2 two detections compete for
        # the left track, which takes one solve, and the loser spawns track 3.  Each other
        # frame's pairs are all forced.
        frames = [(f, [_det(f, (f, 0, 20 + f, 20)), _det(f, (100, 0, 120, 20))]) for f in range(2)]
        frames += [(2, [_det(2, (2, 0, 22, 20)), _det(2, (4, 0, 24, 20)),
                        _det(2, (100, 0, 120, 20))]),
                   (3, [_det(3, (100, 0, 120, 20))])]
        ids = trackers.track_columns(columns_of(frames), TrackerConfig(kind=TrackerKind.SORT))
        assert ids.tolist() == [1, 2, 1, 2, 1, 3, 2, 2]
        step = "tracker_step"
        assert calls == ["observe", step, step, step, "linear_sum_assignment", step]

    def test_cosine_matrix_equals_per_track_loop(self):
        rng = np.random.default_rng(4)
        for n_t, n_d in [(1, 1), (3, 7), (20, 13), (50, 50)]:
            embs = rng.normal(size=(n_t, 16))
            dets = rng.normal(size=(n_d, 16)) * 8.0
            embs[0] = 0.0
            dets[n_d // 2] = 0.0
            got, want = _cosine_matrix(embs, dets), reference_cosine_matrix(embs, dets)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("gate", [0.5, 2.0])
    def test_centroid_cost_equals_per_pair_loop(self, gate):
        # Continuous boxes catch any distance not summed as math.hypot sums it; integer
        # boxes on a coarse grid put pairs exactly on the gate.
        rng = np.random.default_rng(6)
        config = TrackerConfig(kind=TrackerKind.CENTROID, centroid_gate=gate)
        for case in range(200):
            n_t, n_d = (int(n) for n in rng.integers(1, 15, size=2))
            if case % 2:
                dets = [_det(0, random_box(rng).as_tuple()) for _ in range(n_d)]
                boxes = np.array([random_box(rng).as_tuple() for _ in range(n_t)])
            else:
                corners = rng.integers(0, 6, size=(n_t + n_d, 2)) * 3
                grid = np.hstack([corners, corners + rng.integers(1, 4, size=(n_t + n_d, 2)) * 4])
                dets = [_det(0, box) for box in grid[n_t:].astype(float)]
                boxes = grid[:n_t].astype(float)
            cost = _geometric_cost(TrackerKind.CENTROID, boxes.T, _boxes(dets), config)
            values, mask = reference_centroid_cost(boxes, dets, gate)
            assert np.array_equal(cost.values, values) and np.array_equal(cost.gate_mask, mask)

    def test_columns_hold_one_row_per_live_track(self):
        # Track 2 misses frame 1 and ages; missing frame 2 too puts it past max_age=1,
        # so it retires as track 3 spawns.
        config = TrackerConfig(kind=TrackerKind.SORT, max_age=1)
        frames = [(0, [_det(0, (0, 0, 20, 20)), _det(0, (100, 0, 120, 20))]),
                  (1, [_det(1, (1, 0, 21, 20))]),
                  (2, [_det(2, (2, 0, 22, 20)), _det(2, (200, 200, 220, 220))])]
        want = [([1, 2], [0, 1], [[1, 0, 21, 20], [100, 0, 120, 20]]),
                ([1, 3], [0, 0], [[2, 0, 22, 20], [200, 200, 220, 220]])]
        state, _ = _step(TrackerState(), *frames[0], config)
        for (frame_id, dets), (ids, ages, boxes) in zip(frames[1:], want):
            state, _ = _step(state, frame_id, dets, config)
            assert state.table["id"].tolist() == ids
            assert state.table["age"].tolist() == ages
            assert state.table["box"].T.tolist() == boxes
            assert sorted(state.table) == ["age", "box", "cov", "id", "mean"]
            assert {col.shape[-1 if name in ("box", "mean", "cov") else 0]
                    for name, col in state.table.items()} == {len(ids)}

    @pytest.mark.parametrize("kind", sorted(trackers._KF_KINDS, key=lambda k: k.value))
    def test_columns_stay_aligned_through_random_scenes(self, kind):
        # Objects come and go, and a third of the boxes score below det_threshold_high, so
        # tracks spawn, retire past max_age=2 and (ByteTrack) match in the second stage.
        rng = np.random.default_rng(31)
        config = TrackerConfig(kind=kind, max_age=2)
        state, spawned, retired, second_stage = TrackerState(), 0, 0, 0
        objects = {}
        for frame_id in range(120):
            for key in [key for key in objects if rng.random() < 0.05]:
                del objects[key]
            for _ in range(rng.poisson(0.6)):
                objects[frame_id, len(objects)] = rng.uniform(0, 400, 2), rng.uniform(-3, 3, 2)
            seen = [pos + frame_id * vel for pos, vel in objects.values() if rng.random() < 0.8]
            boxes = np.array([[x, y, x + 30, y + 40] for x, y in seen]).reshape(-1, 4)
            scores = np.where(rng.random(len(boxes)) < 0.3, 0.3, 0.9)
            embs = rng.normal(size=(len(boxes), 4))
            before = set(state.table["id"].tolist())
            state, assigned = tracker_step(state, frame_id, boxes.T, _observe(boxes.T, config),
                                           scores, embs, config)
            ids = state.table["id"]
            spawned += len(set(ids.tolist()) - before)
            retired += len(before - set(ids.tolist()))
            second_stage += int(((assigned >= 0) & (scores < 0.5)).sum())
            for name, col in state.table.items():
                track_last = name in ("box", "mean", "cov")
                assert col.shape[-1 if track_last else 0] == len(ids), name
                if track_last:
                    assert col.flags.c_contiguous, name
        assert spawned > 20 and retired > 10
        assert (second_stage > 0) == (kind is TrackerKind.BYTETRACK)

    def test_update_paths_match_the_reference_step(self, monkeypatch):
        # Random scenes drive _update_rows through each of its paths: every track matched in
        # table order (the whole-table shortcut), a partial update with ascending rows,
        # ByteTrack's second stage appending rows out of order, and a partial appearance
        # update.  Each frame's ids and table columns equal the reference step's, bit for bit.
        paths = set()

        def update_rows(state, rows, at, *args, _real=trackers._update_rows):
            kind = args[-1]
            if isinstance(rows, slice):
                paths.add((kind, "whole"))
            else:
                paths.add((kind, "ascending" if np.all(np.diff(rows) > 0) else "out of order"))
            return _real(state, rows, at, *args)
        monkeypatch.setattr(trackers, "_update_rows", update_rows)
        for kind in (TrackerKind.SORT, TrackerKind.BYTETRACK, TrackerKind.APPEARANCE):
            rng = np.random.default_rng(37)
            config = TrackerConfig(kind=kind, max_age=2)
            state, ref = TrackerState(), TrackerState()
            objects = [(rng.uniform(0, 400, 2), rng.uniform(-3, 3, 2)) for _ in range(6)]
            for frame_id in range(60):
                dets = [_det(frame_id, (x, y, x + 30, y + 40), score=rng.choice([0.3, 0.9, 0.9]),
                             emb=rng.normal(size=4))
                        for x, y in (pos + frame_id * vel for pos, vel in objects)
                        if rng.random() < 0.85]
                state, ids = _step(state, frame_id, dets, config)
                ref, want = reference_tracker_step(ref, frame_id, dets, config)
                assert ids.tolist() == [-1 if t is None else t for _, t in want]
                assert sorted(state.table) == sorted(ref.table)
                for name, col in state.table.items():
                    assert np.array_equal(col, ref.table[name]), (kind, frame_id, name)
        assert {(TrackerKind.SORT, "whole"), (TrackerKind.SORT, "ascending"),
                (TrackerKind.BYTETRACK, "out of order"),
                (TrackerKind.APPEARANCE, "ascending")} <= paths

    def test_entries_are_the_detections_passed_in(self):
        dets = [_det(f, (f, 0, 20 + f, 20)) for f in range(3)]
        result = tracked([(f, [det]) for f, det in enumerate(dets)],
                              TrackerConfig(kind=TrackerKind.SORT))
        assert track_frames(result) == {1: (0, 1, 2)}
        assert result.cols.box.tolist() == [list(det.bbox.as_tuple()) for det in dets]
        assert result.cols.score.tolist() == [det.score for det in dets]
        assert np.array_equal(result.cols.probs, [det.probs for det in dets])
        assert np.array_equal(result.cols.emb[0], [det.embedding for det in dets])


def _file_parts():
    """One-sequence records by name, not in name order: embeddings of 8, 4 and 2 values and
    none, shared frame ids, and a one-row sequence whose track 1 is shorter than the others'."""
    parts = {name: generate_scenario(ScenarioConfig(
        seed=seed, num_objects=4, num_frames=30, n_classes=3, dropout=0.3, jitter=2.0,
        embedding_dim=dim, score_range=(0.2, 1.0))).columns
        for name, seed, dim in (("b", 1, 8), ("a", 2, 4), ("d", 3, 0))}
    parts["c"] = columns_of([(0, [_det(0, (0, 0, 20, 20), probs=(0.5, 0.3, 0.2))])])
    return parts


class TestFileOfSequences:
    """A file record tracks as its sequences do, each tracked alone."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_file_tracks_as_its_sequences_alone(self, kind):
        parts = _file_parts()
        config = TrackerConfig(kind=kind, min_hits=2)
        if kind is TrackerKind.APPEARANCE:  # sequence "d" has no embeddings
            with pytest.raises(MissingEmbedding):
                trackers.track_columns(file_of(parts), config)
            del parts["d"]
        cols = file_of(parts)
        assert cols.names == tuple(sorted(parts))
        want = [trackers.track_columns(parts[name], config).tolist() for name in cols.names]
        got = trackers.track_columns(cols, config).tolist()
        bounds = cols.bounds.tolist()
        assert [got[lo:hi] for lo, hi in zip(bounds, bounds[1:])] == want
        assert want[cols.names.index("c")] == [-1]  # track 1 of "c" has one row, fewer than 2
        assert all(1 in ids for ids in want if len(ids) > 1)


class TestStepContract:
    def test_out_of_order_frame(self):
        state = TrackerState()
        config = TrackerConfig(kind=TrackerKind.IOU)
        state, _ = _step(state, 5, [_det(5, (0, 0, 10, 10))], config)
        with pytest.raises(OutOfOrderFrame):
            _step(state, 5, [], config)
        with pytest.raises(OutOfOrderFrame):
            _step(state, 4, [], config)

    def test_assignments_cover_every_detection(self):
        state = TrackerState()
        config = TrackerConfig(kind=TrackerKind.SORT)
        dets = [_det(0, (0, 0, 10, 10)), _det(0, (100, 100, 120, 130), score=0.2)]
        state, assigned = _step(state, 0, dets, config)
        assert len(assigned) == 2
        assert assigned[0] == 1      # spawned
        assert assigned[1] == -1     # below det_threshold_high


class TestLinearAlgebraPerFrame:
    """A Kalman frame makes no np.linalg call.

    The filter works elementwise on each track's 2×2 covariance blocks: frame 0
    spawns both tracks, and each later frame predicts every row and corrects the
    matched rows (ByteTrack's second stage included), with no factorisation or solve.
    """

    @pytest.mark.parametrize("kind", [TrackerKind.SORT, TrackerKind.BYTETRACK])
    def test_no_linear_algebra_per_frame(self, kind, monkeypatch):
        frames = [(f, [_det(f, (10 + 2 * f, 10, 30 + 2 * f, 30)),
                       _det(f, (100 + 2 * f, 50, 120 + 2 * f, 70), score=0.3 if f == 3 else 0.9)])
                  for f in range(5)]
        calls = []
        for name in np.linalg.__all__:
            real = getattr(np.linalg, name)
            if callable(real) and not isinstance(real, type):
                def counted(*args, _name=name, _real=real, **kwargs):
                    calls.append(_name)
                    return _real(*args, **kwargs)
                monkeypatch.setattr(np.linalg, name, counted)
        per_frame = []

        def step(*args, _real=trackers.tracker_step, **kwargs):
            before = len(calls)
            out = _real(*args, **kwargs)
            per_frame.append(calls[before:])
            return out
        monkeypatch.setattr(trackers, "tracker_step", step)
        ids = trackers.track_columns(columns_of(frames), TrackerConfig(kind=kind))
        low_track = 2 if kind is TrackerKind.BYTETRACK else -1  # stage two takes the 0.3 box
        assert ids.tolist() == [1, 2] * 3 + [1, low_track] + [1, 2]
        assert per_frame == [[]] * 5


def _first_entry(fn, *args):
    """The code of the first Python function that ``fn(*args)`` enters (a wrapper's own)."""
    codes = []
    sys.setprofile(lambda frame, event, arg: codes.append(frame.f_code) if event == "call" else 0)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return codes[0]


class TestCallBudgetPerFrame:
    """A frame's step enters none of the Python-level wrappers it can do without.

    ``sys.setprofile`` counts, per ``tracker_step`` call, the entries into numpy's
    ``flatnonzero``, the ``_any``/``_all`` behind ``ndarray.any``/``all``, ``Enum.__hash__``,
    ``np.where`` and ``np.errstate``.  ``corner_boxes`` calls ``np.where`` only when a
    prediction is degenerate; the filter steps, ``corner_boxes`` and ``iou_matrix`` enter one
    ``np.errstate`` each.  Calls are counted; no time is measured.
    """

    WATCHED = {
        "flatnonzero": (np.flatnonzero, np.arange(3)),
        "_any": (np.zeros(2, dtype=bool).any,),
        "_all": (np.zeros(2, dtype=bool).all,),
        "Enum.__hash__": (hash, TrackerKind.SORT),
        "where": (np.where, np.zeros(2, dtype=bool), 1.0, 0.0),
    }

    def _per_step(self, kind, degenerate_at=None):
        """Per step: the watched entries by name, with the caller of each ``np.where``."""
        names = {_first_entry(*call): name for name, call in self.WATCHED.items()}
        names[np.errstate.__enter__.__code__] = "errstate"
        names[motion.kf_init.__code__] = "kf_init"
        steps, current = [], None  # current: the counts of the step being run, if any

        def profile(frame, event, arg):
            nonlocal current
            if frame.f_code is tracker_step.__code__ and event in ("call", "return"):
                current = {} if event == "call" else None
                steps.extend([current] if event == "call" else [])
            elif event == "call" and current is not None and frame.f_code in names:
                name = names[frame.f_code]
                current[name] = current.get(name, 0) + 1
                if name == "where":
                    current.setdefault("where_from", []).append(frame.f_back.f_code.co_name)

        config = TrackerConfig(kind=kind)
        scenario = generate_scenario(ScenarioConfig(seed=12, num_objects=10, num_frames=40,
                                                    dropout=0.1, jitter=2.0))
        state = TrackerState()
        sys.setprofile(profile)
        try:
            for frame_id, dets in reference_frames(scenario.columns):
                if frame_id == degenerate_at:  # track 1 predicts area -5: no box
                    state.table["mean"][[2, 6], 0] = (-5.0, 0.0)
                state, _ = _step(state, frame_id, dets, config)
        finally:
            sys.setprofile(None)
        assert len(steps) == 40
        return steps

    def test_sort_frame(self):
        steps = self._per_step(TrackerKind.SORT, degenerate_at=25)
        for frame_id, counts in enumerate(steps):
            for name in ("flatnonzero", "_any", "_all", "Enum.__hash__"):
                assert name not in counts, (frame_id, name)
            wheres = [caller for caller in counts.get("where_from", [])
                      if caller != "_canonical_matching"]  # the solver pads a competing block
            assert wheres == (["corner_boxes"] if frame_id == 25 else []), frame_id
            assert counts.get("errstate", 0) <= (4 if frame_id else 0) + counts.get("kf_init", 0)
        assert sum(counts.get("kf_init", 0) for counts in steps[1:]) >= 1  # a spawn mid-scene

    def test_iou_frame(self):
        for frame_id, counts in enumerate(self._per_step(TrackerKind.IOU)):
            assert set(counts) <= {"errstate"}, frame_id
            assert counts.get("errstate", 0) <= (1 if frame_id else 0), frame_id


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(det_threshold_low=0.9, det_threshold_high=0.5),
        dict(det_threshold_high=1.5),
        dict(min_hits=0), dict(max_age=-1),
        dict(appearance_weight=1.5), dict(iou_gate=-0.1), dict(centroid_gate=0.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidConfig):
            TrackerConfig(kind=TrackerKind.SORT, **kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["iou_gate", "centroid_gate", "det_threshold_high",
                                       "appearance_weight", "cosine_gate"])
    def test_non_finite_real_names_the_field(self, field, value):
        with pytest.raises(InvalidConfig, match=f"{field} must be finite"):
            TrackerConfig(kind=TrackerKind.SORT, **{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_motion_noise_names_the_field(self, value):
        with pytest.raises(InvalidConfig, match="dt must be finite"):
            TrackerConfig.from_dict({"kind": "sort", "motion": {"model": "sort_cv7", "dt": value}})

    def test_from_dict_with_motion_spec(self):
        config = TrackerConfig.from_dict({
            "kind": "centroid-kf",
            "iou_gate": 0.4,
            "motion": {"model": "centroid_cv4", "process_std": 2.0},
        })
        assert config.kind is TrackerKind.CENTROID_KF
        assert config.iou_gate == 0.4
        assert config.motion_spec.process_std == 2.0
        assert config._kalman.model is MotionModel.CENTROID_CV4

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(InvalidConfig):
            TrackerConfig.from_dict({"kind": "sort", "bogus": 1})

    def test_from_dict_names_every_unknown_field(self):
        with pytest.raises(InvalidConfig, match=r"\['bogus', 'fps', 'motion_spec'\]"):
            TrackerConfig.from_dict({"kind": "sort", "fps": 30, "bogus": 1, "motion_spec": None})

    @pytest.mark.parametrize("model,unread", [
        ("sort_cv7", ["measurement_std", "process_std"]),
        ("centroid_cv4", ["std_weight_position", "std_weight_velocity"]),
    ])
    def test_from_dict_rejects_motion_fields_the_model_never_reads(self, model, unread):
        motion = {"model": model, "dt": 2.0, **{name: 3.0 for name in unread}}
        with pytest.raises(InvalidConfig, match=re.escape(str(unread))):
            TrackerConfig.from_dict({"kind": "sort", "motion": motion})
        # The spec itself still takes every field.
        assert MotionModelSpec(MotionModel(model), **{n: 3.0 for n in unread}).dt == 1.0

    @pytest.mark.parametrize("data", [
        {"kind": "warp"}, {"kind": "sort", "min_hits": "2"}, {"kind": "sort", "max_age": 1.5},
        {"kind": "sort", "min_hits": True}, {"kind": "sort", "cosine_gate": "x"},
        {"kind": "sort", "iou_gate": None}, {"kind": "sort", "centroid_gate": 10 ** 400},
        {"kind": "sort", "motion": [["model", "sort_cv7"]]},
        {"kind": "sort", "motion": {"model": "warp"}}, {"kind": "sort", "motion": {}},
        {"kind": "sort", "motion": {"model": "sort_cv7", "dt": True}},
    ])
    def test_from_dict_malformed_value_is_invalid_config(self, data):
        with pytest.raises(InvalidConfig):
            TrackerConfig.from_dict(data)

    def test_numbers_are_stored_as_their_field_type(self):
        config = TrackerConfig.from_dict({"kind": "sort", "iou_gate": 0, "max_age": 3})
        assert type(config.iou_gate) is float and type(config.max_age) is int

    def test_default_motion_model_per_kind(self):
        assert TrackerConfig(kind=TrackerKind.SORT)._kalman.model is MotionModel.SORT_CV7
        assert TrackerConfig(kind=TrackerKind.CENTROID_KF)._kalman.model is MotionModel.CENTROID_CV4

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_motion_spec_is_resolved_once_per_config(self, kind):
        # A given spec is kept as it is, for the Kalman kinds only; the others have none.
        spec = MotionModelSpec(MotionModel.SORT_CV7, dt=2.0)
        config = TrackerConfig(kind=kind, motion_spec=spec)
        assert config._kalman is (spec if kind in trackers._KF_KINDS else None)
