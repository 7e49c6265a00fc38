"""Scenario generator: determinism, corruption statistics, geometry, pinned output bytes."""

import hashlib
import math

import numpy as np
import pytest

from trackfuse.cli import main
from trackfuse.errors import InvalidConfig, InvalidValue
from oracles import columns_of
from trackfuse.io import read_columns, write_detections
from trackfuse.model import validate_distribution
from trackfuse.synth import ScenarioConfig, flicker_class, generate_scenario
from trackfuse.trackers import TrackerConfig, TrackerKind, track_columns


def _centers(box):
    """(x, y) centers of (N, 4) corner rows."""
    return np.stack([0.5 * (box[:, 0] + box[:, 2]), 0.5 * (box[:, 1] + box[:, 3])], axis=1)


class TestScenarioConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(seed=-1), dict(num_objects=0), dict(num_frames=0), dict(n_classes=1),
        dict(dropout=1.0), dict(dropout=-0.1), dict(flicker=1.0),
        dict(jitter=-1.0), dict(confidence=0.05),
        dict(size_range=(0.0, 10.0)), dict(size_range=(600.0, 600.0)),
        dict(score_range=(0.5, 1.5)),
        dict(num_objects=3, velocities=((1.0, 1.0),)),
        dict(num_objects=3, start_centers=((1.0, 1.0),)),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidConfig):
            ScenarioConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["jitter", "embedding_separation"])
    def test_non_finite_is_rejected(self, field, value):
        with pytest.raises(InvalidConfig, match=f"{field} must be finite"):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("image_size", (math.inf, math.inf)), ("image_size", (math.nan, math.nan)),
        ("image_size", (1024, math.inf)),
        ("speed_range", (1.0, math.inf)), ("speed_range", (math.nan, 5.0)),
        ("speed_range", (1.0, 1e12)), ("speed_range", (1.0, 1025.0)),
        ("velocities", ((math.inf, 0.0), (0.0, 0.0))),
        ("velocities", ((0.0, math.nan), (0.0, 0.0))),
        ("velocities", ((1e12, 0.0), (0.0, 0.0))), ("velocities", ((800.0, 800.0), (0.0, 0.0))),
        ("start_centers", ((math.inf, 10.0), (10.0, 10.0))),
        ("start_centers", ((10.0, 10.0), (10.0, math.nan))),
        ("start_centers", ((1e15, 500.0), (10.0, 10.0))),
        ("start_centers", ((-1.0, 10.0), (10.0, 10.0))),
        ("start_centers", ((10.0, 10.0), (10.0, 1024.5))),
    ])
    def test_unsimulable_geometry_is_rejected(self, field, value):
        # Generating from these would end in an OverflowError, loop in _bounce without end
        # or for one step per image span outside the image, or bounce off the borders many
        # times per frame.
        with pytest.raises(InvalidConfig, match=field):
            ScenarioConfig(num_objects=2, **{field: value})

    def test_speeds_up_to_the_smaller_side_are_accepted(self):
        config = ScenarioConfig(num_objects=2, image_size=(300, 200), speed_range=(0.0, 200.0),
                                velocities=((200.0, 0.0), (0.0, -200.0)),
                                start_centers=((150.0, 100.0), (50.0, 50.0)))
        assert generate_scenario(config).config is config

    def test_start_centers_on_the_borders_are_accepted(self):
        config = ScenarioConfig(num_objects=2, num_frames=3, image_size=(300, 200),
                                start_centers=((0.0, 0.0), (300.0, 200.0)))
        box = generate_scenario(config).columns.box
        assert _centers(box[:2]).tolist() == [[0.0, 0.0], [300.0, 200.0]]
        assert (box[2:, :2] >= 0.0).all() and (box[2:, 2:] <= (300.0, 200.0)).all()  # reflected

    def test_confidence_must_beat_uniform(self):
        with pytest.raises(InvalidConfig):
            ScenarioConfig(n_classes=10, confidence=0.1)


class TestCorruptDistribution:
    """The corruption model: which class each detection's mass lands on, and its rows."""

    def test_no_flicker_always_true_class(self):
        config = ScenarioConfig(flicker=0.0, confidence=0.8, n_classes=10)
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert flicker_class(4, config, rng) == 4

    def test_full_flicker_always_wrong(self):
        config = ScenarioConfig(flicker=0.999, confidence=0.9, n_classes=2)
        rng = np.random.default_rng(0)
        wrong = sum(flicker_class(1, config, rng) != 1 for _ in range(500))
        assert wrong >= 498  # flicker 0.999: a flip all but ~once in 500

    def test_flip_fraction_matches_rate(self):
        config = ScenarioConfig(flicker=0.25, confidence=0.8, n_classes=10)
        rng = np.random.default_rng(42)
        n = 100_000
        wrong = sum(flicker_class(3, config, rng) != 3 for _ in range(n))
        assert wrong / n == pytest.approx(0.25, abs=0.01)

    def test_emitted_distributions_survive_validation_unchanged(self):
        for confidence in (0.8, 1.0):  # 1.0 leaves zeros for the floor to lift
            config = ScenarioConfig(seed=5, num_objects=4, num_frames=25, flicker=0.3,
                                    confidence=confidence, n_classes=7)
            probs = generate_scenario(config).columns.probs
            assert len(probs) == 100 and (probs > 0.0).all()
            assert np.array_equal(validate_distribution(probs, 7), probs)


class TestGenerateScenario:
    def test_deterministic_under_fixed_seed(self):
        config = ScenarioConfig(seed=9, num_objects=5, num_frames=40,
                                dropout=0.1, jitter=1.0, flicker=0.2)
        a = generate_scenario(config).columns
        b = generate_scenario(config).columns
        for name in ("frame", "box", "score", "probs", "gt_class", "gt_track", "frame_ids",
                     "starts", "bounds"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.array_equal(a.emb[0], b.emb[0]) and a.names == b.names

    def test_columns_list_only_the_frames_with_detections(self):
        config = ScenarioConfig(seed=5, num_objects=1, num_frames=30, dropout=0.6)
        cols = generate_scenario(config).columns
        assert cols.frame_ids.tolist() == sorted(set(cols.frame.tolist()))
        assert len(cols.frame_ids) < 30  # dropout empties whole frames, which are not listed
        counts = np.diff(cols.starts)
        assert counts.sum() == len(cols.frame) and (counts > 0).all()
        assert np.repeat(cols.frame_ids, counts).tolist() == cols.frame.tolist()
        assert cols.names == ("",) and cols.bounds.tolist() == [0, len(cols.frame)]
        assert not cols.probs.flags.writeable and not cols.emb[0].flags.writeable

    def test_no_detections_make_an_empty_sequence(self):
        cols = generate_scenario(ScenarioConfig(seed=0, num_frames=1, dropout=0.99)).columns
        assert len(cols.frame) == len(cols.frame_ids) == 0 and cols.starts.tolist() == [0]
        assert cols.bounds.tolist() == [0, 0] and cols.emb[0].shape == (0, 16)
        assert track_columns(cols, TrackerConfig(kind=TrackerKind.SORT)).tolist() == []

    def test_raw_argmax_accuracy_follows_flicker(self):
        # 10 objects x 1000 frames, no dropout: 10^4 detections.
        config = ScenarioConfig(seed=42, num_objects=10, num_frames=1000,
                                n_classes=10, flicker=0.3, confidence=0.8)
        cols = generate_scenario(config).columns
        assert len(cols.frame) == 10_000
        correct = np.mean(cols.probs.argmax(axis=1) == cols.gt_class)
        assert correct == pytest.approx(0.70, abs=0.02)

    def test_dropout_thins_detections(self):
        config = ScenarioConfig(seed=1, num_objects=10, num_frames=500, dropout=0.25)
        n = len(generate_scenario(config).columns.frame)
        assert n / 5000.0 == pytest.approx(0.75, abs=0.03)

    def test_boxes_stay_inside_image(self):
        # No dropout or jitter: each frame has every object's true box.
        config = ScenarioConfig(seed=2, num_objects=6, num_frames=400,
                                image_size=(300, 200), size_range=(20.0, 40.0),
                                speed_range=(5.0, 15.0))
        box = generate_scenario(config).columns.box
        assert len(box) == 6 * 400
        assert (box[:, :2] >= -1e-9).all()
        assert (box[:, 2] <= 300 + 1e-9).all() and (box[:, 3] <= 200 + 1e-9).all()

    def test_identities_persist(self):
        config = ScenarioConfig(seed=4, num_objects=3, num_frames=30)
        cols = generate_scenario(config).columns
        assert np.diff(cols.starts).tolist() == [3] * 30
        assert cols.gt_track.tolist() == [1, 2, 3] * 30
        assert cols.gt_class.reshape(30, 3).tolist() == [cols.gt_class[:3].tolist()] * 30

    def test_jitter_beyond_float_precision_is_rejected(self):
        with pytest.raises(InvalidValue, match="jitter"):
            generate_scenario(ScenarioConfig(num_frames=2, jitter=1e300))

    def test_embeddings_cluster_by_identity(self):
        config = ScenarioConfig(seed=6, num_objects=4, num_frames=60,
                                embedding_dim=16, embedding_separation=8.0)
        cols = generate_scenario(config).columns
        by_id = {k: cols.emb[0][cols.gt_track == k] for k in np.unique(cols.gt_track).tolist()}
        means = {k: np.mean(v, axis=0) for k, v in by_id.items()}
        for k, embs in by_id.items():
            own = means[k] / np.linalg.norm(means[k])
            for emb in embs[:20]:
                unit = emb / np.linalg.norm(emb)
                same = float(unit @ own)
                others = [float(unit @ (means[j] / np.linalg.norm(means[j])))
                          for j in by_id if j != k]
                assert same > max(others)

    def test_explicit_starts_and_velocities(self):
        config = ScenarioConfig(seed=0, num_objects=2, num_frames=5,
                                image_size=(500, 500), size_range=(20.0, 20.0),
                                start_centers=((100.0, 100.0), (400.0, 300.0)),
                                velocities=((5.0, 0.0), (-5.0, 2.0)))
        centers = _centers(generate_scenario(config).columns.box)
        assert centers[:4].tolist() == [[100.0, 100.0], [400.0, 300.0],
                                        [105.0, 100.0], [395.0, 302.0]]


class TestPinnedOutput:
    """`trackfuse synth` bytes beyond the benchmark's workloads; a scenario with empty frames."""

    SPARSE = ScenarioConfig(seed=5, num_objects=1, num_frames=30, dropout=0.6)  # whole frames empty

    @pytest.mark.parametrize("args, digest", [
        ("--seed 5 --objects 1 --frames 30 --dropout 0.6",
         "7c487ed68edfa0a81f83318e448bb6a0208277aeb2cfe58804a33054fbf0e06a"),
        ("--seed 6 --frames 20 --embedding-dim 0",
         "c52493b343f4713a1c813e2d83c663df5dc3abe7cf2d4bc41363cdd9572a5945"),
        ("--seed 7 --objects 3 --frames 10 --classes 3 --flicker 0.9 --confidence 0.5 --jitter 2.0",
         "fe30f86e92980e7b359c0aec09e2b35bdedaa2c1159d7b55700d23c2e1069016"),
    ])
    def test_synth_writes_the_pinned_bytes(self, tmp_path, args, digest):
        out = tmp_path / "d.jsonl"
        assert main(["synth", "--output", str(out), *args.split()]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_detection_frames_list_the_frames_with_detections(self):
        scenario = generate_scenario(self.SPARSE)
        frames = scenario.detection_frames()
        assert [f for f, _ in frames] == scenario.columns.frame_ids.tolist()
        assert len(frames) < self.SPARSE.num_frames and all(dets for _, dets in frames)
        rows = [det for _, dets in frames for det in dets]
        assert not any(det.probs.flags.writeable or det.embedding.flags.writeable for det in rows)

    @pytest.mark.parametrize("kind", list(TrackerKind))
    def test_columns_track_like_their_object_form(self, kind):
        scenario = generate_scenario(self.SPARSE)
        config = TrackerConfig(kind=kind, max_age=1)
        want = track_columns(columns_of(scenario.detection_frames()), config)
        assert track_columns(scenario.columns, config).tolist() == want.tolist()

    @pytest.mark.parametrize("kind", [TrackerKind.IOU, TrackerKind.SORT])
    def test_columns_track_like_their_file(self, tmp_path, kind):
        # Frames without detections age no track: a gap of empty frames longer than max_age
        # ends no track, whether the frames come from the scenario or from its written file.
        scenario = generate_scenario(ScenarioConfig(seed=5, num_objects=1, num_frames=60,
                                                    dropout=0.6))
        path = tmp_path / "d.jsonl"
        write_detections({"s": scenario.detection_frames()}, path)
        config = TrackerConfig(kind=kind, max_age=1)
        from_file = track_columns(read_columns(path, scenario.label_set), config)
        from_columns = track_columns(scenario.columns, config)
        assert len(scenario.columns.frame_ids) == 25
        assert from_columns.tolist() == from_file.tolist()
        assert set(from_columns.tolist()) == {1}
