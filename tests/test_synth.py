"""Scenario generator: determinism, corruption statistics, geometry."""

import math

import numpy as np
import pytest

from trackfuse.errors import InvalidConfig
from trackfuse.model import validate_distribution
from trackfuse.synth import ScenarioConfig, corrupt_distribution, generate_scenario


def _center(bbox):
    return 0.5 * (bbox.x1 + bbox.x2), 0.5 * (bbox.y1 + bbox.y2)


class TestScenarioConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(num_objects=0), dict(num_frames=0), dict(n_classes=1),
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
    ])
    def test_unsimulable_geometry_is_rejected(self, field, value):
        # Generating from these would end in an OverflowError, loop in _bounce without end,
        # or bounce off the borders many times per frame.
        with pytest.raises(InvalidConfig, match=field):
            ScenarioConfig(num_objects=2, **{field: value})

    def test_speeds_up_to_the_smaller_side_are_accepted(self):
        config = ScenarioConfig(num_objects=2, image_size=(300, 200), speed_range=(0.0, 200.0),
                                velocities=((200.0, 0.0), (0.0, -200.0)),
                                start_centers=((150.0, 100.0), (50.0, 50.0)))
        assert generate_scenario(config).config is config

    def test_confidence_must_beat_uniform(self):
        with pytest.raises(InvalidConfig):
            ScenarioConfig(n_classes=10, confidence=0.1)


class TestCorruptDistribution:
    def test_no_flicker_always_true_class(self):
        config = ScenarioConfig(flicker=0.0, confidence=0.8, n_classes=10)
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert corrupt_distribution(4, config, rng).argmax == 4

    def test_full_flicker_always_wrong(self):
        config = ScenarioConfig(flicker=0.999, confidence=0.9, n_classes=2)
        rng = np.random.default_rng(0)
        wrong = sum(corrupt_distribution(1, config, rng).argmax != 1 for _ in range(500))
        assert wrong >= 498  # flicker 0.999: a flip all but ~once in 500

    def test_flip_fraction_matches_rate(self):
        config = ScenarioConfig(flicker=0.25, confidence=0.8, n_classes=10)
        rng = np.random.default_rng(42)
        n = 100_000
        wrong = sum(corrupt_distribution(3, config, rng).argmax != 3 for _ in range(n))
        assert wrong / n == pytest.approx(0.25, abs=0.01)

    def test_emitted_distributions_survive_validation_unchanged(self):
        config = ScenarioConfig(flicker=0.3, confidence=0.8, n_classes=7)
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = corrupt_distribution(2, config, rng)
            again = validate_distribution(d.probs, 7)
            assert np.max(np.abs(again.probs - d.probs)) <= 1e-12


class TestGenerateScenario:
    def test_zero_noise_detections_equal_ground_truth(self):
        config = ScenarioConfig(seed=3, num_objects=4, num_frames=50,
                                dropout=0.0, jitter=0.0, flicker=0.0)
        scenario = generate_scenario(config)
        for frame_gt, frame_dets in zip(scenario.ground_truth, scenario.detections):
            assert len(frame_dets) == len(frame_gt)
            for truth, det in zip(frame_gt, frame_dets):
                assert det.bbox.as_tuple() == truth.bbox.as_tuple()
                assert det.dist.argmax == truth.class_id
                assert det.gt_class == truth.class_id
                assert det.gt_track == truth.track_id

    def test_deterministic_under_fixed_seed(self):
        config = ScenarioConfig(seed=9, num_objects=5, num_frames=40,
                                dropout=0.1, jitter=1.0, flicker=0.2)
        a = generate_scenario(config)
        b = generate_scenario(config)
        assert [len(f) for f in a.ground_truth] == [len(f) for f in b.ground_truth]
        for da, db in zip(a.detections, b.detections):
            assert len(da) == len(db)
            for x, y in zip(da, db):
                assert x.bbox.as_tuple() == y.bbox.as_tuple()
                assert x.score == y.score
                assert np.array_equal(x.dist.probs, y.dist.probs)
                assert np.array_equal(x.embedding, y.embedding)

    def test_raw_argmax_accuracy_follows_flicker(self):
        # 10 objects x 1000 frames, no dropout: 10^4 detections.
        config = ScenarioConfig(seed=42, num_objects=10, num_frames=1000,
                                n_classes=10, flicker=0.3, confidence=0.8)
        scenario = generate_scenario(config)
        dets = [d for frame in scenario.detections for d in frame]
        assert len(dets) == 10_000
        correct = sum(d.dist.argmax == d.gt_class for d in dets)
        assert correct / len(dets) == pytest.approx(0.70, abs=0.02)

    def test_dropout_thins_detections(self):
        config = ScenarioConfig(seed=1, num_objects=10, num_frames=500, dropout=0.25)
        scenario = generate_scenario(config)
        n = sum(len(frame) for frame in scenario.detections)
        assert n / 5000.0 == pytest.approx(0.75, abs=0.03)

    def test_boxes_stay_inside_image(self):
        config = ScenarioConfig(seed=2, num_objects=6, num_frames=400,
                                image_size=(300, 200), size_range=(20.0, 40.0),
                                speed_range=(5.0, 15.0))
        scenario = generate_scenario(config)
        for frame in scenario.ground_truth:
            for truth in frame:
                b = truth.bbox
                assert b.x1 >= -1e-9 and b.y1 >= -1e-9
                assert b.x2 <= 300 + 1e-9 and b.y2 <= 200 + 1e-9

    def test_identities_persist(self):
        config = ScenarioConfig(seed=4, num_objects=3, num_frames=30)
        scenario = generate_scenario(config)
        for frame in scenario.ground_truth:
            assert [t.track_id for t in frame] == [1, 2, 3]
            assert len(frame) <= config.num_objects

    def test_embeddings_cluster_by_identity(self):
        config = ScenarioConfig(seed=6, num_objects=4, num_frames=60,
                                embedding_dim=16, embedding_separation=8.0)
        scenario = generate_scenario(config)
        by_id = {}
        for frame in scenario.detections:
            for det in frame:
                by_id.setdefault(det.gt_track, []).append(det.embedding)
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
        scenario = generate_scenario(config)
        first = scenario.ground_truth[0]
        assert _center(first[0].bbox) == (100.0, 100.0)
        assert _center(first[1].bbox) == (400.0, 300.0)
        second = scenario.ground_truth[1]
        assert _center(second[0].bbox) == (105.0, 100.0)
        assert _center(second[1].bbox) == (395.0, 302.0)
