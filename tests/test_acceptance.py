"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import itertools
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import trackfuse.motion as motion
from oracles import oracle_predict, oracle_update, random_box, random_simplex, reference_fuse_pair
from trackfuse.assoc import CostMatrix, solve_assignment
from trackfuse.camtrap import TriggerConfig, burst_frames, next_trigger, trigger_bursts
from trackfuse.cli import main as cli_main
from trackfuse.fusion import FusionMode, relabel
from trackfuse.io import parse_detections, write_detections
from trackfuse.metrics import (
    ConfusionMatrix,
    accuracy_at_1,
    confusion,
    evaluation_pairs,
    f1_scores,
    label_flip_rate,
)
from trackfuse.model import ClassDistribution, Columns, Detection, validate_distribution
from trackfuse.motion import MotionModel, default_spec
from trackfuse.synth import ScenarioConfig, generate_scenario
from trackfuse.trackers import TrackerConfig, TrackerKind, track_columns

REFERENCE_CONFIG = ScenarioConfig(
    seed=42, num_objects=10, num_frames=2000, n_classes=10,
    flicker=0.3, confidence=0.8, dropout=0.05, jitter=1.0,
)


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {title}", flush=True)
        raise
    print(f"ACCEPTANCE {num}: PASS - {title}", flush=True)


@pytest.fixture(scope="module")
def reference_runs():
    """Reference scenario tracked by every kind, unfused and with both fusion modes."""
    scenario = generate_scenario(REFERENCE_CONFIG)
    cols = scenario.columns
    start = time.perf_counter()
    runs = {}
    for kind in TrackerKind:
        track = track_columns(cols, TrackerConfig(kind=kind))
        runs[kind] = {name: relabel(cols, track, mode) for name, mode in (
            ("base", FusionMode.NONE), ("prob", FusionMode.PROBABILITY),
            ("vote", FusionMode.MAJORITY))}
    elapsed = time.perf_counter() - start
    return scenario, runs, elapsed


def test_criterion_1_assignment_optimality():
    with criterion(1, "assignment equals exhaustive permutation minimum (1000 matrices)"):
        rng = np.random.default_rng(2024)
        perm_cache = {}
        start = time.perf_counter()
        for _ in range(1000):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 8))
            values = rng.uniform(0.0, 10.0, size=(rows, cols))
            result = solve_assignment(CostMatrix(values, np.ones((rows, cols), dtype=bool)))
            got = float(sum(values[r, c] for r, c in result.matches))
            assert len(result.matches) == min(rows, cols)

            if rows <= cols:
                key = (rows, cols)
                if key not in perm_cache:
                    perm_cache[key] = np.array(
                        list(itertools.permutations(range(cols), rows)), dtype=int)
                perms = perm_cache[key]
                want = float(values[np.arange(rows)[None, :], perms].sum(axis=1).min())
            else:
                key = (cols, rows)
                if key not in perm_cache:
                    perm_cache[key] = np.array(
                        list(itertools.permutations(range(rows), cols)), dtype=int)
                perms = perm_cache[key]
                want = float(values[perms, np.arange(cols)[None, :]].sum(axis=1).min())
            assert abs(got - want) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_fusion_oracle_equivalence():
    with criterion(2, "consensus equals extended-precision product argmax (1000 tracks)"):
        rng = np.random.default_rng(7)
        box = random_box(rng)
        start = time.perf_counter()
        for case in range(1000):
            n_classes = int(rng.integers(2, 1001))
            length = int(rng.integers(1, 101))
            rows = np.empty((length, n_classes))
            for i in range(length):
                rows[i] = random_simplex(rng, n_classes)
            entries = [Detection(frame, box, 0.9, ClassDistribution(
                validate_distribution(row[None], n_classes)[0])) for frame, row in enumerate(rows)]
            cols = Columns.from_frames([(e.frame_id, [e]) for e in entries])

            product = np.prod(
                np.stack([e.dist.probs for e in entries]).astype(np.longdouble), axis=0)
            want = int(np.argmax(product))
            assert set(relabel(cols, np.ones(length, int), FusionMode.PROBABILITY).fused) == {want}

            # Iterated pairwise fusion reaches the same label.
            if case % 10 == 0:
                folded = entries[0].dist
                for e in entries[1:]:
                    folded = reference_fuse_pair(folded, e.dist)
                assert int(np.argmax(folded.probs)) == want
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_kalman_matches_independent_oracle():
    with criterion(3, "Kalman predict/update match a dense-matrix oracle to 1e-9"):
        rng = np.random.default_rng(11)
        steps = 0
        for model in (MotionModel.SORT_CV7, MotionModel.CENTROID_CV4):
            spec = default_spec(model)
            means, covs = motion.kf_init(np.array([random_box(rng).as_tuple()]), spec)
            for _ in range(500):
                if rng.random() < 0.5:
                    want_mean, want_cov = oracle_predict(means[0], covs[0], spec)
                    means, covs = motion.kf_predict(means, covs, spec)
                else:
                    meas = random_box(rng)
                    want_mean, want_cov = oracle_update(means[0], covs[0], spec, meas)
                    means, covs = motion.kf_update(means, covs, np.array([meas.as_tuple()]), spec)
                steps += 1
                scale = max(1.0, float(np.max(np.abs(want_mean))))
                assert float(np.max(np.abs(means[0] - want_mean.astype(float)))) / scale < 1e-9
                cov_scale = max(1.0, float(np.max(np.abs(want_cov))))
                assert float(np.max(np.abs(covs[0] - want_cov.astype(float)))) / cov_scale < 1e-9
                assert float(np.min(np.linalg.eigvalsh(covs[0]))) >= -1e-9
        assert steps == 1000


def test_criterion_4_flicker_correction(reference_runs):
    with criterion(4, "probability fusion lifts Acc@1 by >= 10 points for every tracker"):
        scenario, runs, elapsed = reference_runs
        n_classes = REFERENCE_CONFIG.n_classes
        raw_pairs = evaluation_pairs({"s": runs[TrackerKind.SORT]["base"]}, use_fused=False)
        raw_acc = accuracy_at_1(confusion(raw_pairs, n_classes))
        assert raw_acc == pytest.approx(0.70, abs=0.02)

        for kind in TrackerKind:
            fused_acc = accuracy_at_1(confusion(
                evaluation_pairs({"s": runs[kind]["prob"]}, use_fused=True), n_classes))
            voted_acc = accuracy_at_1(confusion(
                evaluation_pairs({"s": runs[kind]["vote"]}, use_fused=True), n_classes))
            assert fused_acc >= raw_acc + 0.10, f"{kind.value}: {fused_acc:.3f} vs raw {raw_acc:.3f}"
            assert fused_acc >= voted_acc, f"{kind.value}: fusion {fused_acc:.3f} < vote {voted_acc:.3f}"
        assert elapsed < 60.0, f"tracking all kinds took {elapsed:.1f}s"


def test_criterion_5_label_stability(reference_runs):
    with criterion(5, "fused flip rate is exactly 0; raw flip rate matches expectation"):
        _, runs, _ = reference_runs
        phi, n_classes = REFERENCE_CONFIG.flicker, REFERENCE_CONFIG.n_classes
        expected_raw = 2 * phi * (1 - phi) + phi * phi * (n_classes - 2) / (n_classes - 1)
        for kind in TrackerKind:
            fused = runs[kind]["prob"]
            assert label_flip_rate(fused, use_fused=True) == 0.0
            # Per track as well, not just in aggregate.
            per_track = {}
            for track_id, label in zip(fused.track.tolist(), fused.fused.tolist()):
                if track_id >= 0:
                    per_track.setdefault(track_id, set()).add(label)
            assert per_track and all(len(labels) == 1 for labels in per_track.values())
        raw_rate = label_flip_rate(runs[TrackerKind.SORT]["base"], use_fused=False)
        assert raw_rate == pytest.approx(expected_raw, abs=0.02)


def test_criterion_6_camera_trap_sampler():
    with criterion(6, "burst and cooldown match direct substitution; bursts disjoint"):
        rng = np.random.default_rng(33)
        for _ in range(100):
            t_m = int(rng.integers(0, 10_000))
            fps = int(rng.integers(1, 61))
            tau = int(rng.integers(0, 31))
            config = TriggerConfig(fps=fps, cooldown=float(tau))
            burst = burst_frames(t_m, config)
            assert burst.frame_ids == tuple(t_m + j * fps for j in range(4))
            assert next_trigger(t_m, config) == t_m + tau * fps
        for trial in range(50):
            total = int(rng.integers(50, 2000))
            presence = rng.random(total) < 0.2
            fps = int(rng.integers(1, 31))
            tau = float(rng.integers(4, 20))  # tau > burst_len - 1 = 3
            bursts = trigger_bursts(np.flatnonzero(presence).tolist(), total,
                                    TriggerConfig(fps=fps, cooldown=tau))
            seen = set()
            for b in bursts:
                assert seen.isdisjoint(b.frame_ids)
                seen.update(b.frame_ids)


def test_criterion_7_metrics_against_oracles():
    with criterion(7, "accuracy and F1 match hand counts and a scalar reimplementation"):
        pairs = [(0, 0), (0, 1), (1, 1), (1, 1), (2, 0)]
        cm = confusion(pairs, 3)
        assert accuracy_at_1(cm) == pytest.approx(0.6, abs=1e-12)
        scores = f1_scores(cm)
        assert scores.per_class == pytest.approx([0.5, 0.8, 0.0], abs=1e-12)
        assert scores.macro == pytest.approx(13.0 / 30.0, abs=1e-12)
        assert scores.weighted == pytest.approx(0.52, abs=1e-12)

        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            counts = rng.integers(0, 25, size=(n, n))
            if counts.sum() == 0:
                counts[n - 1, 0] = 3
            got = f1_scores(ConfusionMatrix(counts))
            diag = np.diag(counts).astype(float)
            pred = counts.sum(axis=0).astype(float)
            supp = counts.sum(axis=1).astype(float)
            per = np.zeros(n)
            for c in range(n):
                p = diag[c] / pred[c] if pred[c] else 0.0
                r = diag[c] / supp[c] if supp[c] else 0.0
                per[c] = 2 * p * r / (p + r) if p + r else 0.0
            assert np.max(np.abs(got.per_class - per)) <= 1e-12
            assert abs(got.macro - per.mean()) <= 1e-12
            assert abs(got.weighted - float((per * supp).sum() / supp.sum())) <= 1e-12

        equal = np.array([[3, 1, 0], [0, 2, 2], [1, 1, 2]])
        scores = f1_scores(ConfusionMatrix(equal))
        assert scores.weighted == pytest.approx(scores.macro, abs=1e-12)


def test_criterion_8_determinism_and_round_trip(reference_runs, tmp_path):
    with criterion(8, "identical CLI runs are byte-identical; detections round-trip"):
        scenario, _, _ = reference_runs
        dets = tmp_path / "ref.jsonl"
        labels = tmp_path / "labels.txt"
        assert cli_main(["synth", "--output", str(dets), "--labels-out", str(labels),
                         "--seed", "42", "--objects", "10", "--frames", "2000",
                         "--classes", "10", "--flicker", "0.3", "--dropout", "0.05",
                         "--jitter", "1.0"]) == 0
        blobs = []
        for name in ("a", "b"):
            csv = tmp_path / f"{name}.csv"
            metrics = tmp_path / f"{name}.json"
            assert cli_main(["track", "--tracker", "sort", "--fusion", "prob",
                             "--input", str(dets), "--labels", str(labels),
                             "--output", str(csv), "--metrics-out", str(metrics)]) == 0
            blobs.append((csv.read_bytes(), metrics.read_bytes()))
        assert blobs[0] == blobs[1]

        frames = [(f, ds) for f, ds in scenario.detection_frames() if ds]
        path = tmp_path / "rt.jsonl"
        write_detections({"seq": frames}, path)
        parsed = parse_detections(path, scenario.label_set)["seq"]
        assert [f for f, _ in parsed] == [f for f, _ in frames]
        for (_, want), (_, got) in zip(frames, parsed):
            assert len(want) == len(got)
            for a, b in zip(want, got):
                assert a.bbox.as_tuple() == b.bbox.as_tuple()
                assert a.score == b.score
                assert np.array_equal(a.dist.probs, b.dist.probs)
                assert np.array_equal(a.embedding, b.embedding)
                assert (a.gt_class, a.gt_track) == (b.gt_class, b.gt_track)


def test_criterion_9_timing_orders_lightweight_before_appearance(tmp_path):
    with criterion(9, "timing table ranks lightweight trackers below appearance fusion"):
        config = ScenarioConfig(seed=5, num_objects=10, num_frames=400, n_classes=10,
                                flicker=0.3, dropout=0.05, jitter=1.0)
        scenario = generate_scenario(config)
        dets = tmp_path / "bench.jsonl"
        write_detections({"seq": scenario.detection_frames()}, dets)
        labels = tmp_path / "labels.txt"
        labels.write_text("\n".join(scenario.label_set) + "\n")
        out = tmp_path / "bench.json"
        assert cli_main(["bench", "--input", str(dets), "--labels", str(labels),
                         "--json-out", str(out)]) == 0
        payload = json.loads(out.read_text())
        mot_ms = {name: block["total_ms"].get("mot", 0.0) / block["samples"]
                  for name, block in payload.items()}
        lightweight = max(mot_ms["iou"], mot_ms["centroid"])
        assert lightweight < mot_ms["appearance"], mot_ms
        assert mot_ms["appearance"] > 0.0
