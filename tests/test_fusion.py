"""Probability fusion against extended-precision product oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_simplex, reference_fuse_pair, reference_relabel, reference_track_labels
from trackfuse.errors import EmptyTrack
from trackfuse.fusion import FusionMode, _running, fuse, relabel
from trackfuse.model import (
    BoundingBox,
    Detection,
    DetectionLabel,
    SequenceResult,
    Track,
    validate_distribution,
)
from trackfuse.synth import ScenarioConfig, generate_scenario
from trackfuse.trackers import TrackerConfig, TrackerKind, run_sequence

BOX = BoundingBox(0, 0, 10, 10)


def _track(prob_rows, track_id=1) -> Track:
    entries = [Detection(frame, BOX, 0.9, validate_distribution(np.asarray(probs, dtype=float),
                                                                len(probs)))
               for frame, probs in enumerate(prob_rows)]
    return Track(track_id, tuple(entries))


def _fused(track: Track, mode: FusionMode = FusionMode.PROBABILITY) -> int:
    """The label ``relabel`` gives every frame of ``track`` in retroactive ``mode``."""
    per_frame = tuple(DetectionLabel(e, track.id, e.dist.argmax) for e in track.entries)
    result = relabel(SequenceResult((track,), per_frame), mode)
    labels = {rec.fused_label for rec in result.per_frame}
    assert len(labels) == 1
    return labels.pop()


def _vote(track: Track) -> int:
    return _fused(track, FusionMode.MAJORITY)


def _scores(track: Track) -> np.ndarray:
    """The summed log probabilities whose argmax is the track's PROBABILITY label."""
    return _running(np.log(np.array([e.dist.probs for e in track.entries])), np.array([0]))[-1]


class TestConsensusLabel:
    def test_unanimous(self):
        track = _track([[0.9, 0.1]] * 3)
        assert _fused(track) == 0
        assert _scores(track).shape == (2,)

    def test_product_dominates_vote_pattern(self):
        # Products: 0.9*0.4*0.8 = 0.288 vs 0.1*0.6*0.2 = 0.012.
        track = _track([[0.9, 0.1], [0.4, 0.6], [0.8, 0.2]])
        scores = _scores(track)
        assert _fused(track) == 0
        assert np.exp(scores[0]) == pytest.approx(0.288, abs=1e-12)
        assert np.exp(scores[1]) == pytest.approx(0.012, abs=1e-12)

    def test_single_frame(self):
        track = _track([[0.2, 0.5, 0.3]])
        assert _fused(track) == 1

    def test_empty_track(self):
        with pytest.raises(EmptyTrack):
            relabel(SequenceResult((Track(1, ()),), ()), FusionMode.PROBABILITY)

    def test_matches_extended_precision_product(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            length = int(rng.integers(1, 30))
            rows = [random_simplex(rng, n) for _ in range(length)]
            track = _track(rows)
            product = np.prod(np.asarray(rows, dtype=np.longdouble), axis=0)
            assert _fused(track) == int(np.argmax(product))

    def test_order_invariance(self):
        rng = np.random.default_rng(13)
        rows = [random_simplex(rng, 12) for _ in range(20)]
        base = _fused(_track(rows))
        for _ in range(5):
            rng.shuffle(rows)
            assert _fused(_track(rows)) == base

    def test_sequential_fuse_fold_agrees(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(2, 30))
            rows = [random_simplex(rng, n) for _ in range(int(rng.integers(1, 25)))]
            track = _track(rows)
            folded = validate_distribution(rows[0], n)
            for row in rows[1:]:
                folded = reference_fuse_pair(folded, validate_distribution(row, n))
            assert folded.argmax == _fused(track)

    def test_long_track_stays_finite(self):
        rng = np.random.default_rng(101)
        rows = []
        for _ in range(10_000):
            row = random_simplex(rng, 8)
            rows.append(np.maximum(row, 1e-6) / np.maximum(row, 1e-6).sum())
        track = _track(rows)
        assert np.all(np.isfinite(_scores(track)))
        assert 0 <= _fused(track) < 8


class TestMajorityVote:
    def test_strict_majority(self):
        track = _track([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]])
        assert _vote(track) == 0

    def test_tie_breaks_by_probability_mass(self):
        # One vote each; class 0 carries mass 1.3 vs 0.7 for class 1.
        track = _track([[0.9, 0.1], [0.4, 0.6]])
        assert _vote(track) == 0
        # Flip the masses: class 1 wins the tie.
        track = _track([[0.6, 0.4], [0.1, 0.9]])
        assert _vote(track) == 1

    def test_tie_breaks_low_index_on_equal_mass(self):
        track = _track([[0.6, 0.4], [0.4, 0.6]])
        assert _vote(track) == 0

    def test_single_frame(self):
        assert _vote(_track([[0.1, 0.9]])) == 1

    def test_empty_track(self):
        with pytest.raises(EmptyTrack):
            relabel(SequenceResult((Track(1, ()),), ()), FusionMode.MAJORITY)


class TestRelabel:
    def _result(self, flicker=0.4, frames=60, seed=5):
        config = ScenarioConfig(seed=seed, num_objects=2, num_frames=frames,
                                n_classes=5, flicker=flicker, confidence=0.7,
                                size_range=(30.0, 40.0))
        scenario = generate_scenario(config)
        return run_sequence(scenario.detection_frames(),
                            TrackerConfig(kind=TrackerKind.SORT))

    def test_mode_none_is_identity(self):
        result = relabel(self._result(), FusionMode.NONE)
        for rec in result.per_frame:
            assert rec.fused_label == rec.raw_label

    def test_retroactive_override_is_constant_per_track(self):
        result = relabel(self._result(), FusionMode.PROBABILITY)
        seen = {}
        for rec in result.per_frame:
            if rec.track_id is None:
                continue
            seen.setdefault(rec.track_id, set()).add(rec.fused_label)
        assert seen
        for labels in seen.values():
            assert len(labels) == 1

    def test_fused_label_equals_consensus(self):
        base = self._result()
        result = relabel(base, FusionMode.PROBABILITY)
        for track in result.tracks:
            want = int(np.argmax(_scores(track)))
            got = {r.fused_label for r in result.per_frame if r.track_id == track.id}
            assert got == {want}

    def test_majority_mode_uses_vote(self):
        base = self._result()
        result = relabel(base, FusionMode.MAJORITY)
        for track in result.tracks:
            want, = set(reference_track_labels(track, vote=True, online=False).values())
            got = {r.fused_label for r in result.per_frame if r.track_id == track.id}
            assert got == {want}

    def test_corrected_fraction_matches_independent_replay(self):
        base = self._result(flicker=0.45, frames=120, seed=11)
        result = relabel(base, FusionMode.PROBABILITY)
        # Independent replay: final label from an extended-precision log sum.
        want_labels = {}
        for track in result.tracks:
            logs = np.zeros(len(track.entries[0].dist), dtype=np.longdouble)
            for entry in track.entries:
                logs += np.log(entry.dist.probs.astype(np.longdouble))
            want_labels[track.id] = int(np.argmax(logs))
        got = [r for r in result.per_frame if r.track_id is not None]
        corrected = sum(r.fused_label != r.raw_label for r in got) / len(got)
        want_corrected = sum(
            want_labels[r.track_id] != r.raw_label for r in got) / len(got)
        assert corrected == pytest.approx(want_corrected, abs=1e-12)
        assert corrected > 0.2  # flicker at 0.45 leaves plenty to fix

    def test_online_mode_uses_prefixes_only(self):
        base = self._result(flicker=0.5, frames=40, seed=3)
        online = relabel(base, FusionMode.PROBABILITY, online=True)
        by_track = {}
        for rec in online.per_frame:
            if rec.track_id is not None:
                by_track.setdefault(rec.track_id, []).append(rec)
        checked = 0
        for track in online.tracks:
            recs = {r.frame_id: r for r in by_track.get(track.id, [])}
            cum = np.zeros(len(track.entries[0].dist))
            for entry in track.entries:
                cum = cum + np.log(entry.dist.probs)
                rec = recs.get(entry.frame_id)
                if rec is not None:
                    assert rec.fused_label == int(np.argmax(cum))
                    checked += 1
        assert checked > 10

    def test_online_vote_ties_match_majority_vote_of_prefix(self):
        # Frame 1 ties one vote each with class 1 heavier; frame 3 ties two each
        # on equal mass, which goes to the lower index.
        rows = [[0.6, 0.4], [0.1, 0.9], [0.9, 0.1], [0.4, 0.6], [0.55, 0.45]]
        track = _track(rows)
        per_frame = tuple(DetectionLabel(e, track.id, e.dist.argmax) for e in track.entries)
        online = relabel(SequenceResult((track,), per_frame), FusionMode.MAJORITY, online=True)
        got = [rec.fused_label for rec in online.per_frame]
        want = [_vote(_track(rows[:t + 1])) for t in range(len(rows))]
        assert got == want == [0, 1, 0, 0, 0]

    @pytest.mark.parametrize("online", [False, True])
    @pytest.mark.parametrize("mode", [FusionMode.PROBABILITY, FusionMode.MAJORITY])
    def test_matches_reference_running_sums(self, mode, online):
        # Rows come from a coarse grid, so votes, masses and log sums tie often.
        rng = np.random.default_rng(31)
        for _ in range(300):
            n_classes = int(rng.integers(2, 5))
            tracks, per_frame = [], []
            for track_id in range(1, int(rng.integers(1, 4)) + 1):
                length = int(rng.integers(1, 12))
                frames = np.sort(rng.choice(40, size=length, replace=False))
                rows = rng.integers(1, 4, size=(length, n_classes)).astype(float)
                entries = [Detection(int(f), BOX, 0.9,
                                     validate_distribution(r / r.sum(), n_classes))
                           for f, r in zip(frames, rows)]
                tracks.append(Track(track_id, tuple(entries)))
                per_frame += [DetectionLabel(e, track_id, e.dist.argmax) for e in entries]
            result = relabel(SequenceResult(tuple(tracks), tuple(per_frame)), mode, online)
            want = {t.id: reference_track_labels(t, mode is FusionMode.MAJORITY, online)
                    for t in tracks}
            got = [rec.fused_label for rec in result.per_frame]
            assert got == [want[rec.track_id][rec.frame_id] for rec in result.per_frame]

    def test_consensus_scores_are_the_sequential_log_sum(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            rows = [random_simplex(rng, 6) for _ in range(int(rng.integers(1, 40)))]
            track = _track(rows)
            want = np.zeros(6)
            for entry in track.entries:
                want = want + np.log(entry.dist.probs)
            assert np.array_equal(_scores(track), want)

    def test_unmatched_detections_keep_raw_label(self):
        base = self._result()
        result = relabel(base, FusionMode.PROBABILITY)
        for rec in result.per_frame:
            if rec.track_id is None:
                assert rec.fused_label == rec.raw_label


class TestColumns:
    def test_running_sum_is_each_tracks_cumsum(self):
        # Rank-wise accumulation over contiguous tracks adds in each track's own order.
        rng = np.random.default_rng(41)
        for _ in range(3000):
            lengths = rng.integers(1, 12, size=int(rng.integers(1, 8)))
            rows = rng.random((int(lengths.sum()), int(rng.integers(1, 12))))
            rows = np.log(rows) if rng.random() < 0.5 else rows
            starts = np.cumsum(lengths) - lengths
            want = np.concatenate([np.cumsum(rows[s:s + n], axis=0)
                                   for s, n in zip(starts, lengths)])
            assert np.array_equal(_running(rows, starts), want)

    def test_block_log_equals_row_logs(self):
        rows = np.array([random_simplex(np.random.default_rng(seed), 10) for seed in range(5000)])
        assert np.array_equal(np.log(rows), np.array([np.log(row) for row in rows]))

    @pytest.mark.parametrize("online", [False, True])
    @pytest.mark.parametrize("mode", list(FusionMode))
    def test_fuse_equals_relabel(self, mode, online):
        config = ScenarioConfig(seed=8, num_objects=4, num_frames=50, n_classes=4, flicker=0.4,
                                dropout=0.2, jitter=3.0, confidence=0.6)
        scenario = generate_scenario(config)
        base = run_sequence(scenario.detection_frames(),
                            TrackerConfig(kind=TrackerKind.CENTROID, min_hits=3))
        result = fuse(scenario.columns,
                      np.array([-1 if r.track_id is None else r.track_id for r in base.per_frame]),
                      mode, online)
        want = reference_relabel(base, mode, online)
        assert result.fused.tolist() == [rec.fused_label for rec in want.per_frame]
        assert result.raw.tolist() == [rec.raw_label for rec in want.per_frame]
