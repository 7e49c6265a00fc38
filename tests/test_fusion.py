"""Probability fusion against extended-precision product oracles."""

from unittest import mock

import numpy as np
import pytest

from oracles import (
    RefTrack,
    distribution,
    random_simplex,
    reference_fuse_pair,
    reference_relabel,
    reference_result,
    reference_track_labels,
    track_rows,
)
from trackfuse.fusion import FusionMode, _running, relabel
from trackfuse.model import BoundingBox, Columns, Detection
from trackfuse.synth import ScenarioConfig, generate_scenario
from trackfuse.trackers import TrackerConfig, TrackerKind, run_sequence

BOX = BoundingBox(0, 0, 10, 10)


def _track(prob_rows) -> Columns:
    """One track's columns: one detection per frame 0, 1, ... with ``prob_rows``."""
    return Columns.from_frames([
        (frame, [Detection(frame, BOX, 0.9, distribution(probs))])
        for frame, probs in enumerate(prob_rows)])


def _fused(track: Columns, mode: FusionMode = FusionMode.PROBABILITY) -> int:
    """The label ``relabel`` gives every row of ``track`` in retroactive ``mode``."""
    labels = set(relabel({"s": track}, {"s": np.ones(len(track.score), dtype=int)}, mode)
                 .fused.tolist())
    assert len(labels) == 1
    return labels.pop()


def _vote(track: Columns) -> int:
    return _fused(track, FusionMode.MAJORITY)


def _scores(probs: np.ndarray) -> np.ndarray:
    """The summed log probabilities whose argmax is the PROBABILITY label of rows ``probs``."""
    return _running(np.log(probs), np.array([0]))[-1]


class TestConsensusLabel:
    def test_unanimous(self):
        track = _track([[0.9, 0.1]] * 3)
        assert _fused(track) == 0
        assert _scores(track.probs).shape == (2,)

    def test_product_dominates_vote_pattern(self):
        # Products: 0.9*0.4*0.8 = 0.288 vs 0.1*0.6*0.2 = 0.012.
        track = _track([[0.9, 0.1], [0.4, 0.6], [0.8, 0.2]])
        scores = _scores(track.probs)
        assert _fused(track) == 0
        assert np.exp(scores[0]) == pytest.approx(0.288, abs=1e-12)
        assert np.exp(scores[1]) == pytest.approx(0.012, abs=1e-12)

    def test_single_frame(self):
        track = _track([[0.2, 0.5, 0.3]])
        assert _fused(track) == 1

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
            folded = distribution(rows[0])
            for row in rows[1:]:
                folded = reference_fuse_pair(folded, distribution(row))
            assert int(np.argmax(folded.probs)) == _fused(track)

    def test_long_track_stays_finite(self):
        rng = np.random.default_rng(101)
        rows = []
        for _ in range(10_000):
            row = random_simplex(rng, 8)
            rows.append(np.maximum(row, 1e-6) / np.maximum(row, 1e-6).sum())
        track = _track(rows)
        assert np.all(np.isfinite(_scores(track.probs)))
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


class TestRelabel:
    def _result(self, flicker=0.4, frames=60, seed=5):
        config = ScenarioConfig(seed=seed, num_objects=2, num_frames=frames,
                                n_classes=5, flicker=flicker, confidence=0.7,
                                size_range=(30.0, 40.0))
        scenario = generate_scenario(config)
        return run_sequence(scenario.detection_frames(),
                            TrackerConfig(kind=TrackerKind.SORT))

    @staticmethod
    def _relabel(base, mode, online=False):
        return relabel({"s": base.cols}, {"s": base.track}, mode, online)

    def test_mode_none_is_identity(self):
        result = self._relabel(self._result(), FusionMode.NONE)
        assert result.fused.tolist() == result.raw.tolist()

    def test_retroactive_override_is_constant_per_track(self):
        result = self._relabel(self._result(), FusionMode.PROBABILITY)
        seen = {}
        for track_id, label in zip(result.track.tolist(), result.fused.tolist()):
            if track_id < 0:
                continue
            seen.setdefault(track_id, set()).add(label)
        assert seen
        for labels in seen.values():
            assert len(labels) == 1

    def test_fused_label_equals_consensus(self):
        base = self._result()
        result = self._relabel(base, FusionMode.PROBABILITY)
        for rows in track_rows(result):
            want = int(np.argmax(_scores(result.cols.probs[rows])))
            assert set(result.fused[rows].tolist()) == {want}

    def test_majority_mode_uses_vote(self):
        base = self._result()
        result = self._relabel(base, FusionMode.MAJORITY)
        for track in reference_result(result).tracks:
            want, = set(reference_track_labels(track, vote=True, online=False).values())
            assert set(result.fused[result.track == track.id].tolist()) == {want}

    def test_corrected_fraction_matches_independent_replay(self):
        base = self._result(flicker=0.45, frames=120, seed=11)
        result = self._relabel(base, FusionMode.PROBABILITY)
        # Independent replay: final label from an extended-precision log sum.
        want_labels = {}
        for rows in track_rows(result):
            logs = np.zeros(result.cols.probs.shape[1], dtype=np.longdouble)
            for probs in result.cols.probs[rows]:
                logs += np.log(probs.astype(np.longdouble))
            want_labels[int(result.track[rows[0]])] = int(np.argmax(logs))
        got = np.flatnonzero(result.track >= 0)
        corrected = sum(result.fused[i] != result.raw[i] for i in got) / len(got)
        want_corrected = sum(
            want_labels[result.track[i]] != result.raw[i] for i in got) / len(got)
        assert corrected == pytest.approx(want_corrected, abs=1e-12)
        assert corrected > 0.2  # flicker at 0.45 leaves plenty to fix

    def test_online_mode_uses_prefixes_only(self):
        base = self._result(flicker=0.5, frames=40, seed=3)
        online = self._relabel(base, FusionMode.PROBABILITY, online=True)
        checked = 0
        for rows in track_rows(online):
            cum = np.zeros(online.cols.probs.shape[1])
            for row in rows:
                cum = cum + np.log(online.cols.probs[row])
                assert online.fused[row] == int(np.argmax(cum))
                checked += 1
        assert checked > 10

    def test_online_vote_ties_match_majority_vote_of_prefix(self):
        # Frame 1 ties one vote each with class 1 heavier; frame 3 ties two each
        # on equal mass, which goes to the lower index.
        rows = [[0.6, 0.4], [0.1, 0.9], [0.9, 0.1], [0.4, 0.6], [0.55, 0.45]]
        online = relabel({"s": _track(rows)}, {"s": np.ones(len(rows), dtype=int)},
                         FusionMode.MAJORITY, online=True)
        got = online.fused.tolist()
        want = [_vote(_track(rows[:t + 1])) for t in range(len(rows))]
        assert got == want == [0, 1, 0, 0, 0]

    @pytest.mark.parametrize("online", [False, True])
    @pytest.mark.parametrize("mode", [FusionMode.PROBABILITY, FusionMode.MAJORITY])
    def test_matches_reference_running_sums(self, mode, online):
        # Rows come from a coarse grid, so votes, masses and log sums tie often.
        rng = np.random.default_rng(31)
        for _ in range(300):
            n_classes = int(rng.integers(2, 5))
            tracks, by_frame = [], {}
            for track_id in range(1, int(rng.integers(1, 4)) + 1):
                length = int(rng.integers(1, 12))
                frames = np.sort(rng.choice(40, size=length, replace=False))
                rows = rng.integers(1, 4, size=(length, n_classes)).astype(float)
                entries = [Detection(int(f), BOX, 0.9, distribution(r / r.sum()))
                           for f, r in zip(frames, rows)]
                tracks.append(RefTrack(track_id, tuple(entries)))
                for e in entries:
                    by_frame.setdefault(e.frame_id, []).append((track_id, e))
            frames = sorted(by_frame.items())
            cols = Columns.from_frames([(f, [e for _, e in group]) for f, group in frames])
            track = np.array([track_id for _, group in frames for track_id, _ in group])
            result = relabel({"s": cols}, {"s": track}, mode, online)
            want = {t.id: reference_track_labels(t, mode is FusionMode.MAJORITY, online)
                    for t in tracks}
            got = result.fused.tolist()
            assert got == [want[t][f] for t, f in zip(track.tolist(), cols.frame.tolist())]

    def test_consensus_scores_are_the_sequential_log_sum(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            rows = [random_simplex(rng, 6) for _ in range(int(rng.integers(1, 40)))]
            track = _track(rows)
            want = np.zeros(6)
            for probs in track.probs:
                want = want + np.log(probs)
            assert np.array_equal(_scores(track.probs), want)

    def test_unmatched_detections_keep_raw_label(self):
        base = self._result()
        result = self._relabel(base, FusionMode.PROBABILITY)
        unmatched = result.track < 0
        assert result.fused[unmatched].tolist() == result.raw[unmatched].tolist()


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

    def test_running_sums_over_many_run_lengths_are_each_tracks_cumsum(self):
        # Runs of 1-300 rows, many lengths distinct and some repeated, and (last) 400 runs of
        # 2-4 rows, as camera-trap bursts give: each length's runs go through one block, added
        # rank by rank when it holds more runs than ranks and by one cumsum otherwise, and
        # either must add every run in its own order.
        rng = np.random.default_rng(43)
        layouts = [np.concatenate([rng.integers(1, 301, size=int(rng.integers(1, 40))),
                                   rng.choice([1, 2, 3, 17, 300], size=int(rng.integers(1, 40)))])
                   for _ in range(12)] + [rng.integers(2, 5, size=400)]
        by_ranks = by_cumsum = 0
        for lengths in layouts:
            rng.shuffle(lengths)
            probs = np.array([random_simplex(rng, 5) for _ in range(int(lengths.sum()))])
            starts = np.cumsum(lengths) - lengths
            votes = (probs.argmax(axis=1)[:, None] == np.arange(5)).astype(np.int64)
            runs = np.bincount(lengths)
            wide = sum(1 for n in range(2, len(runs)) if runs[n] > n)
            for rows in (np.log(probs), votes):
                want = np.concatenate([np.cumsum(rows[s:s + n], axis=0)
                                       for s, n in zip(starts, lengths)])
                with mock.patch.object(np, "cumsum", wraps=np.cumsum) as cumsum:
                    got = _running(rows.copy(), starts)
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert cumsum.call_count == np.count_nonzero(runs[2:]) - wide
                by_ranks += wide
                by_cumsum += cumsum.call_count
        assert by_ranks >= 20 and by_cumsum >= 20

    def test_block_log_equals_row_logs(self):
        rows = np.array([random_simplex(np.random.default_rng(seed), 10) for seed in range(5000)])
        assert np.array_equal(np.log(rows), np.array([np.log(row) for row in rows]))

    @pytest.mark.parametrize("online", [False, True])
    @pytest.mark.parametrize("mode", list(FusionMode))
    def test_fuse_equals_relabel(self, mode, online):
        """Columnar ``relabel`` equals the object path's per-track reference relabel."""
        config = ScenarioConfig(seed=8, num_objects=4, num_frames=50, n_classes=4, flicker=0.4,
                                dropout=0.2, jitter=3.0, confidence=0.6)
        scenario = generate_scenario(config)
        base = run_sequence(scenario.detection_frames(),
                            TrackerConfig(kind=TrackerKind.CENTROID, min_hits=3))
        result = relabel({"s": scenario.columns}, {"s": base.track}, mode, online)
        want = reference_relabel(reference_result(base), mode, online)
        assert result.fused.tolist() == [rec.fused_label for rec in want.per_frame]
        assert result.raw.tolist() == [rec.raw_label for rec in want.per_frame]
