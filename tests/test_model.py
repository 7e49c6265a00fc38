"""Core type validation and the distribution flooring contract."""

import gc
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import distribution, reference_validate_distribution
from trackfuse.errors import DegenerateSum, InvalidValue, WrongLength
from trackfuse.model import (
    PROB_FLOOR,
    BoundingBox,
    ClassDistribution,
    ColumnResult,
    Columns,
    Detection,
    LabelSet,
    track_runs,
    validate_distribution,
)
from trackfuse.trackers import TrackerConfig, TrackerKind, track_columns


class TestLabelSet:
    def test_index_lookup(self):
        labels = LabelSet(["wolf", "lynx", "fox"])
        assert len(labels) == 3
        assert labels[2] == "fox"
        assert list(labels) == ["wolf", "lynx", "fox"]

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(InvalidValue):
            LabelSet([])
        with pytest.raises(InvalidValue):
            LabelSet(["a", "a"])


class TestBoundingBox:
    def test_properties(self):
        b = BoundingBox(2, 3, 6, 11)
        assert b.as_tuple() == (2.0, 3.0, 6.0, 11.0) and type(b.x1) is float
        assert (0.5 * (b.x1 + b.x2), 0.5 * (b.y1 + b.y2)) == (4.0, 7.0)

    @pytest.mark.parametrize("corners", [
        (0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 1), (0, 0, float("nan"), 1),
        (0, 0, float("inf"), 1),
    ])
    def test_rejects_degenerate(self, corners):
        with pytest.raises(InvalidValue):
            BoundingBox(*corners)


def _one(raw, n_classes: int) -> np.ndarray:
    """``raw`` validated as a one-row table: its row."""
    return validate_distribution(np.asarray(raw, dtype=float)[None], n_classes)[0]


class TestValidateDistribution:
    def test_already_normalized_passes_through(self):
        assert np.array_equal(_one([0.5, 0.5], 2), [0.5, 0.5])

    def test_zero_entry_is_floored(self):
        probs = _one([1.0, 0.0], 2)
        assert probs[0] == pytest.approx(1.0, abs=1e-11)
        assert 0.0 < probs[1] <= 2 * PROB_FLOOR
        assert int(np.argmax(probs)) == 0

    def test_unnormalized_input_is_scaled(self):
        # 2/8 and 6/8 are exact in binary, so equality is exact.
        assert np.array_equal(_one([2.0, 6.0], 2), [0.25, 0.75])

    def test_wrong_length(self):
        with pytest.raises(WrongLength):
            _one([0.5, 0.5], 3)

    @pytest.mark.parametrize("raw", [[-0.1, 1.1], [float("nan"), 1.0], [float("inf"), 1.0]])
    def test_invalid_entries(self, raw):
        with pytest.raises(InvalidValue):
            _one(raw, 2)

    def test_degenerate_sum(self):
        with pytest.raises(DegenerateSum):
            _one([0.0, 0.0], 2)
        with pytest.raises(DegenerateSum):
            _one([1e-10, 1e-10], 2)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_output_is_on_floored_simplex(self, raw):
        arr = np.asarray(raw)
        if arr.sum() < 1e-9:
            return
        probs = _one(arr, len(raw))
        assert abs(float(probs.sum()) - 1.0) <= 1e-12
        assert np.all(probs > 0.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_idempotent_exactly(self, raw):
        arr = np.asarray(raw)
        if arr.sum() < 1e-9:
            return
        once = _one(arr, len(raw))
        assert np.array_equal(_one(once, len(raw)), once)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=40))
    @settings(max_examples=200)
    @example(raw=[21.0, 999999.9999999999, 1000000.0, 523369.25])
    @example(raw=[999999.9999999999, 1000000.0, 1000000.0])
    def test_argmax_preserved(self, raw):
        # Renormalising may round maxima within relative 1e-12 of each other to
        # one probability, whose tie then goes to the lower index.  So the
        # winner holds the maximum to relative 1e-12, and is np.argmax whenever
        # the runner-up lies further below than that.
        arr = np.asarray(raw)
        if arr.sum() < 1e-9 or arr.max() <= PROB_FLOOR:
            return
        got = int(np.argmax(_one(arr, len(raw))))
        runner_up, top = np.sort(arr)[-2:]
        assert top - arr[got] <= 1e-12 * top
        if top - runner_up > 1e-12 * top:
            assert got == int(np.argmax(arr))


def _random_rows(rng, n_rows, n_classes):
    """Dirichlet, sparse, integer, tiny, huge and already-validated rows, shuffled together."""
    kinds = [
        lambda: rng.dirichlet(np.full(n_classes, rng.choice([0.05, 0.5, 5.0]))),
        lambda: np.where(rng.random(n_classes) < 0.7, 0.0, rng.random(n_classes)) + (
            np.arange(n_classes) == rng.integers(n_classes)),
        lambda: rng.integers(0, 4, n_classes).astype(float) + (np.arange(n_classes) == 0),
        lambda: rng.random(n_classes) * 1e-8 + 1e-9,
        lambda: rng.random(n_classes) * 1e307 + 1e306,
        lambda: reference_validate_distribution(rng.random(n_classes) + 1e-3, n_classes).probs,
    ]
    return np.array([kinds[rng.integers(len(kinds))]() for _ in range(n_rows)])


class TestValidateDistributionTable:
    @pytest.mark.parametrize("n_classes", [1, 2, 5, 10, 37, 200])
    @np.errstate(over="ignore")  # the huge rows' sums overflow to inf on both sides
    def test_each_row_is_the_one_vector_fixpoint_bit_for_bit(self, n_classes):
        rng = np.random.default_rng(n_classes)
        rows = _random_rows(rng, 3000 // n_classes + 20, n_classes)
        got = validate_distribution(rows, n_classes)
        want = np.array([reference_validate_distribution(r, n_classes).probs for r in rows])
        assert np.array_equal(got, want)
        for start in range(0, len(rows), 7):  # a row's result does not depend on its batch
            assert np.array_equal(validate_distribution(rows[start:start + 7], n_classes),
                                  want[start:start + 7])

    @pytest.mark.parametrize("bad,error,message", [
        ([1.0, np.nan], InvalidValue, "distribution entries must be finite"),
        ([-1.0, np.inf], InvalidValue, "distribution entries must be finite"),
        ([-0.5, 2.0], InvalidValue, "distribution entries must be non-negative"),
        ([0.0, 1e-10], DegenerateSum, "sum 1e-10 is too small to normalize"),
    ])
    def test_first_bad_row_raises_with_its_index(self, bad, error, message):
        rows = np.array([[0.5, 0.5], [0.2, 0.8], bad, [-1.0, 0.0], [0.3, 0.7]])
        with pytest.raises(error, match=f"^{message}$") as info:
            validate_distribution(rows, 2)
        assert info.value.row == 2
        with pytest.raises(error, match=f"^{message}$"):
            reference_validate_distribution(bad, 2)

    def test_shape_must_be_rows_of_the_label_count(self):
        for raw in ([0.5, 0.5], np.ones((2, 3))):
            with pytest.raises(WrongLength):
                validate_distribution(raw, 2)
        assert validate_distribution(np.empty((0, 3)), 3).shape == (0, 3)


class TestClassDistribution:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidValue):
            ClassDistribution(np.array([0.5, 0.4]))

    def test_rejects_zero_entries(self):
        with pytest.raises(InvalidValue):
            ClassDistribution(np.array([1.0, 0.0]))

    def test_is_readonly(self):
        d = ClassDistribution(np.array([0.3, 0.7]))
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    def test_marking_read_only_leaves_nothing_in_the_type_cache(self):
        # ``arr.flags.writeable = False`` looks ``setflags`` up through a new name string on
        # every call, and CPython's type cache keeps such strings, one per cache slot their
        # addresses hash to: memory that outlives the call, a different amount in each
        # process.  Clearing the cache frees exactly those strings.  A first round fills
        # caches once; the collector is off because its callbacks (Hypothesis installs
        # one) allocate too.
        rows = [np.full(2, 0.5) for _ in range(2000)]
        for row in rows:
            ClassDistribution(row)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            for row in rows:
                ClassDistribution(row)
            held = tracemalloc.get_traced_memory()[0]
            sys._clear_type_cache()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert freed <= 0  # clearing may allocate a little itself

    def test_argmax_tie_breaks_low(self):
        assert int(np.argmax(_one([0.5, 0.5], 2))) == 0


class TestDetection:
    def _dist(self):
        return distribution([0.6, 0.4])

    def test_basic(self):
        det = Detection(3, BoundingBox(0, 0, 5, 5), 0.9, self._dist(),
                        embedding=[1.0, 0.0], gt_class=1, gt_track=4)
        assert det.frame_id == 3
        assert det.embedding.flags.writeable is False

    @pytest.mark.parametrize("score", [-0.1, 1.5, float("nan")])
    def test_rejects_bad_score(self, score):
        with pytest.raises(InvalidValue):
            Detection(0, BoundingBox(0, 0, 1, 1), score, self._dist())

    def test_rejects_negative_frame(self):
        with pytest.raises(InvalidValue):
            Detection(-1, BoundingBox(0, 0, 1, 1), 0.5, self._dist())


class TestTrack:
    """A track is one id on rows of a ColumnResult; ``runs`` holds its rows in frame order."""

    def _columns(self):
        d1 = distribution([0.6, 0.4])
        d2 = distribution([0.3, 0.7])
        return Columns.from_frames([
            (0, [Detection(0, BoundingBox(0, 0, 2, 2), 0.9, d1)]),
            (1, [Detection(1, BoundingBox(1, 0, 3, 2), 0.9, d2)]),
        ])

    def test_holds_only_id_and_entries(self):
        cols = self._columns()
        raw = cols.probs.argmax(axis=1)
        res = ColumnResult(cols, np.array([1, 1]), raw, raw)
        assert [f.name for f in fields(ColumnResult)] == ["cols", "track", "raw", "fused", "runs"]
        order, starts = res.runs
        assert order.tolist() == [0, 1] and starts.tolist() == [0]
        assert tuple(res.cols.frame[order].tolist()) == (0, 1)

    def test_frames_must_increase(self):
        # Two tracks interleaved over frames 0-2: each run lists its rows by frame.
        frame = np.array([0, 0, 1, 1, 2])
        order, starts = track_runs(np.array([2, 1, 2, 1, 1]))
        assert order.tolist() == [1, 3, 4, 0, 2] and starts.tolist() == [0, 3]
        for lo, hi in zip(starts.tolist(), starts[1:].tolist() + [len(order)]):
            run = frame[order[lo:hi]].tolist()
            assert all(b > a for a, b in zip(run, run[1:]))

    def test_id_must_be_positive(self):
        # Ids start at 1; -1 marks a row no track holds, and such rows are in no run.
        ids = track_columns(self._columns(), TrackerConfig(kind=TrackerKind.IOU))
        assert ids.tolist() == [1, 1]
        order, starts = track_runs(np.array([-1, 1, -1, 2]))
        assert order.tolist() == [1, 3] and starts.tolist() == [0, 1]
