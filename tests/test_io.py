"""Detection JSONL and track CSV: round trips, schema errors, golden output."""

import json
import operator
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_result, reference_write_tracks, tracked
from trackfuse.errors import EmptyFile, InvalidValue, ParseError, SchemaError
from trackfuse.fusion import FusionMode, relabel
from trackfuse.io import (
    TRACK_CSV_HEADER,
    DetectionRow,
    read_columns,
    read_labels,
    read_records,
    read_tracks,
    write_detections,
    write_labels,
    write_tracks,
)
from trackfuse.model import LabelSet, validate_distribution
from trackfuse.synth import ScenarioConfig, generate_scenario
from trackfuse.trackers import TrackerConfig, TrackerKind, track_columns

GOLDEN = Path(__file__).parent / "data" / "golden_tracks.csv"


def _reference_scenario():
    config = ScenarioConfig(seed=42, num_objects=3, num_frames=30, n_classes=5,
                            flicker=0.3, dropout=0.1, jitter=1.0, confidence=0.8)
    return generate_scenario(config)


class TestLabels:
    def test_round_trip(self, tmp_path):
        labels = LabelSet(["wolf", "lynx", "red fox"])
        path = tmp_path / "labels.txt"
        write_labels(labels, path)
        assert read_labels(path) == labels

    def test_empty_label_file(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("\n\n")
        with pytest.raises(EmptyFile):
            read_labels(path)


class TestParseDetections:
    def _labels(self, n=5):
        return LabelSet([f"class_{i:02d}" for i in range(n)])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        with pytest.raises(EmptyFile):
            read_columns(path, self._labels())

    def test_single_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        record = {"seq": "a", "frame": 3, "bbox": [0.0, 1.0, 10.0, 11.0],
                  "score": 0.5, "probs": [0.2] * 5}
        path.write_text(json.dumps(record) + "\n")
        seqs = read_columns(path, self._labels())
        assert list(seqs) == ["a"]
        cols = seqs["a"]
        assert cols.frame_ids.tolist() == [3] and cols.starts.tolist() == [0, 1]
        assert cols.box.tolist() == [[0.0, 1.0, 10.0, 11.0]]

    def test_frames_sorted_ascending(self, tmp_path):
        path = tmp_path / "d.jsonl"
        lines = []
        for frame in (5, 1, 3):
            lines.append(json.dumps({"seq": "a", "frame": frame,
                                     "bbox": [0, 0, 5, 5], "score": 0.9,
                                     "probs": [0.2] * 5}))
        path.write_text("\n".join(lines) + "\n")
        seqs = read_columns(path, self._labels())
        assert seqs["a"].frame_ids.tolist() == seqs["a"].frame.tolist() == [1, 3, 5]

    def test_bad_json_carries_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        good = json.dumps({"seq": "a", "frame": 0, "bbox": [0, 0, 5, 5],
                           "score": 0.9, "probs": [0.2] * 5})
        path.write_text(good + "\n{broken\n")
        with pytest.raises(ParseError, match="line 2"):
            read_columns(path, self._labels())

    def test_missing_field(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"seq": "a", "frame": 0,
                                    "bbox": [0, 0, 5, 5], "score": 0.9}) + "\n")
        with pytest.raises(ParseError, match="probs"):
            read_columns(path, self._labels())

    def test_probs_length_mismatch_is_schema_error(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"seq": "a", "frame": 0, "bbox": [0, 0, 5, 5],
                                    "score": 0.9, "probs": [0.5, 0.5]}) + "\n")
        with pytest.raises(SchemaError, match="label set has 5"):
            read_columns(path, self._labels())

    def test_inconsistent_embeddings_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        base = {"seq": "a", "bbox": [0, 0, 5, 5], "score": 0.9, "probs": [0.2] * 5}
        lines = [json.dumps({**base, "frame": 0, "embedding": [1.0, 0.0]}),
                 json.dumps({**base, "frame": 1})]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="embedding"):
            read_columns(path, self._labels())

    @pytest.mark.parametrize("frame", ["x", -1, 1.5, float("inf")])
    def test_bad_frame_is_parse_error(self, tmp_path, frame):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"seq": "a", "frame": frame, "bbox": [0, 0, 5, 5],
                                    "score": 0.9, "probs": [0.2] * 5}) + "\n")
        with pytest.raises(ParseError, match="line 1"):
            read_columns(path, self._labels())

    @pytest.mark.parametrize("field,value", [
        ("frame", True), ("gt_class", 1.7), ("gt_class", "1"), ("gt_class", True),
        ("gt_track", 1.7), ("gt_track", "1"), ("gt_track", True),
    ])
    def test_non_integer_id_is_parse_error(self, tmp_path, field, value):
        good = {"seq": "a", "frame": 0, "bbox": [0, 0, 5, 5], "score": 0.9,
                "probs": [0.2] * 5, "gt_class": 1, "gt_track": 1}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
        name = "frame_id" if field == "frame" else field
        with pytest.raises(ParseError, match=f"line 2: {name} must be a non-negative integer"):
            read_columns(path, self._labels())

    @pytest.mark.parametrize("field,value", [
        ("score", True), ("score", "0.9"), ("bbox", ["0", 0, 5, 5]),
        ("probs", ["0.2"] * 5), ("probs", [True, False, False, False, False]),
        ("embedding", ["1", "2"]), ("embedding", [1.0, False]),
    ])
    def test_non_number_is_parse_error(self, tmp_path, field, value):
        good = {"seq": "a", "frame": 0, "bbox": [0, 0, 5, 5], "score": 0.9,
                "probs": [0.2] * 5, "embedding": [1.0, 2.0]}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "frame": 1, field: value})
                        + "\n")
        with pytest.raises(ParseError, match=f"line 2: {field} must hold real numbers"):
            read_columns(path, self._labels())

    @pytest.mark.parametrize("field,value", [
        ("score", 10 ** 400), ("bbox", [0, 0, 10 ** 400, 5]), ("probs", [10 ** 400] + [1] * 4),
        ("embedding", [10 ** 400, 1]),
    ], ids=["score", "bbox", "probs", "embedding"])
    def test_number_beyond_float_range_is_parse_error(self, tmp_path, field, value):
        good = {"seq": "a", "frame": 0, "bbox": [0, 0, 5, 5], "score": 0.9,
                "probs": [0.2] * 5, "embedding": [1.0, 2.0]}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({**good, field: value}) + "\n")
        with pytest.raises(ParseError, match="line 1: .*int too large to convert to float"):
            read_columns(path, self._labels())

    @pytest.mark.parametrize("seq", [1, 1.5, [1], None, True, {"a": "b"}])
    def test_non_string_seq_is_parse_error(self, tmp_path, seq):
        good = {"seq": "1", "frame": 0, "bbox": [0, 0, 5, 5], "score": 0.9, "probs": [0.2] * 5}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "seq": seq}) + "\n")
        with pytest.raises(ParseError, match="line 2: seq must be a string"):
            read_columns(path, self._labels())

    def test_integral_numbers_parse_as_floats(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"seq": "a", "frame": 0, "bbox": [0, 0, 5, 5], "score": 1,
                                    "probs": [1, 0, 0, 0, 0], "embedding": [1, 2]}) + "\n")
        cols = read_columns(path, self._labels())["a"]
        assert cols.box.tolist() == [[0.0, 0.0, 5.0, 5.0]] and cols.score.tolist() == [1.0]
        assert cols.box.dtype == cols.score.dtype == cols.emb.dtype == np.float64
        assert int(np.argmax(cols.probs[0])) == 0 and cols.emb.tolist() == [[1.0, 2.0]]

    def test_deep_nesting_is_parse_error(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"seq": "a", "frame": 0}) + "\n"
                        + "[" * 5000 + "]" * 5000 + "\n")
        with pytest.raises(ParseError, match="line 2: JSON is nested too deeply"):
            list(read_records(path))

    def test_non_utf8_file_is_invalid_value(self, tmp_path):
        for path, read in ((tmp_path / "d.jsonl", lambda p: list(read_records(p))),
                           (tmp_path / "labels.txt", read_labels)):
            path.write_bytes(b"\xff\xfe{}\n")
            with pytest.raises(InvalidValue, match=f"{path.name} is not UTF-8 text"):
                read(path)

    def test_degenerate_bbox_is_parse_error(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"seq": "a", "frame": 0, "bbox": [5, 0, 5, 5],
                                    "score": 0.9, "probs": [0.2] * 5}) + "\n")
        with pytest.raises(ParseError, match="line 1"):
            read_columns(path, self._labels())


_MAGNITUDES = st.floats(1e-300, 1e300)
_CORNERS = st.one_of(st.just(-0.0), _MAGNITUDES, _MAGNITUDES.map(operator.neg))
_IDS = st.integers(0, 2 ** 70)  # int64 ends at 2 ** 63 - 1
_N_CLASSES = 3


@st.composite
def _frames(draw):
    """One sequence's frames of legal rows, as ``write_detections`` takes them: frame ids
    ascending, and an embedding of one size on every row or on none."""
    dim = draw(st.none() | st.integers(1, 4))
    frames = []
    for frame_id in sorted(draw(st.sets(_IDS, min_size=1, max_size=4))):
        rows = []
        for _ in range(draw(st.integers(1, 3))):
            (x1, x2), (y1, y2) = (sorted(draw(st.lists(_CORNERS, min_size=2, max_size=2,
                                                       unique=True))) for _ in range(2))
            raw = draw(st.lists(st.floats(0.0, 1e6), min_size=_N_CLASSES, max_size=_N_CLASSES))
            raw[draw(st.integers(0, _N_CLASSES - 1))] = draw(st.floats(1e-3, 1e6))
            emb = None if dim is None else np.array(draw(st.lists(
                st.floats(allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim)))
            rows.append(DetectionRow(
                frame_id, (x1, y1, x2, y2), draw(st.floats(0.0, 1.0)),
                validate_distribution(np.array([raw]), _N_CLASSES)[0], emb,
                draw(st.none() | _IDS), draw(st.none() | _IDS)))
        frames.append((frame_id, rows))
    return frames


def _bits(values) -> list:
    """Float values as the int64 patterns of their bits, so -0.0 differs from 0.0."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


class TestDetectionRoundTrip:
    def test_scenario_round_trips_exactly(self, tmp_path):
        scenario = _reference_scenario()
        path = tmp_path / "d.jsonl"
        write_detections({"seq-0": scenario.detection_frames()}, path)
        got, want = read_columns(path, scenario.label_set)["seq-0"], scenario.columns
        for name in ("frame", "box", "score", "probs", "emb", "gt_class", "gt_track"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        listed = np.diff(want.starts) > 0  # a file lists only the frames with detections
        assert got.frame_ids.tolist() == want.frame_ids[listed].tolist()

    @settings(max_examples=80, deadline=None)
    @given(st.dictionaries(st.text(), _frames(), min_size=1, max_size=3))
    def test_written_rows_read_back_bit_for_bit(self, sequences):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.jsonl"
            write_detections(sequences, path)
            got = read_columns(path, LabelSet(["a", "b", "c"]))
        assert list(got) == sorted(sequences)
        for seq, frames in sequences.items():
            cols, rows = got[seq], [row for _, group in frames for row in group]
            assert cols.frame_ids.tolist() == [frame_id for frame_id, _ in frames]
            assert cols.starts.tolist() == np.cumsum([0] + [len(g) for _, g in frames]).tolist()
            assert cols.frame.tolist() == [row.frame_id for row in rows]
            for name in ("gt_class", "gt_track"):
                assert getattr(cols, name).tolist() == [
                    -1 if getattr(row, name) is None else getattr(row, name) for row in rows]
            assert _bits(cols.box) == _bits([row.bbox for row in rows])
            assert _bits(cols.score) == _bits([row.score for row in rows])
            assert _bits(cols.probs) == _bits([row.probs for row in rows])
            if rows[0].embedding is None:
                assert cols.emb is None
            else:
                assert _bits(cols.emb) == _bits([row.embedding for row in rows])


@lru_cache(maxsize=1)
def _reference_run():
    return tracked(_reference_scenario().columns, TrackerConfig(kind=TrackerKind.SORT))


@lru_cache(maxsize=None)
def _fused_reference_result(names=("seq-0",)):
    """The reference run fused, once under each of ``names``."""
    run = _reference_run()
    return relabel({name: run.cols for name in names}, {name: run.track for name in names},
                   FusionMode.PROBABILITY)


@lru_cache(maxsize=1)
def _reference_object_result():
    return reference_result(_fused_reference_result())


class TestWriteTracks:
    def _result(self):
        return _fused_reference_result()

    def test_empty_results_write_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_tracks(relabel({}, {}, FusionMode.NONE), path)
        assert path.read_text() == TRACK_CSV_HEADER + "\n"

    def test_one_track_three_rows(self, tmp_path):
        from test_trackers import _det
        frames = [(f, [_det(f, (0, 0, 20, 20))]) for f in range(3)]
        result = tracked(frames, TrackerConfig(kind=TrackerKind.IOU))
        path = tmp_path / "t.csv"
        write_tracks(relabel({"s": result.cols}, {"s": result.track}, FusionMode.NONE), path)
        rows = read_tracks(path)
        assert len(rows) == 3
        assert {r.track_id for r in rows} == {1}
        assert [r.frame for r in rows] == [0, 1, 2]

    def test_rows_round_trip_matched_records(self, tmp_path):
        result = self._result()
        path = tmp_path / "t.csv"
        write_tracks(result, path)
        rows = read_tracks(path)
        matched = np.flatnonzero(result.track >= 0).tolist()
        assert len(rows) == len(matched)
        by_key = {(r.frame, r.track_id): r for r in rows}
        for i in matched:
            row = by_key[(result.cols.frame[i], result.track[i])]
            x1, y1, x2, y2 = result.cols.box[i].tolist()
            assert row.x == x1 and row.y == y1
            assert row.w == x2 - x1 and row.h == y2 - y1
            assert row.score == result.cols.score[i]
            assert row.fused_class == result.fused[i]
            assert row.raw_class == result.raw[i]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_tracks(self._result(), a)
        write_tracks(self._result(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_matches_golden_file(self, tmp_path):
        path = tmp_path / "t.csv"
        write_tracks(self._result(), path)
        assert path.read_bytes() == GOLDEN.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(), min_size=1, max_size=3, unique=True))
    @example(["a,b"])
    @example(['q"uote', "new\nline", "carriage\rreturn", " pad "])
    def test_any_seq_name_round_trips(self, names):
        from test_trackers import _det
        with tempfile.TemporaryDirectory() as tmp:
            jsonl = Path(tmp) / "d.jsonl"
            write_detections({name: [(f, [_det(f, (0, 0, 20, 20))]) for f in range(2)]
                              for name in names}, jsonl)
            sequences = read_columns(jsonl, LabelSet(["a", "b"]))
            tracks = {seq: track_columns(cols, TrackerConfig(kind=TrackerKind.IOU))
                      for seq, cols in sequences.items()}
            csv_path = Path(tmp) / "t.csv"
            write_tracks(relabel(sequences, tracks, FusionMode.NONE), csv_path)
            rows = read_tracks(csv_path)
        assert sorted(sequences) == sorted(names)
        assert [(r.seq, r.frame) for r in rows] == [(n, f) for n in sorted(names) for f in range(2)]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(), min_size=1, max_size=3, unique=True))
    @example([""])
    @example(["%s"])
    @example(["a,b"])
    @example(['q"'])
    @example(["\n"])
    @example(["\r"])
    @example(["\r\n"])
    @example([" pad "])
    def test_bytes_equal_the_csv_writer_oracle(self, names):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            write_tracks(_fused_reference_result(tuple(names)), got)
            reference_write_tracks({name: _reference_object_result() for name in names}, want)
            assert got.read_bytes() == want.read_bytes()

    def test_header_validation_on_read(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("nope\n")
        with pytest.raises(SchemaError):
            read_tracks(path)
