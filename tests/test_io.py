"""Detection JSONL and track CSV: round trips, schema errors, golden output."""

import json
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_result, reference_write_tracks
from trackfuse.errors import EmptyFile, InvalidValue, ParseError, SchemaError
from trackfuse.fusion import FusionMode, relabel
from trackfuse.io import (
    TRACK_CSV_HEADER,
    parse_detections,
    read_labels,
    read_records,
    read_tracks,
    write_detections,
    write_labels,
    write_tracks,
)
from trackfuse.model import LabelSet
from trackfuse.synth import ScenarioConfig, generate_scenario
from trackfuse.trackers import TrackerConfig, TrackerKind, run_sequence

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
            parse_detections(path, self._labels())

    def test_single_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        record = {"seq": "a", "frame": 3, "bbox": [0.0, 1.0, 10.0, 11.0],
                  "score": 0.5, "probs": [0.2] * 5}
        path.write_text(json.dumps(record) + "\n")
        seqs = parse_detections(path, self._labels())
        assert list(seqs) == ["a"]
        (frame, dets), = seqs["a"]
        assert frame == 3
        assert len(dets) == 1
        assert dets[0].bbox.as_tuple() == (0.0, 1.0, 10.0, 11.0)

    def test_frames_sorted_ascending(self, tmp_path):
        path = tmp_path / "d.jsonl"
        lines = []
        for frame in (5, 1, 3):
            lines.append(json.dumps({"seq": "a", "frame": frame,
                                     "bbox": [0, 0, 5, 5], "score": 0.9,
                                     "probs": [0.2] * 5}))
        path.write_text("\n".join(lines) + "\n")
        seqs = parse_detections(path, self._labels())
        assert [frame for frame, _ in seqs["a"]] == [1, 3, 5]

    def test_bad_json_carries_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        good = json.dumps({"seq": "a", "frame": 0, "bbox": [0, 0, 5, 5],
                           "score": 0.9, "probs": [0.2] * 5})
        path.write_text(good + "\n{broken\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_detections(path, self._labels())

    def test_missing_field(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"seq": "a", "frame": 0,
                                    "bbox": [0, 0, 5, 5], "score": 0.9}) + "\n")
        with pytest.raises(ParseError, match="probs"):
            parse_detections(path, self._labels())

    def test_probs_length_mismatch_is_schema_error(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"seq": "a", "frame": 0, "bbox": [0, 0, 5, 5],
                                    "score": 0.9, "probs": [0.5, 0.5]}) + "\n")
        with pytest.raises(SchemaError, match="label set has 5"):
            parse_detections(path, self._labels())

    def test_inconsistent_embeddings_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        base = {"seq": "a", "bbox": [0, 0, 5, 5], "score": 0.9, "probs": [0.2] * 5}
        lines = [json.dumps({**base, "frame": 0, "embedding": [1.0, 0.0]}),
                 json.dumps({**base, "frame": 1})]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="embedding"):
            parse_detections(path, self._labels())

    @pytest.mark.parametrize("frame", ["x", -1, 1.5, float("inf")])
    def test_bad_frame_is_parse_error(self, tmp_path, frame):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"seq": "a", "frame": frame, "bbox": [0, 0, 5, 5],
                                    "score": 0.9, "probs": [0.2] * 5}) + "\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_detections(path, self._labels())

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
            parse_detections(path, self._labels())

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
            parse_detections(path, self._labels())

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
            parse_detections(path, self._labels())

    @pytest.mark.parametrize("seq", [1, 1.5, [1], None, True, {"a": "b"}])
    def test_non_string_seq_is_parse_error(self, tmp_path, seq):
        good = {"seq": "1", "frame": 0, "bbox": [0, 0, 5, 5], "score": 0.9, "probs": [0.2] * 5}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "seq": seq}) + "\n")
        with pytest.raises(ParseError, match="line 2: seq must be a string"):
            parse_detections(path, self._labels())

    def test_integral_numbers_parse_as_floats(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"seq": "a", "frame": 0, "bbox": [0, 0, 5, 5], "score": 1,
                                    "probs": [1, 0, 0, 0, 0], "embedding": [1, 2]}) + "\n")
        (det,) = parse_detections(path, self._labels())["a"][0][1]
        assert det.bbox.as_tuple() == (0.0, 0.0, 5.0, 5.0) and det.score == 1.0
        assert int(np.argmax(det.dist.probs)) == 0 and det.embedding.tolist() == [1.0, 2.0]

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
            parse_detections(path, self._labels())


class TestDetectionRoundTrip:
    def test_scenario_round_trips_exactly(self, tmp_path):
        scenario = _reference_scenario()
        path = tmp_path / "d.jsonl"
        frames = [(f, dets) for f, dets in scenario.detection_frames() if dets]
        write_detections({"seq-0": frames}, path)
        parsed = parse_detections(path, scenario.label_set)["seq-0"]
        assert [f for f, _ in parsed] == [f for f, _ in frames]
        for (_, want), (_, got) in zip(frames, parsed):
            assert len(want) == len(got)
            for a, b in zip(want, got):
                assert a.frame_id == b.frame_id
                assert a.bbox.as_tuple() == b.bbox.as_tuple()
                assert a.score == b.score
                assert np.array_equal(a.dist.probs, b.dist.probs)
                assert np.array_equal(a.embedding, b.embedding)
                assert a.gt_class == b.gt_class
                assert a.gt_track == b.gt_track


@lru_cache(maxsize=1)
def _reference_run():
    return run_sequence(_reference_scenario().detection_frames(),
                        TrackerConfig(kind=TrackerKind.SORT))


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
        result = run_sequence(frames, TrackerConfig(kind=TrackerKind.IOU))
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
            sequences = parse_detections(jsonl, LabelSet(["a", "b"]))
            runs = {seq: run_sequence(frames, TrackerConfig(kind=TrackerKind.IOU))
                    for seq, frames in sequences.items()}
            csv_path = Path(tmp) / "t.csv"
            write_tracks(relabel({seq: res.cols for seq, res in runs.items()},
                                 {seq: res.track for seq, res in runs.items()}, FusionMode.NONE),
                         csv_path)
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
