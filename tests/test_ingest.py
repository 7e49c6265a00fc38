"""Columnar ingest against the line-by-line reference parser: same detections, same errors.

``parse_detections`` checks and converts a chunk of lines one field at a time;
a chunk that fails a check is checked again line by line, each line's fields in
turn, to name the first bad line and field.  These tests hold it to the
reference parser in ``oracles``, which checks every line in full before reading
the next: equal output on good files, and on bad ones the same exception class
and message (so the same line and field).  A good file whose ids are JSON
integers is never checked line by line.
"""

import gc
import json
import math
import tempfile
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trackfuse.io as io
from oracles import reference_parse_detections
from trackfuse.errors import ParseError, SchemaError
from trackfuse.io import CHUNK_LINES, parse_detections, read_columns, write_detections
from trackfuse.metrics import STAGE_CLASSIFICATION_INGEST, STAGE_DETECTION_INGEST
from trackfuse.model import LabelSet
from trackfuse.synth import ScenarioConfig, generate_scenario

LABELS = LabelSet(["a", "b", "c", "d"])
INF, NAN = math.inf, math.nan
HUGE = 10 ** 400  # a JSON integer no float can hold

BAD_VALUES = {
    "probs": [[HUGE, 1, 1, 1], [-0.5, 1, 1, 1], [0, 0, 0, 0], [NAN, 1, 1, 1], [1, INF, 1, 1],
              [1e-10, 0, 0, 0], [1, 1], "x", [True, 0, 0, 0], [INF, HUGE, 1, 1],
              [-0.5, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0], [NAN, 1.0, 1.0, 1.0],
              [1e-10, 0.0, 0.0, 0.0]],
    "frame": [-1, 1.5, "x", True, None, HUGE, INF, 2 ** 63],
    "score": [1.5, -0.1, NAN, "0.9", True, HUGE, INF, None, 1],
    "embedding": [[NAN, 0, 0], [1, INF, 1], [], "abc", "1.5", 5, [HUGE, 0, 0], [1.0, 2.0],
                  [[1, 2, 3]], {"a": 1}, None, [INF, HUGE, 0], [NAN, 0.0, 0.0], [1.0, INF, 1.0],
                  [1, 2.0, 3.0]],
    "bbox": [[5, 0, 5, 5], [INF, 0, 1, 1], [0, 0, 1], ["0", 0, 1, 1], [0, 0, HUGE, 5],
             [NAN, 0, 1, 1], "box", [INF, HUGE, 5, 5], [5.0, 0.0, 5.0, 5.0],
             [0.0, 5.0, 1.0, 5.0], [-INF, 0.0, 1.0, 1.0], [NAN, 0.0, 1.0, 1.0]],
    "gt_class": [-1, 1.5, "1", True, 2 ** 63, -(2 ** 63) - 1],
    "gt_track": [-1, 2.5, "1", False, 2 ** 63],
    "seq": [1, None, ["a"]],
}
# Some of these are legal: an id past int64, an integer score or an embedding mixing
# integers and floats.  The others fail a field check or the chunk's distribution check.
BREAKS = [(field, value) for field, values in BAD_VALUES.items() for value in values]
BREAKS += [(field, KeyError) for field in ("seq", "frame", "bbox", "score", "probs")]
BAD_LINES = ["{broken", "[1, 2]", "\ufeff{}", '{"seq": "a"} 7', "[" * 3000 + "]" * 3000]


def _id(draw, top):
    """An id up to ``top``; one in ten is an integral float, which is legal too."""
    value = draw(st.integers(0, top))
    return float(value) if draw(st.integers(0, 9)) == 0 else value


@st.composite
def good_records(draw, floats=False):
    """A good record; with ``floats`` every number a column check reads as a float is one,
    and sequence "c" carries embeddings as "a" does.  Sequence "d" carries 2-d ones."""
    seq = draw(st.sampled_from(["a", "c", "d"] if floats else ["a", "b", "d"]))
    x = draw(st.floats(0, 100))
    y, height = (draw(st.floats(0, 100)), draw(st.floats(1, 50))) if floats else (
        draw(st.integers(0, 100)), draw(st.integers(1, 50)))
    numbers = st.floats(0, 5) if floats else st.one_of(
        st.floats(0, 5), st.integers(0, 3), st.integers(2**52, 2**80))
    probs = draw(st.lists(numbers, min_size=4, max_size=4))
    probs[draw(st.integers(0, 3))] = draw(st.floats(0.1, 5))
    record = {"seq": seq, "frame": _id(draw, 6),
              "bbox": [x, y, x + draw(st.floats(0.5, 50)), y + height],
              "score": draw(st.floats(0, 1)), "probs": probs}
    if seq != "b":  # sequences "a" and "c" carry 3-d embeddings, "d" 2-d ones, "b" none
        size = 2 if seq == "d" else 3
        record["embedding"] = draw(st.lists(st.floats(-3, 3), min_size=size, max_size=size))
    for key, top in (("gt_class", 3), ("gt_track", 5)):
        if draw(st.booleans()):
            record[key] = _id(draw, top)
    return record


@st.composite
def lines(draw, floats=False):
    record = draw(good_records(floats))
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(BAD_LINES + [""]))
    for field, value in draw(st.lists(st.sampled_from(BREAKS), max_size=2)):
        if value is KeyError:
            record.pop(field, None)
        else:
            record[field] = value
    return json.dumps(record)


def _outcome(parse, path):
    """``parse``'s detections as plain values, or its error's class and message."""
    try:
        sequences = parse(path, LABELS)
    except Exception as exc:  # noqa: BLE001 - the class is part of what is compared
        return type(exc), str(exc)
    return [(seq, [(frame, [_plain(det) for det in dets]) for frame, dets in frames])
            for seq, frames in sequences.items()]


def _plain(det):
    emb = None if det.embedding is None else det.embedding.tolist()
    return (det.frame_id, det.bbox.as_tuple(), det.score, det.dist.probs.tolist(), emb,
            det.gt_class, det.gt_track)


def _both(path):
    """Both parsers' outcome, which must agree; a good file with JSON integer ids must pass
    the column checks, so no line of it is checked again."""
    with mock.patch.object(io, "_checked_lines", wraps=io._checked_lines) as checks:
        got = _outcome(parse_detections, path)
    want = _outcome(reference_parse_detections, path)
    assert got == want
    if isinstance(want, list) and _integer_ids(path):
        assert checks.call_count == 0
    return got


def _integer_ids(path) -> bool:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return all(record.get(key) is None or type(record[key]) is int
               for record in records for key in ("frame", "gt_class", "gt_track"))


def _write(tmp, texts) -> Path:
    path = Path(tmp) / "d.jsonl"
    path.write_text("\n".join(texts) + "\n", encoding="utf-8")
    return path


def _good(index, **fields) -> str:
    record = {"seq": "a", "frame": index, "bbox": [0.0, 0.0, 5.0, 5.0], "score": 0.9,
              "probs": [0.1, 0.2, 0.3, 0.4], "embedding": [1.0, 0.0, 0.0]}
    return json.dumps({**record, **fields})


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(lines(), min_size=1, max_size=8))
    def test_same_detections_or_same_error(self, texts):
        with tempfile.TemporaryDirectory() as tmp:
            _both(_write(tmp, texts))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(lines(floats=True), min_size=1, max_size=8))
    def test_float_files_same_detections_or_same_error(self, texts):
        with tempfile.TemporaryDirectory() as tmp:
            _both(_write(tmp, texts))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 * CHUNK_LINES + 20), st.sampled_from(BREAKS),
           st.integers(0, 2 * CHUNK_LINES + 20), st.sampled_from(BREAKS))
    def test_breaks_across_chunks(self, at1, break1, at2, break2):
        texts = [_good(i) for i in range(2 * CHUNK_LINES + 21)]
        for at, (field, value) in ((at1, break1), (at2, break2)):
            record = json.loads(texts[at])
            if value is KeyError:
                record.pop(field, None)
            else:
                record[field] = value
            texts[at] = json.dumps(record)
        with tempfile.TemporaryDirectory() as tmp:
            _both(_write(tmp, texts))

    @pytest.mark.parametrize("bad,line", [
        ({2: {"probs": [-1, 1, 1, 1]}, 5: {"bbox": [5, 0, 5, 5]}}, 2),
        ({2: {"bbox": [5, 0, 5, 5]}, 5: {"probs": [-1, 1, 1, 1]}}, 2),
        ({3: {"probs": [-1, 1, 1, 1], "frame": -1}}, 3),
        ({3: {"embedding": [NAN, 0, 0]}, 4: {"probs": [0, 0, 0, 0]}}, 3),
        ({3: {"probs": [0, 0, 0, 0]}, 4: {"embedding": [NAN, 0, 0]}}, 3),
        ({3: {"embedding": [INF, 0, 0], "probs": [NAN, 0, 0, 1]}}, 3),
        ({3: {"embedding": [INF, 0, 0], "gt_class": -1}}, 3),
        ({3: {"probs": [HUGE, 1, 1, 1]}, 2: {"probs": [NAN, 1, 1, 1]}}, 2),
        ({CHUNK_LINES + 3: {"probs": [-1, 1, 1, 1]}, CHUNK_LINES + 9: {"frame": "x"}},
         CHUNK_LINES + 3),
        ({CHUNK_LINES: {"embedding": [NAN, 0, 0]}, CHUNK_LINES + 1: {"bbox": "box"}},
         CHUNK_LINES),
        ({3: {"probs": [-1.0, 1.0, 1.0, 1.0]}, 5: {"probs": [0.0, 0.0, 0.0, 0.0]}}, 3),
        ({3: {"probs": [-1.0, 1.0, 1.0, 1.0]}, 5: {"bbox": [5.0, 0.0, 5.0, 5.0]}}, 3),
        # One value that fails a column check in an otherwise all-float chunk.
        ({4: {"frame": -1}}, 4), ({4: {"score": 1.5}}, 4), ({4: {"gt_track": -1}}, 4),
        ({4: {"bbox": [0.0, 5.0, 1.0, 5.0]}}, 4), ({4: {"embedding": [1.0, NAN, 0.0]}}, 4),
        ({4: {"gt_class": -1}, 5: {"probs": [0.0, 0.0, 0.0, 0.0]}}, 4),
        ({4: {"score": HUGE}}, 4),
    ], ids=["probs-then-bbox", "bbox-then-probs", "probs-before-frame-on-a-line",
            "embedding-then-probs", "probs-then-embedding", "probs-before-embedding-on-a-line",
            "embedding-before-gt-on-a-line", "earlier-line-beats-overflow",
            "second-chunk", "last-line-of-a-chunk", "float-probs-then-probs",
            "float-probs-then-box", "column-frame", "column-score", "column-gt-track",
            "column-box", "column-embedding", "column-gt-class-then-probs",
            "column-score-overflow"])
    def test_first_failing_line_and_field(self, tmp_path, bad, line):
        texts = [_good(i, **bad.get(i + 1, {})) for i in range(max(bad) + 3)]
        got = _both(_write(tmp_path, texts))
        assert got[0] is ParseError and got[1].startswith(f"line {line}: ")

    def test_embedding_size_changes_at_a_chunk_boundary(self, tmp_path):
        # Each chunk alone passes the column checks; the second's size differs from the first's.
        texts = [_good(i, embedding=[1.0, 2.0] if i >= CHUNK_LINES else [1.0, 0.0, 0.0])
                 for i in range(CHUNK_LINES + 4)]
        assert _both(_write(tmp_path, texts)) == (
            SchemaError, f"line {CHUNK_LINES + 1}: embedding dim 2 differs from 3 earlier in "
                         "sequence 'a'")

    @pytest.mark.parametrize("field", ["frame", "gt_class", "gt_track"])
    def test_id_past_int64_in_an_all_float_chunk(self, tmp_path, field):
        # Legal on the line path, which keeps it as a Python int; int64 cannot hold it.
        texts = [_good(i, **{field: 2 ** 63} if i == 4 else {}) for i in range(8)]
        assert len(_both(_write(tmp_path, texts))) == 1

    def test_good_file_with_many_chunks(self, tmp_path):
        sequences = {}
        for i in range(3):
            scenario = generate_scenario(ScenarioConfig(seed=i, num_objects=8, num_frames=40,
                                                        n_classes=4, flicker=0.3, dropout=0.1))
            sequences[f"s{i}"] = scenario.detection_frames()
        path = tmp_path / "d.jsonl"
        write_detections(sequences, path)
        assert len(_both(path)) == 3


def _bursts_like_file(directory):
    """63 four-frame sequences of 10 objects over 10 classes with 16-d embeddings."""
    sequences, labels = {}, None
    for i in range(63):
        scenario = generate_scenario(ScenarioConfig(
            seed=i, num_objects=10, num_frames=4, n_classes=10, flicker=0.3, dropout=0.05,
            jitter=1.0, speed_range=(5.0, 20.0)))
        sequences[f"bursts-{i:04d}"] = scenario.detection_frames()
        labels = scenario.label_set
    path = Path(directory) / "d.jsonl"
    write_detections(sequences, path)
    return path, labels


def _peak_bytes(parse, path, labels) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        parse(path, labels)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_peak_allocation_at_most_the_line_by_line_parser(tmp_path):
    """Buffering a file's numbers must not cost more memory than a Detection per line."""
    path, labels = _bursts_like_file(tmp_path)
    peaks = {parse_detections: [], reference_parse_detections: []}
    for parse in peaks:
        parse(path, labels)  # first calls fill caches that the measured calls then share
    for _ in range(3):  # a single measurement of either parser varies by ~1 %
        for parse, values in peaks.items():
            values.append(_peak_bytes(parse, path, labels))
    assert np.median(peaks[parse_detections]) <= np.median(peaks[reference_parse_detections])


def test_validated_rows_are_views_of_one_array_per_sequence(tmp_path):
    path, labels = _bursts_like_file(tmp_path)
    sequences = parse_detections(path, labels)
    dets = [d for frames in sequences.values() for _, ds in frames for d in ds]
    for column in (lambda d: d.dist.probs, lambda d: d.embedding):
        bases = {seq: {id(column(d).base) for _, ds in frames for d in ds}
                 for seq, frames in sequences.items()}
        assert all(len(ids) == 1 for ids in bases.values())
        assert len(set().union(*bases.values())) == len(sequences) == 63
    assert all(not d.dist.probs.flags.writeable and not d.embedding.flags.writeable
               for d in dets)


class _OpenStage:
    """A stage timer that only tracks which stage is open."""

    def __init__(self):
        self.open = None

    @contextmanager
    def stage(self, name):
        outer, self.open = self.open, name
        try:
            yield
        finally:
            self.open = outer


def _spy(monkeypatch, name, seen, note):
    """Append ``note(*args)`` to ``seen`` on every call of ``io.<name>``."""
    function = getattr(io, name)

    def call(*args, **kwargs):
        seen.append(note(*args))
        return function(*args, **kwargs)
    monkeypatch.setattr(io, name, call)


@pytest.mark.parametrize("box", [[0.0, 0.0, 5.0, 5.0], [0, 0, 5, 5]], ids=["columns", "lines"])
def test_every_line_is_read_inside_one_of_the_ingest_stages(tmp_path, monkeypatch, box):
    # Float and integer boxes alike pass the column checks, so no line is checked again.
    timer, seen, parsed = _OpenStage(), [], []
    for name in ("parse_json", "validate_distribution"):
        _spy(monkeypatch, name, seen, lambda *args, name=name: (name, timer.open))
    _spy(monkeypatch, "_checked_lines", parsed, lambda fields, line_nos, *args: line_nos)
    n_lines = 2 * CHUNK_LINES + 5
    read_columns(_write(tmp_path, [_good(i, bbox=box) for i in range(n_lines)]), LABELS, timer)
    line = [("parse_json", STAGE_DETECTION_INGEST)]
    chunk = [("validate_distribution", STAGE_CLASSIFICATION_INGEST)]
    assert seen == (line * CHUNK_LINES + chunk) * 2 + line * 5 + chunk
    assert parsed == []


def _columns_of(path, labels):
    return {seq: {name: value if value is None else value.tolist()
                  for name, value in vars(cols).items()}
            for seq, cols in read_columns(path, labels).items()}


def test_plain_files_take_the_column_path(tmp_path, monkeypatch):
    """No line of a synth file is checked again, nor one whose probs hold integers."""
    sequences = {f"s{i}": generate_scenario(ScenarioConfig(
        seed=i, num_objects=8, num_frames=40, n_classes=4, flicker=0.3, dropout=0.1))
        .detection_frames() for i in range(3)}
    write_detections(sequences, tmp_path / "synth.jsonl")
    texts = (tmp_path / "synth.jsonl").read_text().splitlines()
    assert len(texts) > 3 * CHUNK_LINES
    files = {}
    for name, probs in (("plain", [1.0, 0.0, 0.0, 0.0]), ("mixed", [1, 0, 0, 0])):
        record = json.loads(texts[CHUNK_LINES + 7])  # a line of the second chunk
        texts[CHUNK_LINES + 7] = json.dumps({**record, "probs": probs})
        files[name] = tmp_path / f"{name}.jsonl"
        files[name].write_text("\n".join(texts) + "\n", encoding="utf-8")
    plain, mixed = files["plain"], files["mixed"]
    labels = LabelSet(["0", "1", "2", "3"])
    want = _columns_of(plain, labels)

    parsed = []
    _spy(monkeypatch, "_checked_lines", parsed, lambda fields, line_nos, *args: line_nos)
    assert _columns_of(plain, labels) == want and parsed == []
    assert _columns_of(mixed, labels) == want and parsed == []
