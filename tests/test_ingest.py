"""Columnar ingest against the line-by-line reference parser: same detections, same errors.

``parse_detections`` checks each line's fields as it reads them but leaves the
probability rows and embeddings to a batch check per chunk of lines.  These
tests hold it to the reference parser in ``oracles``, which checks every line
in full before reading the next: equal output on good files, and on bad ones
the same exception class and message (so the same line and field).
"""

import gc
import json
import math
import tempfile
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trackfuse.io as io
from oracles import reference_parse_detections
from trackfuse.errors import ParseError
from trackfuse.io import CHUNK_LINES, parse_detections, read_columns, write_detections
from trackfuse.metrics import STAGE_CLASSIFICATION_INGEST, STAGE_DETECTION_INGEST
from trackfuse.model import LabelSet
from trackfuse.synth import ScenarioConfig, generate_scenario

LABELS = LabelSet(["a", "b", "c", "d"])
INF, NAN = math.inf, math.nan
HUGE = 10 ** 400  # a JSON integer no float can hold

BAD_VALUES = {
    "probs": [[HUGE, 1, 1, 1], [-0.5, 1, 1, 1], [0, 0, 0, 0], [NAN, 1, 1, 1], [1, INF, 1, 1],
              [1e-10, 0, 0, 0], [1, 1], "x", [True, 0, 0, 0], [INF, HUGE, 1, 1]],
    "frame": [-1, 1.5, "x", True, None, HUGE, INF],
    "score": [1.5, -0.1, NAN, "0.9", True, HUGE, INF, None],
    "embedding": [[NAN, 0, 0], [1, INF, 1], [], "abc", "1.5", 5, [HUGE, 0, 0], [1.0, 2.0],
                  [[1, 2, 3]], {"a": 1}, None, [INF, HUGE, 0]],
    "bbox": [[5, 0, 5, 5], [INF, 0, 1, 1], [0, 0, 1], ["0", 0, 1, 1], [0, 0, HUGE, 5],
             [NAN, 0, 1, 1], "box", [INF, HUGE, 5, 5]],
    "gt_class": [-1, 1.5, "1", True],
    "gt_track": [-1, 2.5, "1", False],
    "seq": [1, None, ["a"]],
}
BREAKS = [(field, value) for field, values in BAD_VALUES.items() for value in values]
BREAKS += [(field, KeyError) for field in ("seq", "frame", "bbox", "score", "probs")]
BAD_LINES = ["{broken", "[1, 2]", "\ufeff{}", '{"seq": "a"} 7', "[" * 3000 + "]" * 3000]


@st.composite
def good_records(draw):
    seq = draw(st.sampled_from(["a", "b"]))
    x, y = draw(st.floats(0, 100)), draw(st.integers(0, 100))
    probs = draw(st.lists(st.one_of(st.floats(0, 5), st.integers(0, 3), st.integers(2**52, 2**80)),
                          min_size=4, max_size=4))
    probs[draw(st.integers(0, 3))] = draw(st.floats(0.1, 5))
    record = {"seq": seq, "frame": draw(st.integers(0, 6)),
              "bbox": [x, y, x + draw(st.floats(0.5, 50)), y + draw(st.integers(1, 50))],
              "score": draw(st.floats(0, 1)), "probs": probs}
    if seq == "a":  # sequence "a" carries 3-d embeddings, "b" none
        record["embedding"] = draw(st.lists(st.floats(-3, 3), min_size=3, max_size=3))
    for key, top in (("gt_class", 3), ("gt_track", 5)):
        if draw(st.booleans()):
            record[key] = draw(st.integers(0, top))
    return record


@st.composite
def lines(draw):
    record = draw(good_records())
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
    got, want = _outcome(parse_detections, path), _outcome(reference_parse_detections, path)
    assert got == want
    return got


def _write(tmp, texts) -> Path:
    path = Path(tmp) / "d.jsonl"
    path.write_text("\n".join(texts) + "\n", encoding="utf-8")
    return path


def _good(index, **fields) -> str:
    record = {"seq": "a", "frame": index, "bbox": [0, 0, 5, 5], "score": 0.9,
              "probs": [0.1, 0.2, 0.3, 0.4], "embedding": [1.0, 0.0, 0.0]}
    return json.dumps({**record, **fields})


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(lines(), min_size=1, max_size=8))
    def test_same_detections_or_same_error(self, texts):
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
    ], ids=["probs-then-bbox", "bbox-then-probs", "probs-before-frame-on-a-line",
            "embedding-then-probs", "probs-then-embedding", "probs-before-embedding-on-a-line",
            "embedding-before-gt-on-a-line", "earlier-line-beats-overflow",
            "second-chunk", "last-line-of-a-chunk"])
    def test_first_failing_line_and_field(self, tmp_path, bad, line):
        texts = [_good(i, **bad.get(i + 1, {})) for i in range(max(bad) + 3)]
        got = _both(_write(tmp_path, texts))
        assert got[0] is ParseError and got[1].startswith(f"line {line}: ")

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


def test_every_line_is_read_inside_one_of_the_ingest_stages(tmp_path, monkeypatch):
    timer, seen = _OpenStage(), []

    def spy(name, function):
        def call(*args, **kwargs):
            seen.append((name, timer.open))
            return function(*args, **kwargs)
        monkeypatch.setattr(io, name, call)

    for name in ("parse_json", "score_value", "validate_distribution"):
        spy(name, getattr(io, name))
    n_lines = 2 * CHUNK_LINES + 5
    read_columns(_write(tmp_path, [_good(i) for i in range(n_lines)]), LABELS, timer)
    lines = [(name, STAGE_DETECTION_INGEST) for name in ("parse_json", "score_value")]
    chunk = [("validate_distribution", STAGE_CLASSIFICATION_INGEST)]
    assert seen == (lines * CHUNK_LINES + chunk) * 2 + lines * 5 + chunk
