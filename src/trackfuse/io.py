"""Wire formats: detections JSONL, label lists, and MOT-style track CSV.

Detections travel one JSON object per line with keys ``seq``, ``frame``,
``bbox`` ([x1, y1, x2, y2]), ``score``, ``probs``, and optional ``embedding``,
``gt_class``, ``gt_track``.  Floats are serialized at full precision (shortest
round-trip form), so writing and re-parsing reproduces values exactly.  Reading
checks each line's fields as it goes and the probability rows and embeddings of
a chunk of lines in one batch.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, TextIO, Tuple

import numpy as np

from .errors import EmptyFile, InvalidValue, ParseError, SchemaError, TrackfuseError
from .metrics import NULL_TIMER, STAGE_CLASSIFICATION_INGEST, STAGE_DETECTION_INGEST
from .model import BoundingBox, ClassDistribution, Detection, LabelSet, SequenceResult
from .model import embedding_value, index_value, score_value, unchecked, validate_distributions
from .model import validate_distribution  # noqa: F401  the one-row form, importable here as before

Sequences = Dict[str, List[Tuple[int, List[Detection]]]]

TRACK_CSV_HEADER = "frame,track_id,x,y,w,h,score,fused_class,raw_class,seq"


@contextmanager
def open_text(path) -> Iterator[TextIO]:
    """``path`` opened for reading as UTF-8; bytes that do not decode are InvalidValue."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise InvalidValue(f"{path} is not UTF-8 text: {exc.reason}") from None


_DECODER = json.JSONDecoder()


def parse_json(text: str, line_no: int = 1):
    """``text`` decoded as JSON; malformed or too deeply nested text is a ParseError."""
    try:
        try:  # json.loads without its wrapper layers, when ``text`` is exactly one value
            value, end = _DECODER.raw_decode(text)
            if end == len(text):
                return value
        except json.JSONDecodeError:
            pass
        return json.loads(text)  # a value with whitespace around it, or the error to report
    except json.JSONDecodeError as exc:
        raise ParseError(line_no + exc.lineno - 1, f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(line_no, "JSON is nested too deeply") from None


def read_labels(path) -> LabelSet:
    """One class name per line; order defines the class index."""
    with open_text(path) as fh:
        names = [line.strip() for line in fh if line.strip()]
    if not names:
        raise EmptyFile(f"label file {path} contains no class names")
    return LabelSet(names)


def write_labels(label_set: LabelSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name in label_set:
            fh.write(name + "\n")


def _detection_record(seq: str, det: Detection) -> dict:
    record = {
        "seq": seq,
        "frame": det.frame_id,
        "bbox": list(det.bbox.as_tuple()),
        "score": det.score,
        "probs": det.dist.probs.tolist(),
    }
    if det.embedding is not None:
        record["embedding"] = det.embedding.tolist()
    if det.gt_class is not None:
        record["gt_class"] = det.gt_class
    if det.gt_track is not None:
        record["gt_track"] = det.gt_track
    return record


def write_detections(sequences: Mapping[str, Sequence[Tuple[int, Sequence[Detection]]]],
                     path) -> None:
    """Write per-frame detection lists as JSONL, sequences and frames in order."""
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sorted(sequences):
            for frame_id, dets in sorted(sequences[seq], key=lambda fr: fr[0]):
                for det in dets:
                    fh.write(json.dumps(_detection_record(seq, det)) + "\n")


def read_records(path, timer=NULL_TIMER) -> Iterator[Tuple[int, dict]]:
    """Yield ``(line_no, record)`` for every non-blank line of a JSONL detection file.

    Decoding runs inside the detection-ingest stage of ``timer``.

    Raises:
        ParseError: a line is not valid JSON or not a JSON object.
        InvalidValue: the file is not UTF-8 text.
        EmptyFile: no records at all.
    """
    count = 0
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            count += 1
            with timer.stage(STAGE_DETECTION_INGEST):
                record = parse_json(text, line_no)
            if not isinstance(record, dict):
                raise ParseError(line_no, "record must be a JSON object")
            yield line_no, record
    if count == 0:
        raise EmptyFile(f"detection file {path} contains no records")


def parse_detections(path, label_set: LabelSet, timer=NULL_TIMER) -> Sequences:
    """Parse a detections file into per-sequence, frame-sorted detection lists.

    Each line's fields are checked as it is read, but its probabilities and
    embedding values wait to be checked with a chunk of lines, the
    probabilities as one array by ``validate_distributions``.  The error is
    still the first bad line's, and within it the first bad field's.
    Embedding presence and dimension must be consistent within a sequence.

    Raises:
        ParseError: malformed JSON or field values (message carries the line).
        SchemaError: wrong probs length or inconsistent embeddings.
        EmptyFile: no records at all.
    """
    n_classes = len(label_set)
    chunk = _Chunk(n_classes)
    grouped: Dict[str, Dict[int, List[Detection]]] = {}
    emb_dims: Dict[str, Optional[int]] = {}
    try:
        for line_no, record in read_records(path, timer):
            det, seq = _parse_line(record, line_no, chunk, timer)
            actual = None if record.get("embedding") is None else len(record["embedding"])
            expected = emb_dims.setdefault(seq, actual)
            if actual != expected:
                raise SchemaError(
                    f"line {line_no}: embedding dim {actual} differs from "
                    f"{expected} earlier in sequence {seq!r}"
                )
            grouped.setdefault(seq, {}).setdefault(det.frame_id, []).append(det)
            if len(chunk.dets) == CHUNK_LINES:
                chunk.flush(timer)
                chunk = _Chunk(n_classes)
    except (TrackfuseError, OSError):
        chunk.checked()  # a bad buffered value on this or an earlier line comes first
        raise
    chunk.flush(timer)
    del chunk  # its buffers go before the frame lists are built
    return {
        seq: [(frame, dets) for frame, dets in sorted(frames.items())]
        for seq, frames in grouped.items()
    }


CHUNK_LINES = 256
# Lines whose probs and embeddings are checked together: enough to amortise the
# numpy calls, few enough that the buffers and temporaries stay small.


class _Chunk:
    """Detections read since the last flush, their probs rows and embeddings not yet checked."""

    def __init__(self, n_classes: int):
        self.n_classes, self.dets, self.lines = n_classes, [], []
        self.probs = np.empty((CHUNK_LINES, n_classes))  # row i holds line lines[i]'s probs
        self.embs, self.emb_rows = [], []  # embeddings and the rows they belong to

    def checked(self) -> np.ndarray:
        """The probs rows validated; the first bad row, probs before embedding, is a ParseError."""
        bad = [] if not self.embs or np.isfinite(np.concatenate(self.embs)).all() else [
            (row, emb) for row, emb in zip(self.emb_rows, self.embs) if not np.isfinite(emb).all()]
        last = bad[0][0] if bad else len(self.lines) - 1
        try:
            probs = validate_distributions(self.probs[:last + 1], self.n_classes)
            for _, emb in bad[:1]:
                embedding_value(emb)  # raises that embedding's error
        except TrackfuseError as exc:
            raise ParseError(self.lines[getattr(exc, "row", last)], str(exc)) from None
        return probs

    def flush(self, timer=NULL_TIMER) -> None:
        """Give each detection its checked dist."""
        with timer.stage(STAGE_CLASSIFICATION_INGEST):
            probs, self.probs = self.checked().copy(), None  # the rows read, not the whole buffer
            probs.flags.writeable = False
            for emb in self.embs:
                emb.flags.writeable = False
            for det, row, label in zip(self.dets, probs, probs.argmax(axis=1).tolist()):
                dist = unchecked(ClassDistribution, probs=row, argmax=label)
                object.__setattr__(det, "dist", dist)


def sequence_name(record: dict, line_no: int) -> str:
    """The record's ``seq``; anything but a JSON string is a ParseError."""
    if not isinstance(record["seq"], str):
        raise ParseError(line_no, f"seq must be a string, got {record['seq']!r}")
    return record["seq"]


def _parse_line(record: dict, line_no: int, chunk: _Chunk,
                timer=NULL_TIMER) -> Tuple[Detection, str]:
    """One line's detection and sequence; its probs and embedding are left to ``chunk``."""
    with timer.stage(STAGE_DETECTION_INGEST):
        for key in ("seq", "frame", "bbox", "score", "probs"):
            if key not in record:
                raise ParseError(line_no, f"missing field {key!r}")
        bbox_values = record["bbox"]
        if not isinstance(bbox_values, list) or len(bbox_values) != 4:
            raise ParseError(line_no, f"bbox must be [x1, y1, x2, y2], got {bbox_values!r}")
        _require_numbers(bbox_values, "bbox", line_no)
        try:
            bbox = BoundingBox(*bbox_values)
        except (TrackfuseError, OverflowError) as exc:
            raise ParseError(line_no, str(exc)) from None

    probs = record["probs"]
    if not isinstance(probs, list) or len(probs) != chunk.n_classes:
        raise SchemaError(
            f"line {line_no}: probs has {len(probs) if isinstance(probs, list) else 'no'} "
            f"entries, label set has {chunk.n_classes}"
        )
    _require_numbers(probs, "probs", line_no)
    _require_numbers([record["score"]], "score", line_no)
    emb = record.get("embedding")
    if isinstance(emb, list):
        _require_numbers(emb, "embedding", line_no)
    try:
        chunk.probs[len(chunk.lines)] = probs
        chunk.lines.append(line_no)
        frame_id, score = index_value(record["frame"]), score_value(record["score"])
        if isinstance(emb, list) and emb:  # its values are checked with the chunk
            emb = np.array(emb, dtype=float)
            chunk.embs.append(emb)
            chunk.emb_rows.append(len(chunk.lines) - 1)
        elif emb is not None:
            embedding_value(emb)  # raises: only a non-empty list can be a vector
        gt_class, gt_track = record.get("gt_class"), record.get("gt_track")
        det = unchecked(Detection, frame_id=frame_id, bbox=bbox, score=score, dist=None,
                        embedding=emb,
                        gt_class=None if gt_class is None else index_value(gt_class, "gt_class"),
                        gt_track=None if gt_track is None else index_value(gt_track, "gt_track"))
    except TrackfuseError as exc:
        raise ParseError(line_no, str(exc)) from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(line_no, f"bad field value: {exc}") from None
    chunk.dets.append(det)
    return det, sequence_name(record, line_no)


_NUMBER_TYPES = frozenset((int, float))


def _require_numbers(values: list, name: str, line_no: int) -> None:
    """ParseError unless every entry of ``values`` is a JSON number; booleans are not."""
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        raise ParseError(line_no, f"{name} must hold real numbers, got {values!r}")


@dataclass(frozen=True)
class TrackRow:
    """One line of the track CSV (MOTChallenge layout plus class columns)."""

    frame: int
    track_id: int
    x: float
    y: float
    w: float
    h: float
    score: float
    fused_class: int
    raw_class: int
    seq: str


def write_tracks(results: Mapping[str, SequenceResult], path) -> None:
    """Write matched detections as CSV, ordered by (seq, frame, track_id)."""
    rows = []
    for seq in sorted(results):
        for rec in results[seq].per_frame:
            if rec.track_id is not None:
                b = rec.detection.bbox
                rows.append((seq, rec.frame_id, rec.track_id, b.x1, b.y1, b.width, b.height,
                             rec.detection.score, rec.fused_label, rec.raw_label))
    rows.sort(key=lambda r: r[:3])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        plain = csv.writer(fh, lineterminator="\n")
        # The writer quotes only what holds a delimiter, quote or "\n"; a bare
        # "\r" would end the row on reading, so such rows are quoted whole.
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        plain.writerow(TRACK_CSV_HEADER.split(","))
        for seq, *fields in rows:
            # str() of a float is its shortest round-trip form.
            (quoted if "\r" in seq else plain).writerow((*fields, seq))


def read_tracks(path) -> List[TrackRow]:
    """Parse a track CSV back into rows; numeric fields and ``seq`` round-trip exactly."""
    rows: List[TrackRow] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != TRACK_CSV_HEADER.split(","):
            raise SchemaError(f"unexpected track CSV header: {','.join(header)!r}")
        for parts in reader:
            if not parts:
                continue
            if len(parts) != 10:
                raise ParseError(reader.line_num, f"expected 10 columns, got {len(parts)}")
            try:
                rows.append(TrackRow(
                    frame=int(parts[0]), track_id=int(parts[1]),
                    x=float(parts[2]), y=float(parts[3]),
                    w=float(parts[4]), h=float(parts[5]),
                    score=float(parts[6]),
                    fused_class=int(parts[7]), raw_class=int(parts[8]),
                    seq=parts[9],
                ))
            except ValueError as exc:
                raise ParseError(reader.line_num, f"bad field value: {exc}") from None
    return rows
