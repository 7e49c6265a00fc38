"""Wire formats: detections JSONL, label lists, and MOT-style track CSV.

Detections travel one JSON object per line with keys ``seq``, ``frame``,
``bbox`` ([x1, y1, x2, y2]), ``score``, ``probs``, and optional ``embedding``,
``gt_class``, ``gt_track``.  Floats are serialized at full precision (shortest
round-trip form), so writing and re-parsing reproduces values exactly.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, TextIO, Tuple

from .errors import EmptyFile, InvalidValue, ParseError, SchemaError, TrackfuseError
from .metrics import NULL_TIMER, STAGE_CLASSIFICATION_INGEST, STAGE_DETECTION_INGEST
from .model import BoundingBox, Detection, LabelSet, SequenceResult, validate_distribution

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


def parse_json(text: str, line_no: int = 1):
    """``text`` decoded as JSON; malformed or too deeply nested text is a ParseError."""
    try:
        return json.loads(text)
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

    Every probability vector goes through ``validate_distribution``; embedding
    presence and dimension must be consistent within a sequence.

    Raises:
        ParseError: malformed JSON or field values (message carries the line).
        SchemaError: wrong probs length or inconsistent embeddings.
        EmptyFile: no records at all.
    """
    n_classes = len(label_set)
    grouped: Dict[str, Dict[int, List[Detection]]] = {}
    emb_dims: Dict[str, Optional[int]] = {}
    for line_no, record in read_records(path, timer):
        det, seq = _parse_line(record, line_no, n_classes, timer)
        actual = None if det.embedding is None else det.embedding.size
        expected = emb_dims.setdefault(seq, actual)
        if actual != expected:
            raise SchemaError(
                f"line {line_no}: embedding dim {actual} differs from "
                f"{expected} earlier in sequence {seq!r}"
            )
        grouped.setdefault(seq, {}).setdefault(det.frame_id, []).append(det)
    return {
        seq: [(frame, dets) for frame, dets in sorted(frames.items())]
        for seq, frames in grouped.items()
    }


def sequence_name(record: dict, line_no: int) -> str:
    """The record's ``seq``; anything but a JSON string is a ParseError."""
    if not isinstance(record["seq"], str):
        raise ParseError(line_no, f"seq must be a string, got {record['seq']!r}")
    return record["seq"]


def _parse_line(record: dict, line_no: int, n_classes: int,
                timer=NULL_TIMER) -> Tuple[Detection, str]:
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
    if not isinstance(probs, list) or len(probs) != n_classes:
        raise SchemaError(
            f"line {line_no}: probs has {len(probs) if isinstance(probs, list) else 'no'} "
            f"entries, label set has {n_classes}"
        )
    _require_numbers(probs, "probs", line_no)
    _require_numbers([record["score"]], "score", line_no)
    if isinstance(record.get("embedding"), list):
        _require_numbers(record["embedding"], "embedding", line_no)
    try:
        with timer.stage(STAGE_CLASSIFICATION_INGEST):
            dist = validate_distribution(probs, n_classes)
        det = Detection(
            frame_id=record["frame"],
            bbox=bbox,
            score=record["score"],
            dist=dist,
            embedding=record.get("embedding"),
            gt_class=record.get("gt_class"),
            gt_track=record.get("gt_track"),
        )
    except TrackfuseError as exc:
        raise ParseError(line_no, str(exc)) from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(line_no, f"bad field value: {exc}") from None
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
    rows: List[TrackRow] = []
    for seq in sorted(results):
        for rec in results[seq].per_frame:
            if rec.track_id is None:
                continue
            b = rec.detection.bbox
            rows.append(TrackRow(
                frame=rec.frame_id, track_id=rec.track_id,
                x=b.x1, y=b.y1, w=b.width, h=b.height,
                score=rec.detection.score,
                fused_class=rec.fused_label, raw_class=rec.raw_label,
                seq=seq,
            ))
    rows.sort(key=lambda r: (r.seq, r.frame, r.track_id))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        plain = csv.writer(fh, lineterminator="\n")
        # The writer quotes only what holds a delimiter, quote or "\n"; a bare
        # "\r" would end the row on reading, so such rows are quoted whole.
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        plain.writerow(TRACK_CSV_HEADER.split(","))
        for r in rows:
            # str() of a float is its shortest round-trip form.
            (quoted if "\r" in r.seq else plain).writerow((
                r.frame, r.track_id, r.x, r.y, r.w, r.h,
                r.score, r.fused_class, r.raw_class, r.seq,
            ))


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
