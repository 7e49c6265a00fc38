"""Wire formats: detections JSONL, label lists, and MOT-style track CSV.

Detections travel one JSON object per line with keys ``seq``, ``frame``,
``bbox`` ([x1, y1, x2, y2]), ``score``, ``probs``, and optional ``embedding``,
``gt_class``, ``gt_track``.  Floats are serialized at full precision (shortest
round-trip form), so writing and re-parsing reproduces values exactly.

:func:`read_columns` fills one :class:`~trackfuse.model.Columns` record for a
whole file from 256-line chunks.  Each chunk is checked and converted one field
at a time, with one type scan and one numpy conversion per field, and its
probability rows are validated in one batch.  A chunk that fails a field check
is checked again line by line, each line's fields in turn, to name the first
bad line and field.  The record lays its sequences out in name order, whatever
the order of the file's lines.
:func:`write_tracks` writes the track CSV of a file's
:class:`~trackfuse.model.ColumnResult` in one pass over its rows.
:func:`write_detections` writes per-frame :class:`DetectionRow` lists, which
``synth.Scenario.detection_frames`` builds from columns for the ``synth``
command and the benchmark's inputs; nothing reads rows back into that form.
An alias of :func:`read_columns` is kept only as a target of the benchmark's
trace.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from io import StringIO
from itertools import chain, islice
from typing import (Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, TextIO,
                    Tuple)

import numpy as np

from .errors import EmptyFile, InvalidValue, ParseError, SchemaError, TrackfuseError
from .metrics import NULL_TIMER, STAGE_CLASSIFICATION_INGEST, STAGE_DETECTION_INGEST
from .model import ColumnResult, Columns, LabelSet, check_corners, embedding_value, index_column
from .model import index_value, score_value, validate_distribution

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


class DetectionRow(NamedTuple):
    """One detection as :func:`write_detections` writes it; ids are None where absent."""

    frame_id: int
    bbox: Tuple[float, float, float, float]
    score: float
    probs: np.ndarray
    embedding: Optional[np.ndarray]
    gt_class: Optional[int]
    gt_track: Optional[int]


def _detection_record(seq: str, det: DetectionRow) -> dict:
    record = {
        "seq": seq,
        "frame": det.frame_id,
        "bbox": list(det.bbox),
        "score": det.score,
        "probs": det.probs.tolist(),
    }
    if det.embedding is not None:
        record["embedding"] = det.embedding.tolist()
    if det.gt_class is not None:
        record["gt_class"] = det.gt_class
    if det.gt_track is not None:
        record["gt_track"] = det.gt_track
    return record


def write_detections(sequences: Mapping[str, Sequence[Tuple[int, Sequence[DetectionRow]]]],
                     path) -> None:
    """Write per-frame detection lists as JSONL, sequences and frames in order."""
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sorted(sequences):
            for frame_id, dets in sorted(sequences[seq], key=lambda fr: fr[0]):
                for det in dets:
                    fh.write(json.dumps(_detection_record(seq, det)) + "\n")


def read_records(path) -> Iterator[Tuple[int, dict]]:
    """Yield ``(line_no, record)`` for every non-blank line of a JSONL detection file.

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
            record = parse_json(text, line_no)
            if not isinstance(record, dict):
                raise ParseError(line_no, "record must be a JSON object")
            yield line_no, record
    if count == 0:
        raise EmptyFile(f"detection file {path} contains no records")


def read_columns(path, label_set: LabelSet, timer=NULL_TIMER) -> Columns:
    """The :class:`Columns` record of a detections file, its sequences in name order.

    The error is the first bad line's, and within it the first bad field's,
    although lines are read and checked a chunk at a time.  Embedding presence
    and dimension must be consistent within a sequence.

    Raises:
        ParseError: malformed JSON or field values (message carries the line).
        SchemaError: wrong probs length or inconsistent embeddings.
        EmptyFile: no records at all.
    """
    n_classes, pieces, records = len(label_set), [], read_records(path)
    seq_ids: Dict[str, int] = {}
    emb_dims: Dict[str, Optional[int]] = {}
    while not pieces or len(pieces[-1]["seq"]) == CHUNK_LINES:  # until a chunk is short
        with timer.stage(STAGE_DETECTION_INGEST):  # decoding and the field checks
            # Only the fields are kept, so no decoded record outlives its line.
            line_nos, fields = [], []
            try:
                for line_no, record in islice(records, CHUNK_LINES):
                    line_nos.append(line_no)
                    fields.extend(map(record.get, _FIELDS, _FIELD_DEFAULTS))
            except (TrackfuseError, OSError):  # the lines before the bad one come first
                _checked_lines(fields, line_nos, n_classes, emb_dims)
                raise
            columns = _columns(fields, n_classes, seq_ids, emb_dims)
            if columns is None:  # raises at the first bad line, or gives integral-float ids as ints
                columns = _columns(_checked_lines(fields, line_nos, n_classes, emb_dims),
                                   n_classes, seq_ids, emb_dims)
            del fields
        with timer.stage(STAGE_CLASSIFICATION_INGEST):
            try:
                columns["probs"] = validate_distribution(columns["probs"], n_classes)
            except TrackfuseError as exc:
                raise ParseError(line_nos[exc.row], str(exc)) from None
        pieces.append(columns)
    del columns  # the last chunk's arrays go with the others in _sequences
    with timer.stage(STAGE_DETECTION_INGEST):
        return _sequences(pieces, seq_ids, emb_dims)


def _sequences(pieces: List[Dict[str, np.ndarray]], seq_ids: Dict[str, int],
               emb_dims: Dict[str, Optional[int]]) -> Columns:
    """The chunks' rows as one record, sorted by (sequence name, frame)."""
    offset = 0
    for piece in pieces:  # embedding offsets into the whole file's values
        piece["emb_at"][piece["emb_at"] >= 0] += offset
        offset += len(piece["emb"])
    whole = {name: np.concatenate([piece[name] for piece in pieces]) for name in pieces[0]}
    pieces.clear()  # the chunks' buffers go before the record is built
    emb = whole.pop("emb")
    names = tuple(sorted(seq_ids))
    whole["seq"] = np.argsort([seq_ids[name] for name in names])[whole["seq"]]  # name ranks
    order = np.lexsort((whole["frame"], whole["seq"]))  # stable: file order within a frame
    table = {name: whole.pop(name)[order] for name in list(whole)}  # by (sequence, frame)
    frame, seq = table["frame"], table.pop("seq")
    starts = np.flatnonzero((np.diff(frame, prepend=-1, append=-1) != 0)
                            | (np.diff(seq, prepend=-1, append=-1) != 0))
    bounds = np.cumsum([0] + np.bincount(seq, minlength=len(names)).tolist())
    emb_at, embs = table.pop("emb_at"), []
    for name, lo, hi in zip(names, bounds.tolist(), bounds[1:].tolist()):  # one gather each
        dim = emb_dims[name]
        embs.append(None if dim is None else emb[emb_at[lo:hi, None] + np.arange(dim)])
    for column in (table["probs"], *embs):
        if column is not None:
            column.setflags(write=False)
    return Columns(**table, emb=tuple(embs), frame_ids=frame[starts[:-1]], starts=starts,
                   names=names, bounds=bounds)


parse_detections = read_columns  # the benchmark's trace target until ROADMAP item 7


CHUNK_LINES = 256
# Lines whose fields are checked and converted together: enough to amortise the
# numpy calls, few enough that the decoded fields and temporaries stay small.


def sequence_name(value, line_no: int) -> str:
    """A record's ``seq`` value; anything but a JSON string is a ParseError."""
    if not isinstance(value, str):
        raise ParseError(line_no, f"seq must be a string, got {value!r}")
    return value


_NUMBER_TYPES = frozenset((int, float))


def _require_numbers(values: list, name: str, line_no: int) -> None:
    """ParseError unless every entry of ``values`` is a JSON number (booleans are not)."""
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        raise ParseError(line_no, f"{name} must hold real numbers, got {values!r}")


_REQUIRED = ("seq", "frame", "bbox", "score", "probs")  # checked in this order
_STR, _INT, _LIST, _NONE = (frozenset((kind,)) for kind in (str, int, list, type(None)))
_INT_OR_NONE, _LIST_OR_NONE = _INT | _NONE, _LIST | _NONE
_FIELDS = (*_REQUIRED, "embedding", "gt_class", "gt_track")
_ABSENT = object()  # a missing required field; a missing optional one reads None
_FIELD_DEFAULTS = (_ABSENT,) * len(_REQUIRED) + (None,) * (len(_FIELDS) - len(_REQUIRED))


def _columns(fields: List, n_classes: int, seq_ids: Dict[str, int],
             emb_dims: Dict[str, Optional[int]]) -> Optional[Dict[str, np.ndarray]]:
    """The rows whose ``_FIELDS`` are ``fields`` as columns, probs not yet validated; None,
    with nothing recorded, unless every field passes its check.

    Ids must be JSON integers; ids past int64 keep Python ints.  ``emb`` holds
    the rows' embedding values one after another, and ``emb_at`` each row's
    first value in it, or -1 for a row without one.
    """
    seqs, frames, boxes, scores, probs, embs, gt_class, gt_track = (
        fields[at::len(_FIELDS)] for at in range(len(_FIELDS)))
    if not (_STR.issuperset(map(type, seqs)) and _INT.issuperset(map(type, frames))
            and _NUMBER_TYPES.issuperset(map(type, scores))
            and _INT_OR_NONE.issuperset(map(type, gt_class))
            and _INT_OR_NONE.issuperset(map(type, gt_track))
            and _LIST_OR_NONE.issuperset(map(type, embs))
            and all(_LIST.issuperset(map(type, values)) and {size}.issuperset(map(len, values))
                    and _NUMBER_TYPES.issuperset(map(type, chain.from_iterable(values)))
                    for values, size in ((boxes, 4), (probs, n_classes)))):
        return None
    emb_rows = [emb for emb in embs if emb is not None]
    sizes = set(map(len, emb_rows))
    if 0 in sizes or not _NUMBER_TYPES.issuperset(map(type, chain.from_iterable(emb_rows))):
        return None
    if len(emb_rows) in (0, len(embs)) and len(sizes) <= 1:  # one size on every row, or none
        dim = next(iter(sizes), None)
        dims = dict.fromkeys(seqs, dim)
        emb_at = np.arange(len(embs)) * dim if emb_rows else np.full(len(embs), -1)
    else:  # sizes and presence need only agree within each sequence
        dims, emb_at, at = {}, [], 0
        for seq, emb in zip(seqs, embs):
            dim = None if emb is None else len(emb)
            if dims.setdefault(seq, dim) != dim:
                return None
            emb_at.append(-1 if emb is None else at)
            at += dim or 0
        emb_at = np.array(emb_at, dtype=np.int64)
    try:  # an int past the float range overflows here, as float() does
        box, prob, emb, score = (np.fromiter(values, dtype=float) for values in (
            chain.from_iterable(boxes), chain.from_iterable(probs), chain.from_iterable(emb_rows),
            scores))
    except OverflowError:
        return None
    box, prob = box.reshape(-1, 4), prob.reshape(-1, n_classes)
    frame, gt_class_col, gt_track_col = (index_column(ids) for ids in (
        frames, *([-1 if v is None else v for v in ids] for ids in (gt_class, gt_track))))
    if not ((frame >= 0).all() and ((0.0 <= score) & (score <= 1.0)).all()
            and np.isfinite(box).all() and (box[:, :2] < box[:, 2:]).all()
            and np.isfinite(emb).all()
            and (gt_class_col < 0).sum() == gt_class.count(None)
            and (gt_track_col < 0).sum() == gt_track.count(None)
            and all(emb_dims.get(seq, dim) == dim for seq, dim in dims.items())):
        return None
    for seq, dim in dims.items():
        emb_dims[seq] = dim
        seq_ids.setdefault(seq, len(seq_ids))
    return {"seq": np.array(list(map(seq_ids.__getitem__, seqs)), dtype=np.int64),
            "frame": frame, "box": box, "score": score, "probs": prob,
            "gt_class": gt_class_col, "gt_track": gt_track_col, "emb": emb,
            "emb_at": emb_at}


def _checked_lines(fields: List, line_nos: List[int], n_classes: int,
                   emb_dims: Dict[str, Optional[int]]) -> List:
    """``fields`` with their ids as ints, once every line passes the line-by-line checks.

    Each line's fields are checked in turn, in the order of the reference
    parser in ``tests/oracles.py``; the first line that fails raises
    ParseError or SchemaError, naming it and its first bad field.  Nothing is
    recorded in ``emb_dims``.
    """
    emb_dims, checked = dict(emb_dims), []
    for line_no, at in zip(line_nos, range(0, len(fields), len(_FIELDS))):
        record = fields[at:at + len(_FIELDS)]
        for key, value in zip(_REQUIRED, record):
            if value is _ABSENT:
                raise ParseError(line_no, f"missing field {key!r}")
        seq, frame, bbox, score, probs, emb, gt_class, gt_track = record
        if not isinstance(bbox, list) or len(bbox) != 4:
            raise ParseError(line_no, f"bbox must be [x1, y1, x2, y2], got {bbox!r}")
        _require_numbers(bbox, "bbox", line_no)
        try:
            check_corners(*bbox)
        except (TrackfuseError, OverflowError) as exc:
            raise ParseError(line_no, str(exc)) from None
        if not isinstance(probs, list) or len(probs) != n_classes:
            raise SchemaError(
                f"line {line_no}: probs has {len(probs) if isinstance(probs, list) else 'no'} "
                f"entries, label set has {n_classes}"
            )
        _require_numbers(probs, "probs", line_no)
        _require_numbers([score], "score", line_no)
        if isinstance(emb, list):
            _require_numbers(emb, "embedding", line_no)
        try:
            validate_distribution([probs], n_classes)
            frame = index_value(frame)
            score_value(score)
            if emb is not None:
                embedding_value(emb)
            gt_class, gt_track = (None if value is None else index_value(value, name) for
                                  value, name in ((gt_class, "gt_class"), (gt_track, "gt_track")))
        except TrackfuseError as exc:
            raise ParseError(line_no, str(exc)) from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(line_no, f"bad field value: {exc}") from None
        sequence_name(seq, line_no)
        dim = None if emb is None else len(emb)
        if emb_dims.setdefault(seq, dim) != dim:
            raise SchemaError(f"line {line_no}: embedding dim {dim} differs "
                              f"from {emb_dims[seq]} earlier in sequence {seq!r}")
        checked += (seq, frame, bbox, score, probs, emb, gt_class, gt_track)
    return checked


class TrackRow(NamedTuple):
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


def write_tracks(result: ColumnResult, path) -> None:
    """Write every row with a track as CSV, ordered by (seq, frame, track_id)."""
    rows = np.flatnonzero(result.track >= 0)
    seq = np.searchsorted(result.cols.bounds, rows, side="right") - 1  # ascending, as rows are
    rows = rows[np.lexsort((result.track[rows], result.cols.frame[rows], seq))]
    formats = [_row_format(name) for name in result.cols.names]
    # A width or height past the float range is written as inf, without a numpy warning.
    with open(path, "w", encoding="utf-8", newline="") as fh, np.errstate(over="ignore"):
        fh.write(TRACK_CSV_HEADER + "\n")
        for lo in range(0, len(rows), CHUNK_LINES):  # a chunk's Python numbers at a time
            at, box = rows[lo:lo + CHUNK_LINES], result.cols.box[rows[lo:lo + CHUNK_LINES]]
            # tolist() gives Python numbers, and %r of a float is its shortest round-trip form.
            fh.writelines(map(str.__mod__, map(formats.__getitem__, seq[lo:lo + CHUNK_LINES]
                                                .tolist()), zip(
                result.cols.frame[at].tolist(), result.track[at].tolist(), box[:, 0].tolist(),
                box[:, 1].tolist(), (box[:, 2] - box[:, 0]).tolist(),
                (box[:, 3] - box[:, 1]).tolist(), result.cols.score[at].tolist(),
                result.fused[at].tolist(), result.raw[at].tolist())))


def _row_format(seq: str) -> str:
    """The %-format of a CSV row of ``seq``: nine %r fields, then ``seq`` as csv quotes it.
    csv quotes only what holds a delimiter, quote or "\n"; a bare "\r" would end the
    row on reading, so such rows are quoted whole."""
    buf = StringIO()
    quoting = csv.QUOTE_ALL if "\r" in seq else csv.QUOTE_MINIMAL
    csv.writer(buf, lineterminator="\n", quoting=quoting).writerow(
        ["%r"] * 9 + [seq.replace("%", "%%")])
    return buf.getvalue()


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
