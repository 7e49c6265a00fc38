"""Wire formats: detections JSONL, label lists, and MOT-style track CSV.

Detections travel one JSON object per line with keys ``seq``, ``frame``,
``bbox`` ([x1, y1, x2, y2]), ``score``, ``probs``, and optional ``embedding``,
``gt_class``, ``gt_track``.  Floats are serialized at full precision (shortest
round-trip form), so writing and re-parsing reproduces values exactly.

:func:`read_columns` fills one :class:`~trackfuse.model.Columns` record per
sequence from 256-line chunks.  Each chunk is checked and converted one field
at a time, with one type scan and one numpy conversion per field.  A chunk
that fails any of these column checks is read again by the line path, which
checks each line's fields in turn and so names the first bad line and field;
either way a chunk's probability rows are validated in one batch.
:func:`write_tracks` writes the track CSV of a file's
:class:`~trackfuse.model.ColumnResult` in one pass over its rows.
:func:`parse_detections` gives the sequences as Detection lists, the input
form of ``trackers.run_sequence``.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass
from io import StringIO
from itertools import chain, islice
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, TextIO, Tuple

import numpy as np

from .errors import EmptyFile, InvalidValue, ParseError, SchemaError, TrackfuseError
from .metrics import NULL_TIMER, STAGE_CLASSIFICATION_INGEST, STAGE_DETECTION_INGEST
from .model import BoundingBox, ColumnResult, Columns, Detection, LabelSet
from .model import embedding_value, index_column, index_value, score_value, validate_distribution

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


def read_columns(path, label_set: LabelSet, timer=NULL_TIMER) -> Dict[str, Columns]:
    """One :class:`Columns` record per sequence of a detections file, in order of appearance.

    The error is the first bad line's, and within it the first bad field's,
    although lines are read and checked a chunk at a time.  Embedding presence
    and dimension must be consistent within a sequence.

    Raises:
        ParseError: malformed JSON or field values (message carries the line).
        SchemaError: wrong probs length or inconsistent embeddings.
        EmptyFile: no records at all.
    """
    chunk, pieces, records = _Chunk(len(label_set)), [], read_records(path)
    seq_ids: Dict[str, int] = {}
    emb_dims: Dict[str, Optional[int]] = {}
    try:
        while not pieces or len(pieces[-1]["seq"]) == CHUNK_LINES:  # until a chunk is short
            with timer.stage(STAGE_DETECTION_INGEST):  # decoding and the field checks
                # Only the fields are kept, so no decoded record outlives its line.
                line_nos, fields = [], []
                try:
                    for line_no, record in islice(records, CHUNK_LINES):
                        line_nos.append(line_no)
                        fields.extend(map(record.get, _FIELDS, _FIELD_DEFAULTS))
                except (TrackfuseError, OSError):  # the lines before the bad one come first
                    chunk.parse(zip(line_nos, _records(fields)), seq_ids, emb_dims)
                    raise
                columns = _columns(fields, chunk.n_classes, seq_ids, emb_dims)
                if columns is None:  # the line path names the first bad line and field
                    chunk.parse(zip(line_nos, _records(fields)), seq_ids, emb_dims)
                del fields
            pieces.append(chunk.flush(timer) if columns is None else
                          _validated(columns, line_nos, chunk.n_classes, timer))
            chunk = _Chunk(chunk.n_classes)
    except (TrackfuseError, OSError):
        chunk.checked()  # a bad buffered value on this or an earlier line comes first
        raise
    del chunk, columns  # the last chunk's buffers go with the others in _sequences
    with timer.stage(STAGE_DETECTION_INGEST):
        return _sequences(pieces, seq_ids, emb_dims)


def _sequences(pieces: List[Dict[str, np.ndarray]], seq_ids: Dict[str, int],
               emb_dims: Dict[str, Optional[int]]) -> Dict[str, Columns]:
    """The chunks' rows as one record per sequence, each owning copies of its columns' rows."""
    offset = 0
    for piece in pieces:  # embedding offsets into the whole file's values
        piece["emb_at"][piece["emb_at"] >= 0] += offset
        offset += len(piece["emb"])
    whole = {name: np.concatenate([piece[name] for piece in pieces]) for name in pieces[0]}
    pieces.clear()  # the chunks' buffers go before the records are built
    emb = whole.pop("emb")
    order = np.lexsort((whole["frame"], whole["seq"]))  # stable: file order within a frame
    table = {name: whole.pop(name)[order] for name in list(whole)}  # by (sequence, frame)
    frame = table["frame"]
    starts = np.flatnonzero((np.diff(frame, prepend=-1, append=-1) != 0)
                            | (np.diff(table["seq"], prepend=-1, append=-1) != 0))
    frame_ids = frame[starts[:-1]]
    bounds = np.cumsum([0] + np.bincount(table["seq"], minlength=len(seq_ids)).tolist())
    firsts = np.searchsorted(starts, bounds).tolist()  # each sequence's first frame
    out = {}
    for seq, lo, hi, first, end in zip(seq_ids, bounds.tolist(), bounds[1:].tolist(),
                                       firsts, firsts[1:]):
        col = {name: table[name][lo:hi].copy() for name in (
            "frame", "box", "score", "probs", "gt_class", "gt_track")}
        col["emb"] = None if emb_dims[seq] is None else emb[
            table["emb_at"][lo:hi, None] + np.arange(emb_dims[seq])]
        for name in ("probs", "emb"):
            if col[name] is not None:
                col[name].setflags(write=False)
        out[seq] = Columns(**col, frame_ids=frame_ids[first:end].copy(),
                           starts=starts[first:end + 1] - lo)
    return out


def parse_detections(path, label_set: LabelSet,
                     timer=NULL_TIMER) -> Dict[str, List[Tuple[int, List[Detection]]]]:
    """:func:`read_columns` as per-sequence, frame-sorted Detection lists, with its errors.

    Each Detection's probs and embedding are read-only views of its row.
    """
    sequences = read_columns(path, label_set, timer)
    # Each record goes once its objects are built: they keep only its probs and embeddings.
    return {seq: sequences.pop(seq).frames() for seq in list(sequences)}


CHUNK_LINES = 256
# Lines whose probs and embeddings are checked together: enough to amortise the
# numpy calls, few enough that the buffers and temporaries stay small.


class _Chunk:
    """Rows read since the last flush, their probs and embedding values not yet checked.

    ``probs`` and ``embs`` hold the values one line after another; line
    ``lines[emb_rows[k]]``'s embedding ends at ``emb_ends[k]``.
    """

    def __init__(self, n_classes: int):
        self.n_classes, self.lines = n_classes, []
        self.seq, self.frame, self.box, self.score, self.gt_class, self.gt_track, self.emb_at = (
            [], [], [], [], [], [], [])  # one entry per row, four corners per row in box
        self.probs: List[float] = []
        self.embs: List[float] = []
        self.emb_rows: List[int] = []
        self.emb_ends: List[int] = []

    def parse(self, lines: Iterable[Tuple[int, dict]], seq_ids: Dict[str, int],
              emb_dims: Dict[str, Optional[int]]) -> None:
        """Buffer ``lines`` one at a time, naming the first bad line and field."""
        for line_no, record in lines:
            seq, emb_dim = _parse_line(record, line_no, self)
            if emb_dims.setdefault(seq, emb_dim) != emb_dim:
                raise SchemaError(f"line {line_no}: embedding dim {emb_dim} differs "
                                  f"from {emb_dims[seq]} earlier in sequence {seq!r}")
            self.seq.append(seq_ids.setdefault(seq, len(seq_ids)))

    def checked(self) -> Tuple[np.ndarray, np.ndarray]:
        """The probs rows validated and the embedding values; the first bad row is a ParseError."""
        embs = np.array(self.embs, dtype=float)
        finite = np.isfinite(embs)
        bad = [] if finite.all() else [
            int(np.searchsorted(self.emb_ends, np.argmin(finite), side="right"))]
        last = self.emb_rows[bad[0]] if bad else len(self.lines) - 1
        try:
            probs = np.array(self.probs[:(last + 1) * self.n_classes], dtype=float)
            probs = validate_distribution(probs.reshape(-1, self.n_classes), self.n_classes)
            for k in bad:  # probs of its row come first
                embedding_value(embs[self.emb_ends[k - 1] if k else 0:self.emb_ends[k]])
        except TrackfuseError as exc:
            raise ParseError(self.lines[getattr(exc, "row", last)], str(exc)) from None
        return probs, embs

    def flush(self, timer=NULL_TIMER) -> Dict[str, np.ndarray]:
        """The chunk's rows as columns; ``emb_at`` is each row's first embedding value, or -1."""
        with timer.stage(STAGE_CLASSIFICATION_INGEST):
            probs, embs = self.checked()
            return {"seq": np.array(self.seq, dtype=np.int64), "frame": index_column(self.frame),
                    "box": np.array(self.box, dtype=float).reshape(-1, 4),
                    "score": np.array(self.score, dtype=float), "probs": probs,
                    "gt_class": index_column(self.gt_class),
                    "gt_track": index_column(self.gt_track), "emb": embs,
                    "emb_at": np.array(self.emb_at, dtype=np.int64)}


def sequence_name(record: dict, line_no: int) -> str:
    """The record's ``seq``; anything but a JSON string is a ParseError."""
    if not isinstance(record["seq"], str):
        raise ParseError(line_no, f"seq must be a string, got {record['seq']!r}")
    return record["seq"]


def _box(values: list, line_no: int) -> list:
    """The corners as floats; a box that BoundingBox rejects is a ParseError with its message."""
    try:
        x1, y1, x2, y2 = box = [float(v) for v in values]
        if -_INF < x1 < x2 < _INF and -_INF < y1 < y2 < _INF:
            return box
    except OverflowError:
        pass
    try:  # BoundingBox names the first bad corner as it checks them
        return list(BoundingBox(*values).as_tuple())
    except (TrackfuseError, OverflowError) as exc:
        raise ParseError(line_no, str(exc)) from None


_INF = float("inf")
_REQUIRED = ("seq", "frame", "bbox", "score", "probs")  # checked in this order
_REQUIRED_SET = frozenset(_REQUIRED)


def _parse_line(record: dict, line_no: int, chunk: _Chunk) -> Tuple[str, Optional[int]]:
    """Buffer one line in ``chunk``, its probs and embedding values unchecked.

    Returns the line's sequence and embedding dimension.
    """
    if not record.keys() >= _REQUIRED_SET:
        missing = next(key for key in _REQUIRED if key not in record)
        raise ParseError(line_no, f"missing field {missing!r}")
    bbox_values = record["bbox"]
    if not isinstance(bbox_values, list) or len(bbox_values) != 4:
        raise ParseError(line_no, f"bbox must be [x1, y1, x2, y2], got {bbox_values!r}")
    _require_numbers(bbox_values, "bbox", line_no)
    box = _box(bbox_values, line_no)
    probs = record["probs"]
    if not isinstance(probs, list) or len(probs) != chunk.n_classes:
        raise SchemaError(
            f"line {line_no}: probs has {len(probs) if isinstance(probs, list) else 'no'} "
            f"entries, label set has {chunk.n_classes}"
        )
    probs_are_floats = _require_numbers(probs, "probs", line_no)
    if type(record["score"]) not in _NUMBER_TYPES:
        _require_numbers([record["score"]], "score", line_no)
    emb = record.get("embedding")
    emb_are_floats = isinstance(emb, list) and _require_numbers(emb, "embedding", line_no)
    try:
        # float() of an int beyond the float range raises here, as numpy's conversion would.
        chunk.probs.extend(probs if probs_are_floats else [float(v) for v in probs])
        chunk.lines.append(line_no)
        frame_id, score = index_value(record["frame"]), score_value(record["score"])
        emb_at = -1
        if isinstance(emb, list) and emb:  # its values are checked with the chunk
            emb_at = len(chunk.embs)
            chunk.embs.extend(emb if emb_are_floats else [float(v) for v in emb])
            chunk.emb_rows.append(len(chunk.lines) - 1)
            chunk.emb_ends.append(len(chunk.embs))
        elif emb is not None:
            embedding_value(emb)  # raises: only a non-empty list can be a vector
        gt_class, gt_track = record.get("gt_class"), record.get("gt_track")
        gt_class = -1 if gt_class is None else index_value(gt_class, "gt_class")
        gt_track = -1 if gt_track is None else index_value(gt_track, "gt_track")
    except TrackfuseError as exc:
        raise ParseError(line_no, str(exc)) from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(line_no, f"bad field value: {exc}") from None
    seq = sequence_name(record, line_no)
    chunk.frame.append(frame_id)
    chunk.box.extend(box)
    chunk.score.append(score)
    chunk.gt_class.append(gt_class)
    chunk.gt_track.append(gt_track)
    chunk.emb_at.append(emb_at)
    return seq, None if emb is None else len(emb)


_NUMBER_TYPES = frozenset((int, float))


_FLOAT_TYPE = frozenset((float,))


def _require_numbers(values: list, name: str, line_no: int) -> bool:
    """ParseError unless every entry of ``values`` is a JSON number (booleans are not).

    Returns whether every entry is a float already.
    """
    if _FLOAT_TYPE.issuperset(map(type, values)):
        return True
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        raise ParseError(line_no, f"{name} must hold real numbers, got {values!r}")
    return False


_STR, _INT, _LIST, _NONE = (frozenset((kind,)) for kind in (str, int, list, type(None)))
_INT_OR_NONE = _INT | _NONE
_FIELDS = (*_REQUIRED, "embedding", "gt_class", "gt_track")
_ABSENT = object()  # a missing required field; a missing optional one reads None, as in _parse_line
_FIELD_DEFAULTS = (_ABSENT,) * len(_REQUIRED) + (None,) * (len(_FIELDS) - len(_REQUIRED))


def _records(fields: List) -> Iterator[dict]:
    """The records whose ``_FIELDS`` are ``fields``, one after another, for the line path."""
    for at in range(0, len(fields), len(_FIELDS)):
        yield {key: value for key, value in zip(_FIELDS, fields[at:at + len(_FIELDS)])
               if value is not _ABSENT}


def _columns(fields: List, n_classes: int, seq_ids: Dict[str, int],
             emb_dims: Dict[str, Optional[int]]) -> Optional[Dict[str, np.ndarray]]:
    """The rows whose ``_FIELDS`` are ``fields`` as :meth:`_Chunk.flush` gives them, but probs
    not yet validated; None, with nothing recorded, unless every field passes its check.

    The checks pass only values that the line path takes as they are: JSON
    floats where it converts numbers, non-negative ids within int64, and
    embeddings of one size on every row or on none.
    """
    if not fields:
        return None
    seqs, frames, boxes, scores, probs, embs, gt_class, gt_track = (
        fields[at::len(_FIELDS)] for at in range(len(_FIELDS)))
    emb_dim = None  # no row has an embedding
    if not _NONE.issuperset(map(type, embs)):
        if not _LIST.issuperset(map(type, embs)):
            return None
        emb_dim = len(embs[0])
    if not (_STR.issuperset(map(type, seqs)) and _INT.issuperset(map(type, frames))
            and _FLOAT_TYPE.issuperset(map(type, scores))
            and _INT_OR_NONE.issuperset(map(type, gt_class))
            and _INT_OR_NONE.issuperset(map(type, gt_track))
            and all(_LIST.issuperset(map(type, rows)) and {size} == set(map(len, rows))
                    and _FLOAT_TYPE.issuperset(map(type, chain.from_iterable(rows)))
                    for rows, size in ((boxes, 4), (probs, n_classes), (embs, emb_dim))
                    if size is not None)
            and emb_dim != 0):
        return None
    try:
        frame, gt_class_col, gt_track_col = (np.array(ids, dtype=np.int64) for ids in (
            frames, *([-1 if v is None else v for v in ids] for ids in (gt_class, gt_track))))
    except OverflowError:
        return None
    box, score = np.array(boxes, dtype=float), np.array(scores, dtype=float)
    emb = np.array(embs if emb_dim else (), dtype=float).ravel()
    if not (frame.min() >= 0 and ((0.0 <= score) & (score <= 1.0)).all()
            and np.isfinite(box).all() and (box[:, :2] < box[:, 2:]).all()
            and np.isfinite(emb).all()
            and (gt_class_col < 0).sum() == gt_class.count(None)
            and (gt_track_col < 0).sum() == gt_track.count(None)):
        return None
    new = dict.fromkeys(seqs)
    if any(emb_dims.get(seq, emb_dim) != emb_dim for seq in new):
        return None
    for seq in new:
        emb_dims[seq] = emb_dim
        seq_ids.setdefault(seq, len(seq_ids))
    emb_at = np.full(len(seqs), -1) if emb_dim is None else np.arange(len(emb), step=emb_dim)
    return {"seq": np.array(list(map(seq_ids.__getitem__, seqs)), dtype=np.int64),
            "frame": frame, "box": box, "score": score, "probs": np.array(probs, dtype=float),
            "gt_class": gt_class_col, "gt_track": gt_track_col, "emb": emb,
            "emb_at": emb_at}


def _validated(columns: Dict[str, np.ndarray], line_nos: List[int], n_classes: int,
               timer=NULL_TIMER) -> Dict[str, np.ndarray]:
    """``columns`` with their probs rows validated; the first bad row is a ParseError."""
    with timer.stage(STAGE_CLASSIFICATION_INGEST):
        try:
            columns["probs"] = validate_distribution(columns["probs"], n_classes)
        except TrackfuseError as exc:
            raise ParseError(line_nos[exc.row], str(exc)) from None
    return columns


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


def write_tracks(result: ColumnResult, path) -> None:
    """Write every row with a track as CSV, ordered by (seq, frame, track_id)."""
    rows = np.flatnonzero(result.track >= 0)
    seq = np.searchsorted(result.bounds, rows, side="right") - 1  # ascending, as rows are
    rows = rows[np.lexsort((result.track[rows], result.cols.frame[rows], seq))]
    formats = [_row_format(name) for name in result.names]
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
