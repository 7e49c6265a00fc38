"""Command-line surface: synth | simulate | track | eval | bench.

Exit codes: 0 success, 1 usage error, 2 data error.  Runs are deterministic:
identical arguments and input files produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from . import io
from .errors import EmptyEvaluation, InvalidConfig, NoEligibleTracks, ParseError, TrackfuseError
from .fusion import FusionMode, relabel
from .metrics import (
    NULL_TIMER,
    STAGE_FUSION,
    STAGE_METRICS,
    STAGE_MOT,
    StageTimer,
    accuracy_at_1,
    confusion,
    evaluation_pairs,
    f1_scores,
    format_profile_table,
    label_flip_rate,
)
from .model import ColumnResult, Columns, LabelSet, index_value
from .trackers import TrackerConfig, TrackerKind, track_columns

run_sequence = track_columns  # the benchmark's trace target until ROADMAP item 7; never called

TRACKER_NAMES = [k.value for k in TrackerKind]
FUSION_NAMES = [m.value for m in FusionMode]


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1 (2 is for data errors)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trackfuse",
                     description="Track detections and fuse per-track class probabilities.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic detection file")
    p.add_argument("--output", required=True, help="detections JSONL to write")
    p.add_argument("--labels-out", help="label list to write (one name per line)")
    p.add_argument("--seq-name", default="synth-000")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--objects", type=int, default=5)
    p.add_argument("--frames", type=int, default=100)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--flicker", type=float, default=0.0)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--confidence", type=float, default=0.8)
    p.add_argument("--image-size", type=int, nargs=2, default=(1024, 1024),
                   metavar=("W", "H"))
    p.add_argument("--embedding-dim", type=int, default=16)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("simulate", help="apply camera-trap burst sampling to a detection file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--fps", type=int, default=30)
    p.add_argument("--burst", type=int, default=4)
    p.add_argument("--cooldown", type=float, default=10.0)
    p.add_argument("--track-across-bursts", action="store_true",
                   help="keep each source sequence intact instead of one sequence per burst")
    p.set_defaults(func=_cmd_simulate)

    for name, needs_output in (("track", True), ("eval", False)):
        p = sub.add_parser(name, help="run a tracker and fuse labels"
                           if needs_output else "run a tracker and report metrics")
        p.add_argument("--input", required=True, help="detections JSONL")
        p.add_argument("--labels", required=True, help="label list file")
        p.add_argument("--tracker", choices=TRACKER_NAMES, default="sort")
        p.add_argument("--fusion", choices=FUSION_NAMES, default="prob")
        p.add_argument("--config", help="JSON file with TrackerConfig fields")
        p.add_argument("--online", action="store_true",
                       help="labels at frame t use entries up to t only")
        p.add_argument("--matched-only", action="store_true",
                       help="exclude unmatched detections from metrics")
        if needs_output:
            p.add_argument("--output", required=True, help="track CSV to write")
            p.add_argument("--metrics-out", help="metrics JSON to write (needs ground truth)")
            p.set_defaults(func=_cmd_track)
        else:
            p.add_argument("--per-class", action="store_true")
            p.add_argument("--flip-rate", action="store_true")
            p.add_argument("--json-out", help="metrics JSON to write")
            p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="profile per-stage timing for each tracker")
    p.add_argument("--input", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--trackers", default=",".join(TRACKER_NAMES),
                   help="comma-separated tracker names")
    p.add_argument("--fusion", choices=FUSION_NAMES, default="prob")
    p.add_argument("--json-out", help="profile JSON to write")
    p.set_defaults(func=_cmd_bench)
    return parser


def _tracker_config(args) -> TrackerConfig:
    """The ``--tracker`` kind plus the ``--config`` file's TrackerConfig fields."""
    file_cfg: Dict[str, object] = {}
    if args.config:
        with io.open_text(args.config) as fh:
            file_cfg = io.parse_json(fh.read())
        if not isinstance(file_cfg, dict):
            raise InvalidConfig("config file must hold a JSON object")
        if "kind" in file_cfg:
            raise InvalidConfig("config field 'kind' is not accepted; choose it with --tracker")
    return TrackerConfig.from_dict({**file_cfg, "kind": args.tracker})


def _run_all(cols: Columns, config: TrackerConfig, mode: FusionMode, online: bool,
             timer=NULL_TIMER) -> ColumnResult:
    """Track every sequence of the file ``cols``, one after another, then fuse them in one pass."""
    with timer.stage(STAGE_MOT):
        track = track_columns(cols, config, timer)
    with timer.stage(STAGE_FUSION):
        return relabel(cols, track, mode, online=online)


def _cmd_synth(args) -> int:
    from .synth import ScenarioConfig, generate_scenario  # here, so `track` never loads it

    config = ScenarioConfig(
        seed=args.seed, num_objects=args.objects, num_frames=args.frames,
        n_classes=args.classes, flicker=args.flicker, dropout=args.dropout,
        jitter=args.jitter, confidence=args.confidence,
        image_size=tuple(args.image_size), embedding_dim=args.embedding_dim,
    )
    scenario = generate_scenario(config)
    io.write_detections({args.seq_name: scenario.detection_frames()}, args.output)
    if args.labels_out:
        io.write_labels(scenario.label_set, args.labels_out)
    return 0


def _cmd_simulate(args) -> int:
    from .camtrap import TriggerConfig, trigger_bursts  # here, so `track` never loads it

    config = TriggerConfig(fps=args.fps, burst_len=args.burst, cooldown=args.cooldown)
    records: Dict[str, Dict[int, List[dict]]] = {}
    for line_no, record in io.read_records(args.input):
        if "seq" not in record or "frame" not in record:
            raise ParseError(line_no, "record needs 'seq' and 'frame' fields")
        try:
            frame = index_value(record["frame"])
        except TrackfuseError as exc:
            raise ParseError(line_no, str(exc)) from None
        seq = io.sequence_name(record["seq"], line_no)
        records.setdefault(seq, {}).setdefault(frame, []).append(record)

    with open(args.output, "w", encoding="utf-8") as out:
        for seq, by_frame in sorted(records.items()):
            visible = sorted(by_frame)
            bursts = trigger_bursts(visible, visible[-1] + 1, config)
            for b_idx, burst in enumerate(bursts):
                for frame in burst.frame_ids:
                    for r in by_frame.get(frame, []):
                        if not args.track_across_bursts:
                            r = dict(r)
                            r["seq"] = f"{seq}#b{b_idx:04d}"
                        out.write(json.dumps(r) + "\n")
    return 0


def _metrics_report(result: ColumnResult, label_set: LabelSet, include_unmatched: bool,
                    with_flip_rate: bool, with_per_class: bool) -> dict:
    report: Dict[str, object] = {}
    fused_cm = None
    for key, use_fused in (("raw", False), ("fused", True)):
        pairs = evaluation_pairs(result, use_fused, include_unmatched)
        if not len(pairs):
            raise EmptyEvaluation("no detections carry gt_class; nothing to evaluate")
        cm = confusion(pairs, len(label_set))
        scores = f1_scores(cm)
        report[key] = {
            "acc1": accuracy_at_1(cm),
            "f1_macro": scores.macro,
            "f1_weighted": scores.weighted,
        }
        if use_fused:
            fused_cm = cm
            report["n_evaluated"] = len(pairs)
    report["n_matched"] = int((result.track >= 0).sum())
    if with_flip_rate:
        # Raw and fused rates share one eligibility rule: both raise, or neither does.
        try:
            report["flip_rate"] = {key: label_flip_rate(result, use_fused=key == "fused")
                                   for key in ("raw", "fused")}
        except NoEligibleTracks:
            report["flip_rate"] = {"raw": 0.0, "fused": 0.0}
    if with_per_class:
        scores = f1_scores(fused_cm)
        support = fused_cm.counts.sum(axis=1)
        report["per_class"] = [
            {"label": label_set[i], "f1": float(scores.per_class[i]), "support": int(support[i])}
            for i in range(len(label_set))
        ]
    return report


def _print_report(report: dict) -> None:
    print(f"{'':<8}{'Acc@1':>10}{'F1-macro':>12}{'F1-weighted':>14}")
    for key in ("raw", "fused"):
        block = report[key]
        print(f"{key:<8}{block['acc1']:>10.4f}{block['f1_macro']:>12.4f}"
              f"{block['f1_weighted']:>14.4f}")
    if "flip_rate" in report:
        fr = report["flip_rate"]
        print(f"flip rate: raw {fr['raw']:.4f}  fused {fr['fused']:.4f}")
    if "per_class" in report:
        print(f"{'label':<16}{'F1':>10}{'support':>10}")
        for row in report["per_class"]:
            print(f"{row['label']:<16}{row['f1']:>10.4f}{row['support']:>10}")


def _track_and_fuse(args) -> Tuple[LabelSet, ColumnResult]:
    """The label set, and every ``--input`` sequence tracked and fused as ``args`` say."""
    label_set = io.read_labels(args.labels)
    result = _run_all(io.read_columns(args.input, label_set), _tracker_config(args),
                      FusionMode(args.fusion), args.online)
    return label_set, result


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_track(args) -> int:
    label_set, result = _track_and_fuse(args)
    io.write_tracks(result, args.output)
    if args.metrics_out:
        _write_json(args.metrics_out, _metrics_report(
            result, label_set, include_unmatched=not args.matched_only,
            with_flip_rate=True, with_per_class=False))
    return 0


def _cmd_eval(args) -> int:
    label_set, result = _track_and_fuse(args)
    report = _metrics_report(result, label_set,
                             include_unmatched=not args.matched_only,
                             with_flip_rate=args.flip_rate,
                             with_per_class=args.per_class)
    _print_report(report)
    if args.json_out:
        _write_json(args.json_out, report)
    return 0


def _cmd_bench(args) -> int:
    label_set = io.read_labels(args.labels)
    try:  # a tracker named twice runs once
        kinds = list(dict.fromkeys(TrackerKind(name.strip())
                                   for name in args.trackers.split(",") if name.strip()))
    except ValueError as exc:
        raise InvalidConfig(f"unknown tracker in --trackers: {exc}") from None
    # Ingest does not depend on the tracker: it is timed once and shared by every profile.
    ingest_timer = StageTimer()
    cols = io.read_columns(args.input, label_set, timer=ingest_timer)
    samples = len(cols.frame_ids)
    bare = [seq for seq, emb in zip(cols.names, cols.emb) if emb is None]
    if bare and TrackerKind.APPEARANCE in kinds:
        # Appearance association is meaningless without embeddings; skip it.
        print(f"note: skipping appearance: sequence {bare[0]!r} has no embeddings", file=sys.stderr)
        kinds.remove(TrackerKind.APPEARANCE)

    totals_ms: Dict[str, Dict[str, float]] = {}
    for kind in kinds:
        timer = StageTimer()
        timer.totals_s.update(ingest_timer.totals_s)
        result = _run_all(cols, TrackerConfig(kind=kind), FusionMode(args.fusion), online=False,
                          timer=timer)
        with timer.stage(STAGE_METRICS):
            pairs = evaluation_pairs(result, use_fused=True)
            if len(pairs):
                cm = confusion(pairs, len(label_set))
                accuracy_at_1(cm)
                f1_scores(cm)
        totals_ms[kind.value] = {name: total * 1000.0 for name, total in timer.totals_s.items()}

    print(f"samples: {samples}")
    print(format_profile_table(totals_ms, samples))
    if args.json_out:
        _write_json(args.json_out, {name: {"samples": samples, "total_ms": totals}
                                    for name, totals in totals_ms.items()})
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (TrackfuseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
