"""The layers on the `trackfuse track` path: what to wrap, and the per-layer metrics.

Each target is patched where its caller looks the name up: ``cli`` imported
``run_sequence``, ``relabel`` and ``evaluation_pairs`` by name, ``io``
imported ``validate_distribution``, and ``assoc`` imported
``linear_sum_assignment``.  ``synth`` only builds inputs and ``camtrap`` is
not on the `track` path, so neither is wrapped.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

from tracer import ATTRS, END, NAME, START, THREAD, Span, Target, percentile, self_times, \
    tail_percentile


def _count_pairs(span: Span, args: tuple, result) -> None:
    span[ATTRS]["admissible"] = int(args[0].gate_mask.sum())
    span[ATTRS]["matches"] = len(result.matches)


def _count_tracks(span: Span, args: tuple, result) -> None:
    span[ATTRS]["tracks"] = len(result.tracks)


TARGETS: List[Target] = [
    ("trackfuse.io", "parse_detections", "io.parse", None),
    ("trackfuse.io", "validate_distribution", "model.validate", None),
    ("trackfuse.io", "write_tracks", "io.write_tracks", None),
    ("trackfuse.cli", "_run_all", "cli.fanout", None),
    ("trackfuse.cli", "run_sequence", "trackers.run_sequence", _count_tracks),
    ("trackfuse.cli", "relabel", "fusion.relabel", None),
    ("trackfuse.cli", "_metrics_report", "metrics.report", None),
    ("trackfuse.cli", "evaluation_pairs", "metrics.evaluation_pairs", None),
    ("trackfuse.trackers", "tracker_step", "trackers.step", None),
    ("trackfuse.trackers", "_geometric_cost", "trackers.cost", None),
    ("trackfuse.trackers", "_greedy_iou", "trackers.cost", None),
    ("trackfuse.motion", "kf_predict", "motion.predict", None),
    ("trackfuse.motion", "kf_update", "motion.update", None),
    ("trackfuse.motion", "kf_init", "motion.init", None),
    ("trackfuse.assoc", "solve_assignment", "assoc.solve", _count_pairs),
    ("trackfuse.assoc", "linear_sum_assignment", "assoc.lsa", None),
]

# (metric, unit, span names it needs)
METRICS = [
    ("io.parse_s", "s", ("io.parse",)),
    ("model.validate_s", "s", ("model.validate",)),
    ("model.validate_calls", "count", ("model.validate",)),
    ("io.write_tracks_s", "s", ("io.write_tracks",)),
    ("motion.predict_calls", "count", ("motion.predict",)),
    ("motion.predict_s", "s", ("motion.predict",)),
    ("motion.update_calls", "count", ("motion.update",)),
    ("motion.update_s", "s", ("motion.update",)),
    ("motion.init_calls", "count", ("motion.init",)),
    ("assoc.solve_calls", "count", ("assoc.solve",)),
    ("assoc.solve_s", "s", ("assoc.solve",)),
    ("assoc.lsa_calls", "count", ("assoc.lsa",)),
    ("assoc.lsa_per_solve", "calls/solve", ("assoc.lsa", "assoc.solve")),
    ("assoc.admissible_pairs", "count", ("assoc.solve",)),
    ("assoc.matches", "count", ("assoc.solve",)),
    ("assoc.match_share", "ratio", ("assoc.solve",)),
    ("trackers.cost_s", "s", ("trackers.cost",)),
    ("trackers.step_calls", "count", ("trackers.step",)),
    ("trackers.step_self_s", "s", ("trackers.step",)),
    ("trackers.emit_s", "s", ("trackers.run_sequence",)),
    ("trackers.tracks_emitted", "count", ("trackers.run_sequence",)),
    ("trackers.step_ms_p50", "ms", ("trackers.step",)),
    ("trackers.step_ms_tail", "ms", ("trackers.step",)),
    ("trackers.step_tail_pct", "%", ("trackers.step",)),
    ("cli.fanout_s", "s", ("cli.fanout",)),
    ("cli.fanout_busy_s", "s", ("trackers.run_sequence", "fusion.relabel")),
    ("cli.fanout_threads", "count", ("trackers.run_sequence",)),
    ("fusion.relabel_s", "s", ("fusion.relabel",)),
    ("fusion.relabel_calls", "count", ("fusion.relabel",)),
    ("metrics.report_s", "s", ("metrics.report",)),
    ("metrics.evaluation_pairs_calls", "count", ("metrics.evaluation_pairs",)),
]
UNITS = {name: unit for name, unit, _ in METRICS}


def layer_metrics(spans: Sequence[Span], installed: Sequence[str]) -> Dict[str, float]:
    """Per-layer figures of one traced call; a metric whose spans were not installed is absent."""
    own = self_times(spans)
    total: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    attrs: Dict[str, int] = {}
    durations: Dict[str, List[float]] = {}
    threads = set()
    for span, own_s in zip(spans, own):
        name = span[NAME]
        duration = span[END] - span[START]
        total[name] = total.get(name, 0.0) + duration
        self_s[name] = self_s.get(name, 0.0) + own_s
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(duration)
        for key, value in span[ATTRS].items():
            attrs[key] = attrs.get(key, 0) + value
        if name == "trackers.run_sequence":
            threads.add(span[THREAD])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    steps_ms = [d * 1e3 for d in durations.get("trackers.step", ())]
    tail_pct = tail_percentile(len(steps_ms))
    values: Dict[str, Optional[float]] = {
        "io.parse_s": self_s.get("io.parse", 0.0),
        "model.validate_s": total.get("model.validate", 0.0),
        "model.validate_calls": calls.get("model.validate", 0),
        "io.write_tracks_s": total.get("io.write_tracks", 0.0),
        "motion.predict_calls": calls.get("motion.predict", 0),
        "motion.predict_s": total.get("motion.predict", 0.0),
        "motion.update_calls": calls.get("motion.update", 0),
        "motion.update_s": total.get("motion.update", 0.0),
        "motion.init_calls": calls.get("motion.init", 0),
        "assoc.solve_calls": calls.get("assoc.solve", 0),
        "assoc.solve_s": total.get("assoc.solve", 0.0),
        "assoc.lsa_calls": calls.get("assoc.lsa", 0),
        "assoc.lsa_per_solve": ratio(calls.get("assoc.lsa", 0), calls.get("assoc.solve", 0)),
        "assoc.admissible_pairs": attrs.get("admissible", 0),
        "assoc.matches": attrs.get("matches", 0),
        "assoc.match_share": ratio(attrs.get("matches", 0), attrs.get("admissible", 0)),
        "trackers.cost_s": total.get("trackers.cost", 0.0),
        "trackers.step_calls": calls.get("trackers.step", 0),
        "trackers.step_self_s": self_s.get("trackers.step", 0.0),
        "trackers.emit_s": self_s.get("trackers.run_sequence", 0.0),
        "trackers.tracks_emitted": attrs.get("tracks", 0),
        "trackers.step_ms_p50": percentile(steps_ms, 50.0) if steps_ms else None,
        "trackers.step_ms_tail": percentile(steps_ms, tail_pct) if tail_pct else None,
        "trackers.step_tail_pct": tail_pct,
        "cli.fanout_s": total.get("cli.fanout", 0.0),
        "cli.fanout_busy_s": total.get("trackers.run_sequence", 0.0)
        + total.get("fusion.relabel", 0.0),
        "cli.fanout_threads": len(threads),
        "fusion.relabel_s": total.get("fusion.relabel", 0.0),
        "fusion.relabel_calls": calls.get("fusion.relabel", 0),
        "metrics.report_s": total.get("metrics.report", 0.0),
        "metrics.evaluation_pairs_calls": calls.get("metrics.evaluation_pairs", 0),
    }
    have = set(installed)
    return {name: values[name] for name, _, needs in METRICS
            if values[name] is not None and have.issuperset(needs)}


def median_metrics(per_call: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Lower median of each metric over the traced calls that report it, so counts stay whole."""
    names = {name for figures in per_call for name in figures}
    return {name: statistics.median_low(f[name] for f in per_call if name in f)
            for name in sorted(names)}
