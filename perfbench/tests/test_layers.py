"""Traced in-process `track` runs: hand-counted layer metrics and restored wrappers."""

import importlib
import json

from layers import TARGETS, layer_metrics
from tracer import Tracer, patched

N_CLASSES = 3


def write_input(path):
    """Sequence "a": two far-apart objects over three frames; "b": one object over two."""
    lines = []
    for seq, n_objects, n_frames in (("a", 2, 3), ("b", 1, 2)):
        for frame in range(n_frames):
            for k in range(n_objects):
                x = 100.0 + 400.0 * k + frame
                lines.append(json.dumps({
                    "seq": seq, "frame": frame, "bbox": [x, 50.0, x + 40.0, 90.0],
                    "score": 0.9, "probs": [0.7, 0.2, 0.1], "gt_class": 0,
                }))
    path.write_text("\n".join(lines) + "\n")


def traced_track(tmp_path, tracker):
    import trackfuse.cli as cli

    write_input(tmp_path / "det.jsonl")
    (tmp_path / "labels.txt").write_text("x\ny\nz\n")
    tracer = Tracer()
    with patched(tracer, TARGETS) as installed:
        code = cli.main(["track", "--input", str(tmp_path / "det.jsonl"),
                         "--labels", str(tmp_path / "labels.txt"), "--tracker", tracker,
                         "--output", str(tmp_path / "out.csv"),
                         "--metrics-out", str(tmp_path / "m.json")])
    assert code == 0
    return layer_metrics(tracer.spans, installed)


def test_counts_match_hand_counts_for_sort(tmp_path, monkeypatch):
    monkeypatch.setenv("TRACKFUSE_THREADS", "1")
    m = traced_track(tmp_path, "sort")
    # 8 detections in 5 frames; 3 tracks born on each sequence's first frame.
    # The 5 solves include the two first frames, which have no tracks and run
    # no LSA.  Each later frame of "a" runs the full solve plus one solve for
    # row 0's candidate column; "b" has one row, so one solve.
    assert {k: m[k] for k in (
        "model.validate_calls", "trackers.step_calls", "motion.init_calls",
        "motion.predict_calls", "motion.update_calls", "assoc.solve_calls",
        "assoc.admissible_pairs", "assoc.matches", "assoc.lsa_calls",
        "trackers.tracks_emitted", "fusion.relabel_calls",
        "metrics.evaluation_pairs_calls", "cli.fanout_threads",
    )} == {
        "model.validate_calls": 8, "trackers.step_calls": 5, "motion.init_calls": 3,
        "motion.predict_calls": 5, "motion.update_calls": 5, "assoc.solve_calls": 5,
        "assoc.admissible_pairs": 5, "assoc.matches": 5, "assoc.lsa_calls": 5,
        "trackers.tracks_emitted": 3, "fusion.relabel_calls": 2,
        "metrics.evaluation_pairs_calls": 3, "cli.fanout_threads": 1,
    }
    assert m["assoc.lsa_per_solve"] == 1.0
    assert m["assoc.match_share"] == 1.0
    assert all(m[k] >= 0.0 for k in m)


def test_iou_tracker_makes_no_motion_or_assignment_calls(tmp_path, monkeypatch):
    monkeypatch.setenv("TRACKFUSE_THREADS", "2")
    m = traced_track(tmp_path, "iou")
    for key in ("motion.predict_calls", "motion.update_calls", "motion.init_calls",
                "assoc.solve_calls", "assoc.lsa_calls"):
        assert m[key] == 0
    assert m["trackers.step_calls"] == 5
    assert m["cli.fanout_threads"] in (1, 2)
    assert m["cli.fanout_busy_s"] <= 2 * m["cli.fanout_s"]


def test_wrappers_are_restored_after_a_traced_run(tmp_path, monkeypatch):
    monkeypatch.setenv("TRACKFUSE_THREADS", "1")
    before = {(mod, attr): getattr(importlib.import_module(mod), attr)
              for mod, attr, _, _ in TARGETS}
    traced_track(tmp_path, "sort")
    after = {(mod, attr): getattr(importlib.import_module(mod), attr)
             for mod, attr, _, _ in TARGETS}
    assert all(after[key] is before[key] for key in before)
