"""The benchmark's per-layer trace wraps what `track` runs.

A rename inside ``src/`` would otherwise drop that layer from the trace
without an error until the benchmark's own restore test runs, or leave a
target that resolves but is never called, so its metrics read 0.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from trackfuse import cli, io
from trackfuse.trackers import TrackerKind

PERFBENCH = Path(__file__).parents[1] / "perfbench"

# Trace targets that `track` never calls, so their spans never open: each name is
# an alias kept only for the trace (`io.parse_detections` of `read_columns`,
# `cli.run_sequence` of `track_columns`), and `track` calls the functions by their
# own names.  Retargeting the trace onto those names is ROADMAP item 7.
NEVER_CALLED = {
    ("trackfuse.io", "parse_detections"),
    ("trackfuse.cli", "run_sequence"),
}

EVERY_RUN = {"cli.fanout", "model.validate", "trackers.step", "trackers.cost", "fusion.relabel",
             "io.write_tracks", "metrics.report", "metrics.evaluation_pairs"}
ASSIGNMENT = {"assoc.solve", "assoc.lsa"}
KALMAN = {"motion.init", "motion.predict", "motion.update"}
KALMAN_KINDS = {TrackerKind.CENTROID_KF, TrackerKind.SORT, TrackerKind.BYTETRACK,
                TrackerKind.APPEARANCE}


def _perfbench(name, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers.py imports its sibling tracer.py
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def layers(monkeypatch):
    return _perfbench("layers", monkeypatch)


def test_every_trace_target_resolves_to_a_callable(layers):
    assert layers.TARGETS
    for module, attr, *_ in layers.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def _write_input(tmp_path):
    """Two sequences with ground truth; in "a" two overlapping boxes compete for matches."""
    lines = []
    for seq, boxes in (("a", ([0, 0, 40, 40], [12, 0, 52, 40])), ("b", ([300, 300, 340, 340],))):
        for frame in range(4):
            for k, (x1, y1, x2, y2) in enumerate(boxes):
                lines.append(json.dumps({
                    "seq": seq, "frame": frame, "bbox": [x1 + frame, y1, x2 + frame, y2],
                    "score": 0.9, "probs": [0.6, 0.3, 0.1], "gt_class": k,
                    "embedding": [1.0, 0.2 * k]}))
    (tmp_path / "d.jsonl").write_text("\n".join(lines) + "\n")
    (tmp_path / "labels.txt").write_text("x\ny\nz\n")


@pytest.mark.parametrize("kind", list(TrackerKind))
def test_track_opens_every_called_target(tmp_path, monkeypatch, layers, kind):
    tracer = _perfbench("tracer", monkeypatch)
    _write_input(tmp_path)
    spans = tracer.Tracer()
    with tracer.patched(spans, layers.TARGETS):
        assert cli.main(["track", "--input", str(tmp_path / "d.jsonl"),
                         "--labels", str(tmp_path / "labels.txt"), "--tracker", kind.value,
                         "--output", str(tmp_path / "t.csv"),
                         "--metrics-out", str(tmp_path / "m.json")]) == 0
    opened = {span[tracer.NAME] for span in spans.spans}
    assert opened == (EVERY_RUN | (set() if kind is TrackerKind.IOU else ASSIGNMENT)
                      | (KALMAN if kind in KALMAN_KINDS else set()))
    never = {name for module, attr, name, _ in layers.TARGETS if (module, attr) in NEVER_CALLED}
    assert never == {name for *_, name, _ in layers.TARGETS} - EVERY_RUN - ASSIGNMENT - KALMAN


@pytest.mark.parametrize("workload", ["bursts", "dense", "ref"])
def test_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch, layers, workload):
    # A metric that drops out of a traced run, as the step tail does below 20 steps, makes
    # the benchmark's result line malformed.
    tracer, workloads = (_perfbench(name, monkeypatch) for name in ("tracer", "workloads"))
    spec = workloads.WORKLOADS[workload]
    dets, labels, _ = workloads.write_inputs(spec, workloads.DEFAULT_SEED, str(tmp_path))
    spans = tracer.Tracer()
    with tracer.patched(spans, layers.TARGETS) as installed:
        assert cli.main(["track", "--input", dets, "--labels", labels,
                         "--output", str(tmp_path / "t.csv"),
                         "--metrics-out", str(tmp_path / "m.json"), *spec.track_args]) == 0
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    # run.py adds trace.overhead_share itself, from traced and untraced wall times.
    want = {metric["name"] for metric in declared} - {"trace.overhead_share"}
    got = layers.layer_metrics(spans.spans, installed)
    assert want <= set(got)
    # One tracker step per (sequence, frame), one fusion call per file, and one
    # distribution check per chunk flush, the last of them short.
    records = [json.loads(line) for line in Path(dets).read_text().splitlines() if line.strip()]
    assert got["trackers.step_calls"] == len({(r["seq"], r["frame"]) for r in records})
    assert got["fusion.relabel_calls"] == 1
    assert got["model.validate_calls"] == len(records) // io.CHUNK_LINES + 1
