"""`track` by columns against the object path it replaced, byte for byte.

``oracles.reference_track_outputs`` keeps the per-detection pipeline as it
ran before sequences became columns: the line-by-line parser, one
``tracker_step`` per frame over Detection lists, track and label records of
its own, per-track fusion and per-record metrics.  On random multi-sequence
files, every tracker, fusion mode and ``--online`` setting, with or without
``--matched-only``, must give the same CSV and metrics JSON, or the same error.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import reference_track_outputs
from trackfuse.cli import main
from trackfuse.errors import TrackfuseError
from trackfuse.fusion import FusionMode
from trackfuse.trackers import TrackerConfig, TrackerKind

N_CLASSES = 3


@st.composite
def detection_lines(draw):
    """JSONL lines of 1-3 sequences, interleaved; boxes crowd a small area so tracks form."""
    lines = []
    for seq in draw(st.lists(st.sampled_from(["s0", "s,1", "s\r2"]), min_size=1, max_size=3,
                             unique=True)):
        for frame in draw(st.lists(st.integers(0, 12), min_size=1, max_size=6, unique=True)):
            for _ in range(draw(st.integers(1, 4))):
                x, y = draw(st.integers(0, 40)), draw(st.integers(0, 40))
                record = {"seq": seq, "frame": frame,
                          "bbox": [x, y, x + draw(st.integers(5, 30)), y + draw(st.integers(5, 30))],
                          "score": draw(st.sampled_from([0.05, 0.3, 0.5, 0.7, 1.0])),
                          "probs": draw(st.lists(st.integers(0, 3), min_size=N_CLASSES,
                                                 max_size=N_CLASSES).filter(any)),
                          "embedding": draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2))}
                gt_class = draw(st.integers(-1, N_CLASSES - 1))
                if gt_class >= 0:
                    record["gt_class"] = gt_class
                lines.append(record)
    if draw(st.integers(0, 5)) == 0:
        draw(st.sampled_from(lines))["gt_class"] = N_CLASSES  # out of range: an error
    lines = [json.dumps(record) for record in lines]
    return draw(st.permutations(lines))


def _outcome(run):
    """None when ``run`` returns, else its error as `track` prints it."""
    try:
        run()
    except TrackfuseError as exc:
        return f"error: {exc}"
    return None


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(detection_lines(), st.integers(1, 3), st.booleans())
def test_every_run_matches_the_object_path(tmp_path_factory, lines, min_hits, matched_only):
    tmp = tmp_path_factory.mktemp("oracle")
    dets, labels, cfg = tmp / "d.jsonl", tmp / "labels.txt", tmp / "cfg.json"
    dets.write_text("\n".join(lines) + "\n", encoding="utf-8")
    labels.write_text("a\nb\nc\n")
    cfg.write_text(json.dumps({"min_hits": min_hits}))
    for kind in TrackerKind:
        for mode in FusionMode:
            for online in (False, True):
                outputs = {}
                for side in ("columns", "objects"):
                    csv, metrics = tmp / f"{side}.csv", tmp / f"{side}.json"
                    for path in (csv, metrics):
                        path.unlink(missing_ok=True)
                    if side == "columns":
                        outputs[side] = _columns_run(dets, labels, cfg, csv, metrics, kind,
                                                     mode, online, matched_only)
                    else:
                        config = TrackerConfig.from_dict({"kind": kind.value,
                                                          "min_hits": min_hits})
                        outputs[side] = _outcome(lambda: reference_track_outputs(
                            dets, labels, csv, metrics, config, mode, online, matched_only))
                    if not isinstance(outputs[side], str):
                        outputs[side] = (csv.read_bytes(), metrics.read_bytes())
                assert outputs["columns"] == outputs["objects"], (kind, mode, online)


def _columns_run(dets, labels, cfg, csv, metrics, kind, mode, online, matched_only):
    """`track` through ``main``: None when it exits 0, else its stderr line."""
    err = io.StringIO()
    argv = ["track", "--input", str(dets), "--labels", str(labels), "--config", str(cfg),
            "--output", str(csv), "--metrics-out", str(metrics), "--tracker", kind.value,
            "--fusion", mode.value] + ["--online"] * online + ["--matched-only"] * matched_only
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return None if code == 0 else err.getvalue().rstrip("\n")
