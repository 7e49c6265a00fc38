"""CLI surface: exit codes, determinism, and the fusion-vs-raw improvement."""

import json
import time
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from trackfuse.cli import main
from trackfuse.io import DetectionRow, read_tracks, write_detections, write_labels
from trackfuse.synth import ScenarioConfig, generate_scenario
from trackfuse.trackers import TrackerKind


def _synth_args(out, labels, **kw):
    args = ["synth", "--output", str(out), "--labels-out", str(labels),
            "--seed", "42", "--objects", "6", "--frames", "150", "--classes", "8",
            "--flicker", "0.3", "--dropout", "0.05", "--jitter", "1.0"]
    for key, value in kw.items():
        args += [f"--{key}", str(value)]
    return args


def _track_boxes(tmp_path, boxes, tracker, **fields):
    """`track` one sequence of one box per frame; returns the exit code and any warnings."""
    return _track_boxes_per_frame(tmp_path, [[box] for box in boxes], tracker, **fields)


def _track_boxes_per_frame(tmp_path, frames, tracker, **fields):
    """`track` one sequence of the given boxes per frame, each record also holding ``fields``;
    returns the exit code and any warnings."""
    dets, labels = tmp_path / "d.jsonl", tmp_path / "labels.txt"
    dets.write_text("".join(json.dumps({"seq": "s", "frame": k, "bbox": box, "score": 0.9,
                                        "probs": [0.6, 0.4], **fields}) + "\n"
                            for k, boxes in enumerate(frames) for box in boxes))
    labels.write_text("a\nb\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning would print to stderr outside pytest
        code = main(["track", "--input", str(dets), "--labels", str(labels),
                     "--tracker", tracker, "--output", str(tmp_path / "t.csv")])
    return code, [str(w.message) for w in caught]


@pytest.fixture()
def detection_file(tmp_path):
    dets = tmp_path / "d.jsonl"
    labels = tmp_path / "labels.txt"
    assert main(_synth_args(dets, labels)) == 0
    return dets, labels


class TestSynth:
    def test_writes_both_files(self, detection_file):
        dets, labels = detection_file
        assert dets.exists() and labels.exists()
        assert len(labels.read_text().splitlines()) == 8
        first = json.loads(dets.read_text().splitlines()[0])
        assert set(first) >= {"seq", "frame", "bbox", "score", "probs"}

    def test_deterministic(self, tmp_path):
        a, al = tmp_path / "a.jsonl", tmp_path / "a.txt"
        b, bl = tmp_path / "b.jsonl", tmp_path / "b.txt"
        assert main(_synth_args(a, al)) == 0
        assert main(_synth_args(b, bl)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("jitter", ["nan", "inf"])
    def test_non_finite_jitter_is_data_error(self, tmp_path, capsys, jitter):
        out = tmp_path / "d.jsonl"
        assert main(_synth_args(out, tmp_path / "labels.txt", jitter=jitter)) == 2
        assert "jitter must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert main(_synth_args(out, tmp_path / "labels.txt", seed=-1)) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()


class TestTrack:
    def test_happy_path(self, tmp_path, detection_file):
        dets, labels = detection_file
        out = tmp_path / "t.csv"
        code = main(["track", "--tracker", "sort", "--fusion", "prob",
                     "--input", str(dets), "--labels", str(labels),
                     "--output", str(out)])
        assert code == 0
        assert out.read_text().startswith("frame,track_id,")

    def test_unknown_tracker_is_usage_error(self, tmp_path, detection_file, capsys):
        dets, labels = detection_file
        code = main(["track", "--tracker", "warp-drive", "--input", str(dets),
                     "--labels", str(labels), "--output", str(tmp_path / "t.csv")])
        assert code == 1
        err = capsys.readouterr().err
        for name in ("iou", "centroid", "sort", "bytetrack", "appearance"):
            assert name in err

    def test_missing_input_is_data_error(self, tmp_path, detection_file, capsys):
        _, labels = detection_file
        code = main(["track", "--input", str(tmp_path / "absent.jsonl"),
                     "--labels", str(labels), "--output", str(tmp_path / "t.csv")])
        assert code == 2

    def test_metrics_without_ground_truth_write_nothing(self, tmp_path, capsys):
        dets, labels, out = tmp_path / "d.jsonl", tmp_path / "labels.txt", tmp_path / "t.csv"
        dets.write_text("".join(json.dumps({"seq": "s", "frame": k, "bbox": [0, 0, 10, 10],
                                            "score": 0.9, "probs": [0.6, 0.4]}) + "\n"
                                for k in range(3)))
        labels.write_text("a\nb\n")
        code = main(["track", "--input", str(dets), "--labels", str(labels), "--output", str(out),
                     "--metrics-out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: no detections carry gt_class; nothing to evaluate\n")
        assert set(tmp_path.iterdir()) == {dets, labels}  # neither the CSV nor the JSON

    def test_byte_identical_reruns(self, tmp_path, detection_file):
        dets, labels = detection_file
        outputs = []
        for name in ("a", "b"):
            csv = tmp_path / f"{name}.csv"
            metrics = tmp_path / f"{name}.json"
            code = main(["track", "--tracker", "bytetrack", "--fusion", "prob",
                         "--input", str(dets), "--labels", str(labels),
                         "--output", str(csv), "--metrics-out", str(metrics)])
            assert code == 0
            outputs.append((csv.read_bytes(), metrics.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_sequences_tracked_independently_in_name_order(self, tmp_path, detection_file):
        dets, labels = detection_file
        other = tmp_path / "other.jsonl"
        assert main(_synth_args(other, tmp_path / "other.txt", seed=7,
                                **{"seq-name": "other"})) == 0
        both = tmp_path / "both.jsonl"
        both.write_text(other.read_text() + dets.read_text())
        rows = {}
        for name, path in (("other", other), ("synth-000", dets), ("both", both)):
            out = tmp_path / f"{name}.csv"
            assert main(["track", "--input", str(path), "--labels", str(labels),
                         "--output", str(out)]) == 0
            header, *rows[name] = out.read_text().splitlines()
        assert rows["other"] and rows["synth-000"]
        assert rows["both"] == rows["other"] + rows["synth-000"]

    def test_flip_rate_skips_sequence_without_two_entry_tracks(self, tmp_path, detection_file):
        dets, labels = detection_file
        # Two detections in one frame: two single-entry tracks, no flip rate.
        first = json.loads(dets.read_text().splitlines()[0])
        lone = [json.dumps({**first, "seq": "lone", "frame": 0, "bbox": box})
                for box in ([0, 0, 10, 10], [500, 500, 510, 510])]
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text("\n".join(lone) + "\n" + dets.read_text())
        reports = {}
        for name, path in (("alone", dets), ("mixed", mixed)):
            metrics = tmp_path / f"{name}.json"
            assert main(["track", "--input", str(path), "--labels", str(labels),
                         "--output", str(tmp_path / f"{name}.csv"),
                         "--metrics-out", str(metrics)]) == 0
            reports[name] = json.loads(metrics.read_text())
        assert reports["alone"]["flip_rate"]["raw"] > 0.0
        assert reports["mixed"]["flip_rate"] == reports["alone"]["flip_rate"]

    @pytest.mark.parametrize("fields", [{"min_hits": 140}, {"max_age": 0}])
    def test_config_file_values_change_the_run(self, tmp_path, detection_file, fields):
        dets, labels = detection_file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        csvs = {}
        for name, extra in (("default", []), ("config", ["--config", str(cfg)])):
            out = tmp_path / f"{name}.csv"
            assert main(["track", "--input", str(dets), "--labels", str(labels),
                         "--output", str(out), *extra]) == 0
            csvs[name] = out.read_text()
        assert csvs["config"] != csvs["default"]

    def test_config_field_flag_is_usage_error(self, tmp_path, detection_file):
        dets, labels = detection_file
        code = main(["track", "--input", str(dets), "--labels", str(labels),
                     "--output", str(tmp_path / "t.csv"), "--max-age", "9"])
        assert code == 1

    @pytest.mark.parametrize("config,bad_key", [
        ({"kind": "iou"}, "kind"),
        ({"fps": 30}, "fps"),
        ({"burst_len": 4}, "burst_len"),
        ({"cooldown": 10.0}, "cooldown"),
        ({"motion": "sort_cv7"}, "motion"),
        ({"motion": None}, "motion"),
        ({"motion": 5}, "motion"),
        ({"motion": {"model": "sort_cv7", "dt": "x"}}, "dt"),
        ({"motion": {"model": "sort_cv7", "dt": "1.5"}}, "dt"),
        ({"motion": {"model": "sort_cv7", "process_std": 9}}, "process_std"),
        ({"motion": {"model": "centroid_cv4", "dt": 1e100}}, "dt"),
        ({"motion": {"model": "centroid_cv4", "process_std": 1e160}}, "process_std"),
    ])
    def test_bad_config_is_data_error(self, tmp_path, detection_file, capsys, config, bad_key):
        dets, labels = detection_file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(["track", "--input", str(dets), "--labels", str(labels),
                     "--output", str(tmp_path / "t.csv"), "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert bad_key in err and "Traceback" not in err

    @pytest.mark.parametrize("tracker,config,field", [
        ("centroid", {"centroid_gate": float("nan")}, "centroid_gate"),
        ("appearance", {"cosine_gate": float("nan")}, "cosine_gate"),
        ("iou", {"iou_gate": float("inf")}, "iou_gate"),
        ("sort", {"motion": {"model": "sort_cv7", "std_weight_position": float("-inf")}},
         "std_weight_position"),
    ])
    def test_non_finite_config_is_data_error(self, tmp_path, detection_file, capsys, tracker,
                                             config, field):
        dets, labels = detection_file
        cfg, out = tmp_path / "cfg.json", tmp_path / "t.csv"
        cfg.write_text(json.dumps(config))  # NaN and Infinity, as Python's json writes them
        code = main(["track", "--tracker", tracker, "--input", str(dets), "--labels",
                     str(labels), "--output", str(out), "--config", str(cfg)])
        assert code == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tracker", ["sort", "bytetrack"])
    def test_non_finite_covariance_is_data_error(self, tmp_path, capsys, tracker):
        # Finite boxes whose height h ~ 1e154 square past the float range in the covariance.
        boxes = [[0, 0, 1e154, 1e154], [1e153, 1e153, 1.1e154, 1.1e154],
                 [2e153, 2e153, 1.2e154, 1.2e154]]
        assert _track_boxes(tmp_path, boxes, tracker) == (2, [])
        assert capsys.readouterr().err == "error: covariance of track 1 is not finite\n"

    def test_far_jump_is_data_error_without_warnings(self, tmp_path, capsys):
        # The second box's area overflows in the IoU cost before its track's covariance does.
        boxes = [[0, 0, 10, 10], [1e200, 1e200, 2e200, 2e200]]
        assert _track_boxes(tmp_path, boxes, "sort") == (2, [])
        assert capsys.readouterr().err == "error: covariance of track 2 is not finite\n"

    @pytest.mark.parametrize("tracker,code,err", [
        ("iou", 0, ""), ("centroid", 0, ""),
        ("centroid-kf", 2, "error: bbox x1 must be finite, got -inf\n"),
        ("sort", 2, "error: covariance of track 1 is not finite\n"),
        ("bytetrack", 2, "error: covariance of track 1 is not finite\n"),
        ("appearance", 2, "error: covariance of track 1 is not finite\n")])
    def test_boxes_past_the_extent_range_without_warnings(self, tmp_path, capsys, tracker, code,
                                                          err):
        # Legal corners whose width and height overflow: the cost, the motion model's extent
        # and the CSV's w and h (inf) all compute it without a numpy warning.
        dets, labels = tmp_path / "d.jsonl", tmp_path / "labels.txt"
        dets.write_text("".join(json.dumps({
            "seq": "s", "frame": k, "bbox": [-1e308, -1e308, 1e308, 1e308], "score": 0.9,
            "probs": [0.6, 0.4], "embedding": [1.0, 0.0]}) + "\n" for k in range(3)))
        labels.write_text("a\nb\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # a warning would print to stderr outside pytest
            assert main(["track", "--input", str(dets), "--labels", str(labels), "--tracker",
                         tracker, "--output", str(tmp_path / "t.csv")]) == code
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == err
        if code == 0:
            assert [row.w for row in read_tracks(tmp_path / "t.csv")] == [float("inf")] * 3

    def test_competing_costs_past_the_float_range_are_data_error(self, tmp_path, capsys):
        # Two tracks 1e308 apart under an infinite centroid gate: both detections compete for
        # both, and the solver's price for an unmatched row, 1 + 2 * (1e308 + 1e308), overflows.
        pair = [[-1.7e308, -1e300, 0.7e308, 1e300], [-0.7e308, -1e300, 1.7e308, 1e300]]
        assert _track_boxes_per_frame(tmp_path, [pair] * 3, "centroid") == (2, [])
        assert capsys.readouterr().err == "error: admissible cost entries must sum to a finite total\n"

    def test_infinite_centroid_distance_under_an_infinite_gate_is_data_error(self, tmp_path,
                                                                             capsys):
        # The first box's width overflows, so the gate is inf; the centers are 2.4e308 apart,
        # an infinite cost the gate admits.  Only IoU costs skip CostMatrix's check.
        boxes = [[-1.7e308, 0, 0.2e308, 1], [1.6e308, 0, 1.7e308, 1]]
        assert _track_boxes(tmp_path, boxes, "centroid") == (2, [])
        assert capsys.readouterr().err == "error: admissible cost entries must be finite\n"

    def test_boxes_past_the_area_range_track_without_warnings(self, tmp_path, capsys):
        # IoU inf / inf is NaN, which the gate never admits: three one-entry tracks.
        assert _track_boxes(tmp_path, [[0, 0, 1e300, 1e300]] * 3, "iou") == (0, [])
        assert capsys.readouterr().err == ""
        assert [row.track_id for row in read_tracks(tmp_path / "t.csv")] == [1, 2, 3]

    @pytest.mark.parametrize("value", [1e200, 1e-200])
    def test_embedding_norms_past_the_float_range_keep_one_track(self, tmp_path, capsys, value):
        # The squared norm of [value, value] over- or underflows; cosines do not depend on
        # scale, so the row is divided by its largest magnitude first.
        box = [50, 50, 90, 90]
        assert _track_boxes(tmp_path, [box] * 3, "appearance", embedding=[value, value]) == (0, [])
        assert capsys.readouterr().err == ""
        assert [row.track_id for row in read_tracks(tmp_path / "t.csv")] == [1, 1, 1]

    def test_singular_innovation_is_data_error(self, tmp_path, detection_file, capsys):
        # Noise weights this small square to 0, so a track's first update divides by 0.
        dets, labels = detection_file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"motion": {"model": "sort_cv7", "std_weight_position": 1e-170,
                                              "std_weight_velocity": 1e-170}}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # a warning would print to stderr outside pytest
            code = main(["track", "--tracker", "sort", "--input", str(dets), "--labels",
                         str(labels), "--output", str(tmp_path / "t.csv"), "--config", str(cfg)])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert "innovation covariance is singular" in err
        assert "Warning" not in err and "Traceback" not in err

    def test_unknown_config_field_is_data_error(self, tmp_path, detection_file, capsys):
        dets, labels = detection_file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_hitz": 2}))
        code = main(["track", "--input", str(dets), "--labels", str(labels),
                     "--output", str(tmp_path / "t.csv"), "--config", str(cfg)])
        assert code == 2
        assert "min_hitz" in capsys.readouterr().err


_CONFIG_KEYS = ["iou_gate", "centroid_gate", "det_threshold_high", "det_threshold_low",
                "min_hits", "max_age", "appearance_weight", "cosine_gate"]
_MOTION_KEYS = ["dt", "std_weight_position", "std_weight_velocity", "process_std",
                "measurement_std", "bogus"]
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)
_plausible = st.floats(0.0, 1.0) | st.integers(0, 5)
_motion_objects = st.fixed_dictionaries(
    {}, optional={"model": st.sampled_from(["sort_cv7", "centroid_cv4"]) | _json_values,
                  **{k: st.floats(1e-3, 10.0) | _json_values for k in _MOTION_KEYS}})
_config_values = {
    **{k: _plausible | _json_values for k in _CONFIG_KEYS + ["kind", "fps", "bogus"]},
    "motion": _motion_objects | _json_values,
}
_configs = st.lists(st.sampled_from(sorted(_config_values)).flatmap(
    lambda k: st.tuples(st.just(k), _config_values[k])), max_size=3).map(dict)


@pytest.fixture(scope="module")
def line_orders(tmp_path_factory):
    """One file's sequences in three line orders, and its label file.

    Each sequence keeps its own lines in order.  ``sorted`` lists the sequences
    one after another in name order, as ``write_detections`` does; ``reversed``
    in the opposite order; ``interleaved`` frame by frame, each frame's
    sequences in the opposite name order.  The sequences share frame ids, differ
    in length and in embedding size, and no name order is their numeric order.
    """
    tmp = tmp_path_factory.mktemp("orders")
    scenarios = {name: generate_scenario(ScenarioConfig(
        seed=seed, num_objects=3, num_frames=frames, n_classes=4, flicker=0.4, dropout=0.2,
        jitter=1.0, embedding_dim=dim, score_range=(0.2, 1.0)))
        for name, seed, frames, dim in (("s10", 1, 25, 8), ("s9", 2, 40, 4), ("s1", 3, 12, 16))}
    paths = {"sorted": tmp / "sorted.jsonl"}
    write_detections({name: s.detection_frames() for name, s in scenarios.items()},
                     paths["sorted"])
    write_labels(scenarios["s1"].label_set, tmp / "labels.txt")
    lines = paths["sorted"].read_text().splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    by_seq = {}
    for line, record in zip(lines, records):
        by_seq.setdefault(record["seq"], []).append(line)
    rank = {seq: k for k, seq in enumerate(reversed(by_seq))}
    orders = {
        "reversed": [line for seq in rank for line in by_seq[seq]],
        "interleaved": [line for _, line in sorted(zip(records, lines), key=lambda pair: (
            pair[0]["frame"], rank[pair[0]["seq"]]))],
    }
    for name, ordered in orders.items():
        paths[name] = tmp / f"{name}.jsonl"
        paths[name].write_text("".join(ordered))
    assert len({path.read_bytes() for path in paths.values()}) == 3
    return paths, tmp / "labels.txt"


@pytest.mark.parametrize("tracker", [kind.value for kind in TrackerKind])
def test_sequence_line_order_does_not_change_the_outputs(tmp_path, line_orders, tracker):
    paths, labels = line_orders
    outputs = set()
    for name, path in paths.items():
        csv, metrics = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        assert main(["track", "--input", str(path), "--labels", str(labels), "--tracker", tracker,
                     "--output", str(csv), "--metrics-out", str(metrics)]) == 0
        outputs.add((csv.read_bytes(), metrics.read_bytes()))
    (csv_bytes, _), = outputs
    assert csv_bytes.count(b"\n") > 100


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_configs, tracker=st.sampled_from(["iou", "centroid", "centroid-kf", "sort",
                                                 "bytetrack", "appearance"]))
def test_any_config_exits_0_or_2(tmp_path, config, tracker):
    labels = tmp_path / "labels.txt"
    labels.write_text("a\nb\n")
    dets = tmp_path / "d.jsonl"
    dets.write_text("".join(
        json.dumps({"seq": "s", "frame": f, "bbox": [f, 0, 10 + f, 10], "score": 0.9,
                    "probs": [0.6, 0.4], "embedding": [1.0, 0.5]}) + "\n" for f in (0, 1)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["track", "--input", str(dets), "--labels", str(labels), "--tracker", tracker,
                 "--output", str(tmp_path / "t.csv"), "--config", str(cfg)]) in (0, 2)


_GOOD_RECORD = {"seq": "s", "frame": 0, "bbox": [0, 0, 10, 10], "score": 0.9,
                "probs": [0.6, 0.4], "embedding": [1.0, 0.5]}


def _unreadable_input_args(tmp_path, which, bad):
    """A command line whose ``which`` file holds ``bad``; every other file is valid."""
    files = {"input": json.dumps(_GOOD_RECORD).encode() + b"\n", "labels": b"a\nb\n",
             "config": b"{}"}
    files[which] = bad
    paths = {}
    for name, content in files.items():
        paths[name] = tmp_path / f"{name}.bad"
        paths[name].write_bytes(content)
    io_args = ["--input", str(paths["input"]), "--labels", str(paths["labels"])]
    return paths[which], {
        "track": ["track", *io_args, "--output", str(tmp_path / "t.csv"),
                  "--config", str(paths["config"])],
        "eval": ["eval", *io_args],
        "bench": ["bench", *io_args, "--trackers", "iou"],
        "simulate": ["simulate", "--input", str(paths["input"]),
                     "--output", str(tmp_path / "s.jsonl")],
    }


@pytest.mark.parametrize("command,which", [
    ("track", "input"), ("eval", "input"), ("bench", "input"), ("simulate", "input"),
    ("track", "labels"), ("eval", "labels"), ("track", "config"),
])
def test_non_utf8_file_is_data_error(tmp_path, capsys, command, which):
    path, argv = _unreadable_input_args(tmp_path, which, b"\xff\xfe{}\n")
    assert main(argv[command]) == 2
    err = capsys.readouterr().err
    assert f"{path} is not UTF-8 text" in err and "Traceback" not in err


@pytest.mark.parametrize("command,which,line", [
    ("track", "config", 1), ("track", "input", 2), ("simulate", "input", 2),
])
def test_deeply_nested_json_is_data_error(tmp_path, capsys, command, which, line):
    deep = b"[" * 5000 + b"]" * 5000
    if which == "input":
        deep = json.dumps(_GOOD_RECORD).encode() + b"\n" + deep + b"\n"
    _, argv = _unreadable_input_args(tmp_path, which, deep)
    assert main(argv[command]) == 2
    assert f"line {line}: JSON is nested too deeply" in capsys.readouterr().err


# Detection lines for the fuzz test: a valid record with at most two fields
# replaced by any JSON value, deep nesting, or arbitrary (often non-UTF-8) bytes.
_record_fields = {
    "seq": st.sampled_from(["a", "b", "1"]),
    "frame": st.integers(0, 4),
    "bbox": st.integers(0, 5).map(lambda x: [x, 0, x + 10, 10]),
    "score": st.floats(0.0, 1.0),
    "probs": st.sampled_from([[0.6, 0.4], [0.3, 0.7]]),
    "embedding": st.sampled_from([[1.0, 0.0], [0.6, 0.8]]),
    "gt_class": st.integers(0, 1),
}
_records = st.tuples(
    st.fixed_dictionaries(_record_fields),
    st.dictionaries(st.sampled_from(sorted(_record_fields)),
                    _json_values | st.just(10 ** 400), max_size=2),
).map(lambda parts: json.dumps({**parts[0], **parts[1]}).encode())


def _string_seqs(data: bytes) -> set:
    """The ``seq`` of every line of ``data`` that is a JSON object whose ``seq`` is a string."""
    names = set()
    for line in data.split(b"\n"):
        try:
            record = json.loads(line)
        except (ValueError, RecursionError):
            continue
        if isinstance(record, dict) and isinstance(record.get("seq"), str):
            names.add(record["seq"])
    return names


_lines = (_records | _records | st.sampled_from([3, 5000]).map(lambda n: b"[" * n + b"]" * n)
          | st.binary(max_size=6))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.lists(_lines, min_size=1, max_size=5).map(b"\n".join),
       tracker=st.sampled_from(["iou", "sort", "bytetrack", "appearance"]))
@example(data=b"\xff\xfe{}", tracker="sort")
@example(data=b"[" * 5000 + b"]" * 5000, tracker="sort")
@example(data=json.dumps({**_GOOD_RECORD, "bbox": ["x", 0, 10, 10]}).encode(), tracker="sort")
@example(data=json.dumps({**_GOOD_RECORD, "seq": 1}).encode(), tracker="sort")
@example(data=json.dumps({**_GOOD_RECORD, "seq": ["s"]}).encode(), tracker="iou")
def test_any_detection_file_exits_0_or_2(tmp_path, data, tracker):
    # Every sequence a run reports must be named by a JSON string seq of the input.
    labels = tmp_path / "labels.txt"
    labels.write_text("a\nb\n")
    dets = tmp_path / "d.jsonl"
    dets.write_bytes(data + b"\n")
    tracks, sampled = tmp_path / "t.csv", tmp_path / "s.jsonl"
    code = main(["track", "--input", str(dets), "--labels", str(labels), "--tracker", tracker,
                 "--fusion", "vote", "--output", str(tracks)])
    assert code in (0, 2)
    if code == 0:
        assert {row.seq for row in read_tracks(tracks)} <= _string_seqs(data)
    code = main(["simulate", "--input", str(dets), "--output", str(sampled)])
    assert code in (0, 2)
    if code == 0:
        assert {json.loads(line)["seq"].rsplit("#b", 1)[0]
                for line in sampled.read_text().splitlines()} <= _string_seqs(data)


class TestEval:
    def test_fusion_beats_raw_on_flickered_data(self, tmp_path, detection_file):
        dets, labels = detection_file
        reports = {}
        for mode in ("none", "prob"):
            out = tmp_path / f"{mode}.json"
            code = main(["eval", "--input", str(dets), "--labels", str(labels),
                         "--tracker", "sort", "--fusion", mode,
                         "--json-out", str(out)])
            assert code == 0
            reports[mode] = json.loads(out.read_text())
        assert reports["none"]["fused"]["acc1"] == reports["none"]["raw"]["acc1"]
        assert reports["prob"]["fused"]["acc1"] > reports["none"]["fused"]["acc1"]

    def test_report_fields(self, tmp_path, detection_file, capsys):
        dets, labels = detection_file
        out = tmp_path / "r.json"
        code = main(["eval", "--input", str(dets), "--labels", str(labels),
                     "--per-class", "--flip-rate", "--json-out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report) >= {"raw", "fused", "flip_rate", "per_class",
                               "n_evaluated", "n_matched"}
        assert report["flip_rate"]["fused"] == 0.0
        assert len(report["per_class"]) == 8
        text = capsys.readouterr().out
        assert "Acc@1" in text and "flip rate" in text

    def test_no_ground_truth_is_data_error(self, tmp_path, detection_file, capsys):
        dets, labels = detection_file
        stripped = tmp_path / "nogt.jsonl"
        with stripped.open("w") as fh:
            for line in dets.read_text().splitlines():
                rec = json.loads(line)
                rec.pop("gt_class", None)
                rec.pop("gt_track", None)
                fh.write(json.dumps(rec) + "\n")
        code = main(["eval", "--input", str(stripped), "--labels", str(labels)])
        assert code == 2


def test_track_and_eval_build_no_per_detection_objects(tmp_path, detection_file, monkeypatch):
    """Both commands run on sequence columns: a per-detection object built anywhere fails."""
    dets, labels = detection_file

    def refuse(*args, **kwargs):
        raise AssertionError("a per-detection object was built")

    monkeypatch.setattr(DetectionRow, "__new__", refuse)
    for tracker in ("iou", "centroid", "centroid-kf", "sort", "bytetrack", "appearance"):
        assert main(["track", "--input", str(dets), "--labels", str(labels), "--tracker", tracker,
                     "--fusion", "vote", "--output", str(tmp_path / "t.csv"),
                     "--metrics-out", str(tmp_path / "m.json")]) == 0
    assert main(["eval", "--input", str(dets), "--labels", str(labels), "--per-class",
                 "--flip-rate"]) == 0
    with pytest.raises(AssertionError, match="per-detection object"):
        DetectionRow(0, (0.0, 0.0, 1.0, 1.0), 0.9, None, None, None, None)


class TestSimulate:
    def test_burst_sampling_thins_frames(self, tmp_path, detection_file):
        dets, _ = detection_file
        out = tmp_path / "sim.jsonl"
        code = main(["simulate", "--input", str(dets), "--output", str(out),
                     "--fps", "10", "--burst", "4", "--cooldown", "5"])
        assert code == 0
        frames = sorted({json.loads(line)["frame"] for line in out.read_text().splitlines()})
        # Triggers at 0, 50, 100 (cooldown 50 frames), four frames 10 apart each.
        assert frames == [0, 10, 20, 30, 50, 60, 70, 80, 100, 110, 120, 130]

    def test_burst_split_makes_one_sequence_per_burst(self, tmp_path, detection_file):
        dets, _ = detection_file
        out = tmp_path / "sim.jsonl"
        assert main(["simulate", "--input", str(dets), "--output", str(out),
                     "--fps", "10", "--burst", "4", "--cooldown", "5"]) == 0
        seqs = {json.loads(line)["seq"] for line in out.read_text().splitlines()}
        assert seqs == {"synth-000#b0000", "synth-000#b0001", "synth-000#b0002"}

    def test_track_across_bursts_keeps_sequence(self, tmp_path, detection_file):
        dets, _ = detection_file
        out = tmp_path / "sim.jsonl"
        assert main(["simulate", "--input", str(dets), "--output", str(out),
                     "--fps", "10", "--burst", "4", "--cooldown", "5",
                     "--track-across-bursts"]) == 0
        seqs = {json.loads(line)["seq"] for line in out.read_text().splitlines()}
        assert seqs == {"synth-000"}

    @pytest.mark.parametrize("frames", [["x"], [-3], [-2, 0, 5], [1.5], [float("inf")]])
    def test_bad_frame_is_data_error(self, tmp_path, frames, capsys):
        path = tmp_path / "d.jsonl"
        path.write_text("".join(json.dumps({"seq": "a", "frame": f}) + "\n" for f in frames))
        out = tmp_path / "sim.jsonl"
        assert main(["simulate", "--input", str(path), "--output", str(out)]) == 2
        assert "line" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seq", [1, [1], None])
    def test_non_string_seq_is_data_error(self, tmp_path, seq, capsys):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"seq": "1", "frame": 0}) + "\n"
                        + json.dumps({"seq": seq, "frame": 1}) + "\n")
        out = tmp_path / "sim.jsonl"
        assert main(["simulate", "--input", str(path), "--output", str(out)]) == 2
        assert "line 2: seq must be a string" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_cooldown_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"seq": "a", "frame": 0}) + "\n")
        out = tmp_path / "sim.jsonl"
        assert main(["simulate", "--input", str(path), "--output", str(out),
                     "--cooldown", "inf"]) == 2
        assert "cooldown" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--cooldown", "1e307", "cooldown * fps"),  # 1e307 s at 30 fps is no float frame count
        ("--fps", "1" + "0" * 400, "fps must be at most the largest float"),
    ], ids=["cooldown", "fps"])
    def test_cooldown_past_the_frame_range_is_data_error(self, tmp_path, capsys, flag, value,
                                                         message):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"seq": "a", "frame": 0}) + "\n")
        out = tmp_path / "sim.jsonl"
        assert main(["simulate", "--input", str(path), "--output", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_huge_frame_id_is_sampled_sparsely(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("".join(json.dumps({"seq": "a", "frame": f}) + "\n"
                                for f in (0, 2 ** 40)))
        out = tmp_path / "sim.jsonl"
        start = time.perf_counter()
        assert main(["simulate", "--input", str(path), "--output", str(out)]) == 0
        assert time.perf_counter() - start < 1.0
        assert [json.loads(line) for line in out.read_text().splitlines()] == [
            {"seq": "a#b0000", "frame": 0}, {"seq": "a#b0001", "frame": 2 ** 40}]

    def test_sampled_output_still_tracks(self, tmp_path, detection_file):
        dets, labels = detection_file
        sim = tmp_path / "sim.jsonl"
        assert main(["simulate", "--input", str(dets), "--output", str(sim),
                     "--fps", "10", "--burst", "4", "--cooldown", "5"]) == 0
        out = tmp_path / "t.csv"
        assert main(["track", "--input", str(sim), "--labels", str(labels),
                     "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) > 1


class TestBench:
    def test_prints_table_and_writes_json(self, tmp_path, detection_file, capsys):
        dets, labels = detection_file
        out = tmp_path / "bench.json"
        code = main(["bench", "--input", str(dets), "--labels", str(labels),
                     "--trackers", "iou,centroid,appearance",
                     "--json-out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "MOT" in text and "ReID" in text
        payload = json.loads(out.read_text())
        assert set(payload) == {"iou", "centroid", "appearance"}
        for block in payload.values():
            assert block["samples"] == 150

    def test_unknown_tracker_name(self, tmp_path, detection_file):
        dets, labels = detection_file
        code = main(["bench", "--input", str(dets), "--labels", str(labels),
                     "--trackers", "iou,quantum"])
        assert code == 2

    def test_skipping_appearance_is_said_on_stderr(self, tmp_path, detection_file, capsys):
        dets, labels = detection_file
        args = ["bench", "--labels", str(labels), "--trackers", "iou,appearance"]
        assert main([*args, "--input", str(dets)]) == 0
        assert capsys.readouterr().err == ""
        bare = tmp_path / "bare.jsonl"
        records = [json.loads(line) for line in dets.read_text().splitlines()]
        bare.write_text("".join(json.dumps({k: v for k, v in rec.items() if k != "embedding"})
                                + "\n" for rec in records))
        out = tmp_path / "bench.json"
        assert main([*args, "--input", str(bare), "--json-out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ("note: skipping appearance: "
                                "sequence 'synth-000' has no embeddings\n")
        assert set(json.loads(out.read_text())) == {"iou"}
        assert [line.split()[0] for line in captured.out.splitlines()[3:]] == ["iou"]

    def test_tracker_named_twice_runs_once(self, tmp_path, detection_file, monkeypatch):
        import trackfuse.cli as cli

        runs = []

        def counted(cols, config, *args, _real=cli._run_all, **kwargs):
            runs.append(config.kind.value)
            return _real(cols, config, *args, **kwargs)
        monkeypatch.setattr(cli, "_run_all", counted)
        dets, labels = detection_file
        out = tmp_path / "bench.json"
        assert main(["bench", "--input", str(dets), "--labels", str(labels),
                     "--trackers", "iou,centroid, iou", "--json-out", str(out)]) == 0
        assert runs == ["iou", "centroid"]
        assert set(json.loads(out.read_text())) == {"iou", "centroid"}


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
