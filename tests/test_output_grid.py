"""`track` outputs over every tracker, fusion mode and `--online` setting, pinned by digest.

One seeded two-sequence file covers all 36 runs.  Scores reach down to 0.05,
below ``det_threshold_high``, so ByteTrack's second stage and unmatched
detections occur; every seventh line carries no ``gt_class``.  Each run's
digest is the sha256 of the track CSV, a NUL byte and the metrics JSON.
"""

import hashlib
import json

import pytest

from trackfuse.cli import main
from trackfuse.io import write_detections, write_labels
from trackfuse.synth import ScenarioConfig, generate_scenario

DIGESTS = {
    "iou/prob/retro": "5d50016d48ecb65133488cf4ea9593fadc44d06ae3d491831b246940650bb683",
    "iou/prob/online": "7ea684b56119729f9d04a1cf8a74ccb3a197d98a766c914046b2bb56eaf438ba",
    "iou/vote/retro": "5d50016d48ecb65133488cf4ea9593fadc44d06ae3d491831b246940650bb683",
    "iou/vote/online": "0d09d901d4be177a142ecba7863f8cdcb17433c3df18c4bf9fdc388120cb1e0e",
    "iou/none/retro": "9bb5f99e18ad7851d9dcdd19082c00634943452539b357e7455925eb0e629ca0",
    "iou/none/online": "9bb5f99e18ad7851d9dcdd19082c00634943452539b357e7455925eb0e629ca0",
    "centroid/prob/retro": "99848f78574acba2180e844a554570c3b8dfd16e9387f9e5fed57ada9d5c8e69",
    "centroid/prob/online": "db91b89169c7c384237c2846c936116f9b9c876c81b7482d96ed1c4455817012",
    "centroid/vote/retro": "99848f78574acba2180e844a554570c3b8dfd16e9387f9e5fed57ada9d5c8e69",
    "centroid/vote/online": "787424e6cca07f66c409f6fed301e8f6979aa170f879be62562b8845511d3f37",
    "centroid/none/retro": "f3a9b124c8d7902a6a3b03d0bc13b6815703e613dccbb781a3e4c16aaeb27175",
    "centroid/none/online": "f3a9b124c8d7902a6a3b03d0bc13b6815703e613dccbb781a3e4c16aaeb27175",
    "centroid-kf/prob/retro": "7252cef73e4f858aaf4929be197d9f18e3580fb303203a646dd3d58d6538cb51",
    "centroid-kf/prob/online": "4da86df54fb6457dec6c37c446c83c1f013f339468391d74a270dd09368d7989",
    "centroid-kf/vote/retro": "7252cef73e4f858aaf4929be197d9f18e3580fb303203a646dd3d58d6538cb51",
    "centroid-kf/vote/online": "d6eb2497040885e2a6839f73691f765c4ffe8384bc7be2cad96d007e414c04cd",
    "centroid-kf/none/retro": "10be6764cf16d8c51688b4b9fa684893f1d854fd1256912205fd4a98069694ea",
    "centroid-kf/none/online": "10be6764cf16d8c51688b4b9fa684893f1d854fd1256912205fd4a98069694ea",
    "sort/prob/retro": "a31a69124bee5556ed7b6dab06fa5b39d2ccfb95ac9d282a28acbd06ce6b6b4a",
    "sort/prob/online": "140d0b92430998a46daadb5ab9fc492dbd6f7d726b2614dc4602f97cbd428613",
    "sort/vote/retro": "a31a69124bee5556ed7b6dab06fa5b39d2ccfb95ac9d282a28acbd06ce6b6b4a",
    "sort/vote/online": "7d99a6441ab3c70a73787716ed4652d4c205165fa4b70ede553cb439b38b27fe",
    "sort/none/retro": "fd0de9d5c0cac371b7f0e13f2646f8258b1446a16ff5668eb84440fe47b85623",
    "sort/none/online": "fd0de9d5c0cac371b7f0e13f2646f8258b1446a16ff5668eb84440fe47b85623",
    "bytetrack/prob/retro": "580a40d3dd272780939403e5cdeee1bee6eff364298ce62c8c0eb100fc53ccc0",
    "bytetrack/prob/online": "077692a241a62713b47e2441de26405f362125af711e9710aaef50a4c738db13",
    "bytetrack/vote/retro": "580a40d3dd272780939403e5cdeee1bee6eff364298ce62c8c0eb100fc53ccc0",
    "bytetrack/vote/online": "cea4cce959c41db1dfe2ebd0f96f9f34b8a06123efa3008396e019f4c48cafcb",
    "bytetrack/none/retro": "d0decbded099cd09b558f34ba65d429a8067f337dab7df305b2fe68e403d75a7",
    "bytetrack/none/online": "d0decbded099cd09b558f34ba65d429a8067f337dab7df305b2fe68e403d75a7",
    "appearance/prob/retro": "a31a69124bee5556ed7b6dab06fa5b39d2ccfb95ac9d282a28acbd06ce6b6b4a",
    "appearance/prob/online": "140d0b92430998a46daadb5ab9fc492dbd6f7d726b2614dc4602f97cbd428613",
    "appearance/vote/retro": "a31a69124bee5556ed7b6dab06fa5b39d2ccfb95ac9d282a28acbd06ce6b6b4a",
    "appearance/vote/online": "7d99a6441ab3c70a73787716ed4652d4c205165fa4b70ede553cb439b38b27fe",
    "appearance/none/retro": "fd0de9d5c0cac371b7f0e13f2646f8258b1446a16ff5668eb84440fe47b85623",
    "appearance/none/online": "fd0de9d5c0cac371b7f0e13f2646f8258b1446a16ff5668eb84440fe47b85623",
}


@pytest.fixture(scope="module")
def grid_input(tmp_path_factory):
    directory = tmp_path_factory.mktemp("grid")
    sequences, label_set = {}, None
    for name, seed in (("grid-a", 21), ("grid-b", 22)):
        scenario = generate_scenario(ScenarioConfig(
            seed=seed, num_objects=6, num_frames=30, n_classes=5, flicker=0.3, dropout=0.1,
            jitter=2.0, score_range=(0.05, 1.0)))
        sequences[name] = scenario.detection_frames()
        label_set = scenario.label_set
    path, labels = directory / "d.jsonl", directory / "labels.txt"
    write_detections(sequences, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    for i in range(0, len(lines), 7):
        record = json.loads(lines[i])
        del record["gt_class"]
        lines[i] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_labels(label_set, labels)
    return path, labels


@pytest.mark.parametrize("run", sorted(DIGESTS))
def test_track_outputs_match_the_pinned_digest(tmp_path, grid_input, run):
    tracker, fusion, online = run.split("/")
    path, labels = grid_input
    csv, metrics = tmp_path / "tracks.csv", tmp_path / "metrics.json"
    argv = ["track", "--input", str(path), "--labels", str(labels), "--output", str(csv),
            "--metrics-out", str(metrics), "--tracker", tracker, "--fusion", fusion]
    assert main(argv + (["--online"] if online == "online" else [])) == 0
    digest = hashlib.sha256(csv.read_bytes() + b"\0" + metrics.read_bytes()).hexdigest()
    assert digest == DIGESTS[run]
