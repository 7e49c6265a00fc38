"""Package surface: the top level exports the library pipeline, which writes what `track` does.

The pipeline is ``read_columns`` -> ``track_columns`` -> ``relabel`` -> ``write_tracks``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import trackfuse
from trackfuse.cli import main
from trackfuse.io import write_detections, write_labels
from trackfuse.synth import ScenarioConfig, generate_scenario

SRC = Path(__file__).parents[1] / "src"

PIPELINE = {"read_labels", "read_columns", "TrackerConfig", "TrackerKind", "track_columns",
            "FusionMode", "relabel", "write_tracks", "TrackfuseError"}


def test_all_is_exactly_the_pipeline():
    assert sorted(trackfuse.__all__) == sorted(PIPELINE)
    namespace = {}
    exec("from trackfuse import *", namespace)
    assert PIPELINE <= set(namespace)
    for name in PIPELINE:
        assert namespace[name] is getattr(trackfuse, name)


def test_cli_imports_no_scipy():
    # A fresh interpreter, so modules the test run already loaded do not count.
    probe = "import sys, trackfuse.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert out.stdout.strip() == "[]"


def test_cli_imports_no_synth_or_camtrap():
    # Only `synth` and `simulate` run them; `track`, `eval` and `bench` must not compile them.
    probe = "import sys, trackfuse.cli; print(sorted(m for m in sys.modules if m in " \
            "('trackfuse.synth', 'trackfuse.camtrap')))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def two_sequences(tmp_path_factory):
    """A detections file of two flickering sequences with embeddings, and its label file."""
    tmp = tmp_path_factory.mktemp("pipeline")
    scenarios = [generate_scenario(ScenarioConfig(seed=seed, num_objects=4, num_frames=30,
                                                  n_classes=4, flicker=0.4, dropout=0.1,
                                                  jitter=1.0, score_range=(0.2, 1.0)))
                 for seed in (3, 4)]
    write_detections({f"s{k}": s.detection_frames() for k, s in enumerate(scenarios)},
                     tmp / "d.jsonl")
    write_labels(scenarios[0].label_set, tmp / "labels.txt")
    return tmp / "d.jsonl", tmp / "labels.txt"


@pytest.mark.parametrize("online", [False, True])
@pytest.mark.parametrize("mode", list(trackfuse.FusionMode))
@pytest.mark.parametrize("kind", list(trackfuse.TrackerKind))
def test_library_pipeline_writes_the_track_csv(tmp_path, two_sequences, kind, mode, online):
    dets, labels = two_sequences
    sequences = trackfuse.read_columns(dets, trackfuse.read_labels(labels))
    tracks = {seq: trackfuse.track_columns(cols, trackfuse.TrackerConfig(kind=kind))
              for seq, cols in sequences.items()}
    result = trackfuse.relabel(sequences, tracks, mode, online)
    trackfuse.write_tracks(result, tmp_path / "lib.csv")
    assert main(["track", "--input", str(dets), "--labels", str(labels), "--tracker", kind.value,
                 "--fusion", mode.value, "--output", str(tmp_path / "cli.csv")]
                + ["--online"] * online) == 0
    assert len(sequences) == 2 and (tmp_path / "cli.csv").read_text().count("\n") > 50
    assert (tmp_path / "lib.csv").read_bytes() == (tmp_path / "cli.csv").read_bytes()
