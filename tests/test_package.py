"""Package surface: the top level exports only what running the pipeline needs."""

import os
import subprocess
import sys
from pathlib import Path

import trackfuse

SRC = Path(__file__).parents[1] / "src"

PIPELINE = {"read_labels", "parse_detections", "TrackerConfig", "TrackerKind", "run_sequence",
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
