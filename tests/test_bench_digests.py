"""The benchmark's pinned output digests, checked in-process on every tier-1 run.

``perfbench/workloads.py`` pins the sha256 of each workload's `track` outputs
at its default seed.  Here the same inputs go through ``cli.main``, so a
change that alters any output byte fails without running the benchmark.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from trackfuse.cli import main

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_track_outputs_match_the_pinned_digest(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    dets, labels, _ = workloads.write_inputs(workload, workloads.DEFAULT_SEED, str(tmp_path))
    csv, metrics = tmp_path / "tracks.csv", tmp_path / "metrics.json"
    assert main(["track", "--input", dets, "--labels", labels, "--output", str(csv),
                 "--metrics-out", str(metrics), *workload.track_args]) == 0
    digest = hashlib.sha256(csv.read_bytes() + b"\0" + metrics.read_bytes()).hexdigest()
    assert digest == workload.digest
