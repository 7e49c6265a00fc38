"""The benchmark's workloads: seeded synthetic inputs and the `track` command line for each.

Every workload holds about 2.4k detections (5 % dropout), so
``detections_per_s`` compares across them.  Sizes are an eighth of the
frame or burst counts the workloads were first specified with; the shape
(objects per frame, sequences per file, tracker and fusion path) is kept.
Why each workload is in the benchmark is its ``why`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, Tuple

import numpy as np

DEFAULT_SEED = 0
# Seed whose outputs are pinned by ``Workload.digest``; every run re-checks it.

COMMON_SCENARIO = {"n_classes": 10, "flicker": 0.3, "confidence": 0.8,
                   "dropout": 0.05, "jitter": 1.0}
# The acceptance reference scenario's noise settings, shared by all workloads.


@dataclass(frozen=True)
class Workload:
    name: str
    sequences: int
    objects: int
    frames: int
    track_args: Tuple[str, ...]
    digest: str
    # sha256 over the track CSV, a NUL byte, and the metrics JSON at DEFAULT_SEED.
    scenario: Dict[str, object] = field(default_factory=dict)
    # ScenarioConfig fields beyond COMMON_SCENARIO.

    def spec_key(self) -> str:
        """Short hash of everything that shapes the generated inputs."""
        spec = {k: v for k, v in asdict(self).items() if k not in ("digest", "track_args")}
        return hashlib.sha256(repr(sorted(spec.items())).encode()).hexdigest()[:12]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="ref",
        sequences=1, objects=10, frames=250,
        track_args=("--tracker", "sort", "--fusion", "prob"),
        digest="958cd10561cc1d3318fa641b3c121106aad5521b2421f71f39adec4e8253c7b3",
    ),
    Workload(
        name="dense",
        sequences=4, objects=50, frames=13,
        track_args=("--tracker", "appearance", "--fusion", "vote", "--online"),
        digest="ead90e4f2c3d28286928128dc1ab1666921344b07747a60032ca4aaa4841cee6",
        scenario={"image_size": (4096, 4096)},
    ),
    Workload(
        name="bursts",
        sequences=63, objects=10, frames=4,
        track_args=("--tracker", "iou", "--fusion", "prob"),
        digest="e296cc14a8ed0ddf41d7b024cfb4eb5a960240c53e492cd18c45dd3ddfb1965c",
        scenario={"speed_range": (5.0, 20.0)},
    ),
)}


def sequence_seed(seed: int, index: int) -> int:
    """Scenario seed of one sequence, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def write_inputs(workload: Workload, seed: int, directory: str) -> Tuple[str, str, int]:
    """Generate the workload's detections and labels; returns (jsonl, labels, detection count)."""
    from trackfuse import io
    from trackfuse.synth import ScenarioConfig, generate_scenario

    sequences = {}
    label_set = None
    for i in range(workload.sequences):
        config = ScenarioConfig(
            seed=sequence_seed(seed, i), num_objects=workload.objects,
            num_frames=workload.frames, **COMMON_SCENARIO, **workload.scenario,
        )
        scenario = generate_scenario(config)
        sequences[f"{workload.name}-{i:04d}"] = scenario.detection_frames()
        label_set = scenario.label_set
    os.makedirs(directory, exist_ok=True)
    detections = os.path.join(directory, "detections.jsonl")
    labels = os.path.join(directory, "labels.txt")
    io.write_detections(sequences, detections)
    io.write_labels(label_set, labels)
    count = sum(len(dets) for frames in sequences.values() for _, dets in frames)
    return detections, labels, count


def cached_inputs(workload: Workload, seed: int, cache_root: str) -> Tuple[str, str, int]:
    """Inputs for (workload, seed), generated once per cache directory."""
    directory = os.path.join(cache_root, "inputs", f"{workload.name}-{seed}-{workload.spec_key()}")
    detections = os.path.join(directory, "detections.jsonl")
    labels = os.path.join(directory, "labels.txt")
    if os.path.exists(labels):
        with open(detections, encoding="utf-8") as fh:
            return detections, labels, sum(1 for line in fh if line.strip())
    staging = f"{directory}.tmp{os.getpid()}"
    _, _, count = write_inputs(workload, seed, staging)
    os.replace(staging, directory)
    return detections, labels, count
