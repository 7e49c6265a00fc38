"""Benchmark of `trackfuse track`: end to end with tracing off, per layer with it on.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ref|dense|bursts --seed N --seconds S --trace 0|1

Each call runs `trackfuse track` in a fresh interpreter with the checkout's
``src`` on PYTHONPATH and ``TRACKFUSE_THREADS`` unset, so the program's
default thread count is measured.  The first call of a run is untimed: it
tracks the DEFAULT_SEED input and its outputs must match the digest pinned
in ``workloads.py``.  Then calls on the ``--seed`` input repeat for
``--seconds``; their outputs must match each other.  Every call must exit 0
and write a CSV that ``io.read_tracks`` reads back with one row per matched
detection.  A call that misses any check counts as failed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics as
medians over the timed calls.  Timings are in seconds of the reference host:
each call's are scaled by ``KERNEL_REF_S`` over the CPU time its child took
for a fixed host-speed kernel (``child.host_kernel_s``), so that the shared
host's drift does not read as a change of the program.  The raw figures are
kept in the results file.  With ``--trace 1`` untraced and traced calls
alternate; it reports the per-layer metrics (median over traced calls) and
``trace.overhead_share``.  Inputs are cached under ``.perfbench_cache/`` by
(workload, seed); each run leaves its raw figures and the spans of its last
traced call under ``.perfbench_cache/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from layers import UNITS, layer_metrics, median_metrics
from workloads import DEFAULT_SEED, WORKLOADS, Workload, cached_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench_cache")
CHILD = os.path.join(HERE, "child.py")

KERNEL_REF_S = 0.075
# About the median time of child.host_kernel_s on the reference host, a 2-vCPU
# Intel Xeon VM.  It only sets the scale of the reported timings.

CALL_TIMEOUT_S = 120.0
RUN_BUDGET_S = 150.0
# No call starts after this much of a run has passed, keeping runs under three minutes.

E2E_UNITS = {
    "setup_s": "s",
    "detections_per_s": "1/s",
    "cpu_us_per_detection": "us",
    "peak_rss_mb": "MB",
    "fused_acc1": "ratio",
    "fused_label_stability": "ratio",
}


def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "TRACKFUSE_THREADS"}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _digest(csv_path: str, metrics_path: str) -> str:
    h = hashlib.sha256()
    with open(csv_path, "rb") as fh:
        h.update(fh.read())
    h.update(b"\0")
    with open(metrics_path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def run_call(workload: Workload, inputs, spans_out: Optional[str]) -> dict:
    """One `track` call in a child process, with its outputs checked.

    Returns the child's figures plus ``report`` (the metrics JSON), ``digest``
    and ``error`` (None when every check passed).
    """
    from trackfuse import io
    from trackfuse.errors import TrackfuseError

    detections, labels, _ = inputs
    with tempfile.TemporaryDirectory(dir=CACHE) as tmp:
        csv_path = os.path.join(tmp, "tracks.csv")
        metrics_path = os.path.join(tmp, "metrics.json")
        argv = [sys.executable, CHILD, spans_out or "-", "track",
                "--input", detections, "--labels", labels,
                "--output", csv_path, "--metrics-out", metrics_path, *workload.track_args]
        try:
            proc = subprocess.run(argv, env=_child_env(), capture_output=True, text=True,
                                  timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {CALL_TIMEOUT_S} s"}
        if proc.returncode != 0:
            return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
        call = json.loads(proc.stdout.strip().splitlines()[-1])
        if call["exit"] != 0:
            call["error"] = f"track exited {call['exit']}: {proc.stderr.strip()[-500:]}"
            return call
        try:
            rows = io.read_tracks(csv_path)
            with open(metrics_path, encoding="utf-8") as fh:
                call["report"] = json.load(fh)
        except (OSError, ValueError, TrackfuseError) as exc:
            call["error"] = f"unreadable output: {exc}"
            return call
        call["digest"] = _digest(csv_path, metrics_path)
        n_matched = call["report"].get("n_matched")
        call["error"] = (None if len(rows) == n_matched
                         else f"CSV has {len(rows)} rows, metrics say n_matched={n_matched}")
    return call


def ref_s(call: dict, key: str) -> float:
    """The call's timing ``key`` in seconds of the reference host."""
    return call[key] * KERNEL_REF_S / call["kernel_s"]


def end_to_end(calls: List[dict], n_detections: int) -> Dict[str, float]:
    def med(values) -> float:
        return statistics.median(list(values))

    return {
        "setup_s": med(ref_s(c, "setup_s") for c in calls),
        "detections_per_s": med(n_detections / ref_s(c, "wall_s") for c in calls),
        "cpu_us_per_detection": med(ref_s(c, "cpu_s") / n_detections * 1e6 for c in calls),
        "peak_rss_mb": med(c["peak_rss_mb"] for c in calls),
        "fused_acc1": med(c["report"]["fused"]["acc1"] for c in calls),
        "fused_label_stability": med(1.0 - c["report"]["flip_rate"]["fused"] for c in calls),
    }


def _git_sha() -> Optional[str]:
    """HEAD's commit when the checkout is a git work tree with a loose ref, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_sha": _git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "trackfuse", "cli.py")):
        print(f"error: no trackfuse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    results_dir = os.path.join(CACHE, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    spans_out = stem + "-spans.json"

    check = run_call(workload, cached_inputs(workload, DEFAULT_SEED, CACHE), None)
    if check["error"] is None and check["digest"] != workload.digest:
        check["error"] = f"digest {check['digest']} at seed {DEFAULT_SEED} != pinned {workload.digest}"
    inputs = cached_inputs(workload, args.seed, CACHE)
    expected = workload.digest if args.seed == DEFAULT_SEED else None

    calls = [check]
    untraced: List[dict] = []
    traced: List[dict] = []
    call_s: List[float] = []
    measure_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        # A call that would end past --seconds is not started, so runs do not overshoot.
        due = now + (statistics.median(call_s) if call_s else 0.0) - measure_start
        complete = untraced and (traced or not args.trace)
        failed = any(c["error"] for c in calls)
        if (due > args.seconds and (complete or failed)) or now - started >= RUN_BUDGET_S:
            break
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        call = run_call(workload, inputs, spans_out if trace_this else None)
        call_s.append(time.perf_counter() - now)
        calls.append(call)
        if call["error"] is None:
            if expected is None:
                expected = call["digest"]
            elif call["digest"] != expected:
                call["error"] = f"digest {call['digest']} differs from {expected}"
        if call["error"] is None and trace_this:
            with open(spans_out, encoding="utf-8") as fh:
                trace = json.load(fh)
            call["layers"] = layer_metrics(trace["spans"], trace["installed"])
        if call["error"]:
            print(f"call failed: {call['error']}", file=sys.stderr)
            continue
        (traced if trace_this else untraced).append(call)

    if check["error"]:
        print(f"check call failed: {check['error']}", file=sys.stderr)
    failures = [c for c in calls if c["error"]]
    n_detections = inputs[2]
    metrics: Dict[str, float] = {}
    units: Dict[str, str] = {}
    if args.trace:
        if traced and untraced:
            metrics = median_metrics([c["layers"] for c in traced])
            metrics["trace.overhead_share"] = (
                statistics.median(ref_s(c, "wall_s") for c in traced)
                / statistics.median(ref_s(c, "wall_s") for c in untraced) - 1.0)
            units = dict(UNITS, **{"trace.overhead_share": "ratio"})
    elif untraced:
        metrics = end_to_end(untraced, n_detections)
        units = E2E_UNITS

    env = environment()
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                   "detections": n_detections, "environment": env, "metrics": metrics,
                   "calls": [{k: v for k, v in c.items() if k != "report"} for c in calls]},
                  fh, indent=1)
    print(json.dumps({"environment": env, "detections": n_detections,
                      "calls": {"untraced": len(untraced), "traced": len(traced)}}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    raise SystemExit(main())
