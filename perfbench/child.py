"""One `trackfuse track` call in a fresh interpreter; prints its costs as one JSON line.

Usage: child.py SPANS_OUT ARG...   (SPANS_OUT is "-" for an untraced call)

The parent puts the program's sources on PYTHONPATH.  Import time of
``trackfuse.cli`` is the set-up figure; wall and CPU time cover ``main``
only.  ``kernel_s`` is the mean CPU time of a fixed host-speed kernel run
just before and just after ``main``: the parent scales the call's timings
by it, because the shared host's speed drifts by up to 1.5x within
seconds.  A traced call writes its spans and the installed span names to
SPANS_OUT after ``main`` returns.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import nullcontext


def host_kernel_s() -> float:
    """Mean CPU time, over the CPUs this process may use, of a fixed kernel.

    The kernel mixes interpreter work and small linear algebra, as the
    program's own work does (dict updates, arithmetic, 8x8 solves), so a busy
    host slows it about as much as it slows ``track``.  It runs once pinned
    to each CPU, because ``track`` spreads sequences over all of them and
    each CPU of a shared host is slowed on its own.  CPU time, not wall
    time, because time the host takes a CPU away for altogether made the
    scaled figures spread more.  numpy is imported here, after the set-up
    figure is taken.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, v = rng.random((8, 8)), rng.random(8)
    cpus = os.sched_getaffinity(0)
    cpu_s = 0.0
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            start = time.thread_time()
            counts: dict = {}
            for i in range(60000):
                counts[i % 97] = counts.get(i % 97, 0) + (i * 3) % 7
            for _ in range(4000):
                np.linalg.solve(a @ a.T + np.eye(8), v)
            cpu_s += time.thread_time() - start
    finally:
        os.sched_setaffinity(0, cpus)
    return cpu_s / len(cpus)


def main(argv) -> int:
    spans_out, track_argv = argv[0], argv[1:]
    start = time.perf_counter()
    import trackfuse.cli as cli
    setup_s = time.perf_counter() - start

    tracer, scope = None, nullcontext([])
    if spans_out != "-":
        from layers import TARGETS
        from tracer import Tracer, patched

        tracer = Tracer()
        scope = patched(tracer, TARGETS)
    kernel_before = host_kernel_s()
    with scope as installed:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        code = cli.main(track_argv)
        wall1, cpu1 = time.perf_counter(), time.process_time()
    kernel_s = (kernel_before + host_kernel_s()) / 2.0
    if tracer is not None:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"installed": installed, "spans": tracer.spans}, fh)

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"exit": code, "setup_s": setup_s, "wall_s": wall1 - wall0,
                      "cpu_s": cpu1 - cpu0, "peak_rss_mb": peak_kib / 1024.0,
                      "kernel_s": kernel_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
