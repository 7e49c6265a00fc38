"""Every function the benchmark's per-layer trace wraps still exists under its name.

A rename inside ``src/`` would otherwise drop that layer from the trace
without an error until the benchmark's own restore test runs.
"""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def test_every_trace_target_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers.py imports its sibling tracer.py
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    for module, attr, *_ in layers.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
