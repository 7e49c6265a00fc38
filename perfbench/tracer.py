"""In-memory span tracer plus function wrappers patched in where callers look names up.

A span is (id, name, start, end, parent, thread, attrs).  Spans nest per
thread; a span opened on a thread with no open span gets, as parent, the
innermost open span of the thread that created the tracer, so work fanned
out to a pool hangs under the call that fanned it out.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

Span = list
# [id, name, start, end, parent, thread, attrs]; a list so it dumps straight to JSON.
ID, NAME, START, END, PARENT, THREAD, ATTRS = range(7)


class Tracer:
    """Thread-safe span recorder; spans stay in memory for the caller to write out at the end."""

    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._stacks: Dict[int, List[Span]] = {}
        self._origin = threading.get_ident()

    def open(self, name: str) -> Span:
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1][ID]
            else:
                origin = self._stacks.get(self._origin)
                parent = origin[-1][ID] if origin and thread != self._origin else None
            span = [len(self.spans), name, 0.0, 0.0, parent, thread, {}]
            self.spans.append(span)
            stack.append(span)
        span[START] = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span[END] = time.perf_counter()
        with self._lock:
            self._stacks[span[THREAD]].pop()


Hook = Callable[[Span, tuple, object], None]
# Called after a wrapped call returns: (span, positional args, result).


def _wrap(tracer: Tracer, original, name: str, hook: Optional[Hook]):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(span)
        if hook is not None:
            hook(span, args, result)
        return result
    return wrapper


Target = Tuple[str, str, str, Optional[Hook]]
# (module, attribute, span name, hook)


@contextmanager
def patched(tracer: Tracer, targets: Iterable[Target]) -> Iterator[List[str]]:
    """Wrap each target while the block runs; yields the span names installed.

    A module or attribute that does not exist is skipped, so its spans are
    simply absent.  Originals are put back even when the block raises.
    """
    undo: List[Tuple[object, str, object]] = []
    installed: List[str] = []
    try:
        for module_name, attr, name, hook in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            setattr(module, attr, _wrap(tracer, original, name, hook))
            undo.append((module, attr, original))
            installed.append(name)
        yield installed
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: duration minus the part of its interval its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span[ID], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)


def tail_percentile(n_samples: int) -> Optional[float]:
    """Highest percentile on the ladder with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if n_samples * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[min(len(ordered), int(rank)) - 1]
