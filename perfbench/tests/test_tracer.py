import threading

import pytest

from tracer import Tracer, patched, percentile, self_times, tail_percentile


def span(id_, start, end, parent, thread=1):
    return [id_, f"s{id_}", start, end, parent, thread, {}]


def test_self_time_subtracts_union_of_children():
    spans = [
        span(0, 0.0, 10.0, None),
        span(1, 1.0, 4.0, 0),
        span(2, 3.0, 6.0, 0, thread=2),  # overlaps span 1 from another thread
        span(3, 2.0, 3.0, 1),
        span(4, 8.0, 12.0, 0, thread=2),  # runs past its parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 2.0, 2.0, 3.0, 1.0, 4.0])


def test_worker_thread_span_hangs_under_origin_span():
    tracer = Tracer()
    outer = tracer.open("outer")
    worker = threading.Thread(target=lambda: tracer.close(tracer.open("inner")))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.close(outer)
    inner = tracer.spans[1]
    assert inner[4] == outer[0]
    assert inner[5] != outer[5]


def test_patched_restores_originals_and_skips_missing_names():
    import trackfuse.motion as motion

    original = motion.kf_predict
    tracer = Tracer()
    targets = [("trackfuse.motion", "kf_predict", "motion.predict", None),
               ("trackfuse.motion", "no_such_function", "motion.gone", None),
               ("trackfuse.no_such_module", "f", "gone", None)]
    with pytest.raises(RuntimeError):
        with patched(tracer, targets) as installed:
            assert installed == ["motion.predict"]
            assert motion.kf_predict is not original
            raise RuntimeError("boom")
    assert motion.kf_predict is original


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(100000) == 99.99
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.0
    assert percentile(list(range(1, 101)), 90.0) == 90
