import pytest

from run import KERNEL_REF_S, end_to_end


def call(wall_s, kernel_s):
    return {"setup_s": wall_s / 2, "wall_s": wall_s, "cpu_s": wall_s, "kernel_s": kernel_s,
            "peak_rss_mb": 80.0, "report": {"fused": {"acc1": 0.9}, "flip_rate": {"fused": 0.1}}}


def test_timings_are_scaled_to_the_reference_host():
    walls = (1.0, 1.2, 1.5)
    quiet = end_to_end([call(w, KERNEL_REF_S) for w in walls], 1000)
    assert quiet["detections_per_s"] == pytest.approx(1000 / 1.2)
    assert quiet["setup_s"] == pytest.approx(0.6)
    # A host half as fast during one call doubles that call and its kernel alike.
    busy = end_to_end([call(1.0, KERNEL_REF_S), call(2.4, 2 * KERNEL_REF_S),
                       call(1.5, KERNEL_REF_S)], 1000)
    assert busy == pytest.approx(quiet)
