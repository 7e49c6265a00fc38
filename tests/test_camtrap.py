"""Burst arithmetic and trigger scanning, with an independent scan oracle."""

import numpy as np
import pytest

from trackfuse.camtrap import Burst, TriggerConfig, burst_frames, next_trigger, trigger_bursts
from trackfuse.errors import InvalidConfig, InvalidValue


def _scan_oracle(total_frames, presence, fps, burst_len, cooldown):
    """Plain-python re-implementation of the trigger scan."""
    bursts = []
    cursor = 0
    while cursor < total_frames:
        trigger = None
        for f in range(cursor, total_frames):
            if presence[f]:
                trigger = f
                break
        if trigger is None:
            break
        frames = [trigger + j * fps for j in range(burst_len)]
        bursts.append((trigger, tuple(f for f in frames if f < total_frames)))
        cursor = max(trigger + int(round(cooldown * fps)), trigger + 1)
    return bursts


class TestBurstFrames:
    def test_thirty_fps(self):
        burst = burst_frames(100, TriggerConfig(fps=30))
        assert burst.frame_ids == (100, 130, 160, 190)

    def test_unit_fps(self):
        assert burst_frames(0, TriggerConfig(fps=1)).frame_ids == (0, 1, 2, 3)

    def test_single_frame_burst(self):
        assert burst_frames(42, TriggerConfig(fps=30, burst_len=1)).frame_ids == (42,)

    def test_negative_trigger_rejected(self):
        with pytest.raises(InvalidValue):
            burst_frames(-1, TriggerConfig())


class TestNextTrigger:
    def test_default_cooldown(self):
        assert next_trigger(100, TriggerConfig(fps=30, cooldown=10.0)) == 400

    def test_zero_cooldown(self):
        assert next_trigger(77, TriggerConfig(fps=30, cooldown=0.0)) == 77

    def test_25_fps(self):
        assert next_trigger(0, TriggerConfig(fps=25, cooldown=5.0)) == 125


class TestTriggerConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(fps=0), dict(burst_len=0), dict(cooldown=-1.0), dict(fps=1.5),
        dict(cooldown=float("inf")), dict(cooldown=1e307),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidConfig):
            TriggerConfig(**kwargs)

    def test_burst_frames_must_increase(self):
        with pytest.raises(InvalidValue):
            Burst(0, (3, 2, 1))


class TestSimulateTriggers:
    def test_nothing_visible(self):
        config = TriggerConfig(fps=30)
        assert trigger_bursts(np.flatnonzero([False] * 100).tolist(), 100, config) == []

    def test_always_visible_matches_cooldown_formula(self):
        # t_{m+1} = t_m + cooldown * fps: 0, 300, 600, 900 at 30 fps / 10 s.
        config = TriggerConfig(fps=30, cooldown=10.0)
        bursts = trigger_bursts(np.flatnonzero([True] * 1000).tolist(), 1000, config)
        assert [b.trigger_frame for b in bursts] == [0, 300, 600, 900]
        assert bursts[0].frame_ids == (0, 30, 60, 90)
        # The last burst would run to 990, which still fits; no truncation.
        assert bursts[-1].frame_ids == (900, 930, 960, 990)

    def test_tail_burst_is_truncated(self):
        config = TriggerConfig(fps=30, cooldown=10.0)
        bursts = trigger_bursts(np.flatnonzero([True] * 950).tolist(), 950, config)
        assert bursts[-1].trigger_frame == 900
        assert bursts[-1].frame_ids == (900, 930)

    def test_single_visible_frame(self):
        presence = [False] * 200
        presence[50] = True
        bursts = trigger_bursts(np.flatnonzero(presence).tolist(), 200, TriggerConfig(fps=30))
        assert len(bursts) == 1
        assert bursts[0].trigger_frame == 50
        assert bursts[0].frame_ids == (50, 80, 110, 140)

    def test_zero_cooldown_terminates(self):
        config = TriggerConfig(fps=5, cooldown=0.0)
        bursts = trigger_bursts(np.flatnonzero([True] * 10).tolist(), 10, config)
        assert [b.trigger_frame for b in bursts] == list(range(10))

    def test_matches_scan_oracle_on_random_presence(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            total = int(rng.integers(1, 400))
            presence = rng.random(total) < 0.15
            fps = int(rng.integers(1, 40))
            burst_len = int(rng.integers(1, 6))
            cooldown = float(rng.integers(0, 12))
            config = TriggerConfig(fps=fps, burst_len=burst_len, cooldown=cooldown)
            got = [(b.trigger_frame, b.frame_ids)
                   for b in trigger_bursts(np.flatnonzero(presence).tolist(), total, config)]
            assert got == _scan_oracle(total, presence, fps, burst_len, cooldown)

    def test_bursts_disjoint_when_cooldown_exceeds_burst_span(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            total = int(rng.integers(50, 500))
            presence = rng.random(total) < 0.3
            fps = int(rng.integers(1, 30))
            config = TriggerConfig(fps=fps, burst_len=4, cooldown=float(rng.integers(4, 15)))
            bursts = trigger_bursts(np.flatnonzero(presence).tolist(), total, config)
            seen = set()
            for b in bursts:
                assert all(f < total for f in b.frame_ids)
                assert seen.isdisjoint(b.frame_ids)
                seen.update(b.frame_ids)

    def test_consecutive_starts_respect_cooldown(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            total = int(rng.integers(100, 600))
            presence = rng.random(total) < 0.5
            fps = int(rng.integers(1, 25))
            cooldown = float(rng.integers(0, 10))
            config = TriggerConfig(fps=fps, cooldown=cooldown)
            bursts = trigger_bursts(np.flatnonzero(presence).tolist(), total, config)
            starts = [b.trigger_frame for b in bursts]
            for a, b in zip(starts, starts[1:]):
                assert b - a >= cooldown * fps
