"""Motion-triggered camera-trap sampling over a continuous frame timeline.

A trigger at frame t starts a burst of ``burst_len`` frames spaced one second
apart ({t, t+F, t+2F, t+3F} by default), after which the trap stays cold for
``cooldown`` seconds: the next trigger cannot start before t + cooldown * F.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import InvalidConfig, InvalidValue


@dataclass(frozen=True)
class TriggerConfig:
    fps: int = 30
    burst_len: int = 4
    cooldown: float = 10.0  # seconds

    def __post_init__(self):
        if int(self.fps) != self.fps or self.fps < 1:
            raise InvalidConfig(f"fps must be an integer >= 1, got {self.fps!r}")
        object.__setattr__(self, "fps", int(self.fps))
        if int(self.burst_len) != self.burst_len or self.burst_len < 1:
            raise InvalidConfig(f"burst_len must be an integer >= 1, got {self.burst_len!r}")
        object.__setattr__(self, "burst_len", int(self.burst_len))
        cooldown = float(self.cooldown)
        if not (0.0 <= cooldown < np.inf and cooldown * self.fps < np.inf):
            raise InvalidConfig("cooldown must be >= 0 seconds and cooldown * fps finite, "
                                f"got {self.cooldown!r}")
        object.__setattr__(self, "cooldown", cooldown)


@dataclass(frozen=True)
class Burst:
    trigger_frame: int
    frame_ids: Tuple[int, ...]

    def __post_init__(self):
        ids = tuple(int(f) for f in self.frame_ids)
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise InvalidValue("burst frame ids must be strictly increasing")
        object.__setattr__(self, "frame_ids", ids)


def burst_frames(trigger_frame: int, config: TriggerConfig) -> Burst:
    """Frames captured for one trigger: trigger_frame + j * fps, j < burst_len."""
    if trigger_frame < 0:
        raise InvalidValue(f"trigger frame must be >= 0, got {trigger_frame!r}")
    ids = tuple(trigger_frame + j * config.fps for j in range(config.burst_len))
    return Burst(trigger_frame, ids)


def next_trigger(trigger_frame: int, config: TriggerConfig) -> int:
    """Earliest frame at which the trap can fire again: t + cooldown * fps."""
    if trigger_frame < 0:
        raise InvalidValue(f"trigger frame must be >= 0, got {trigger_frame!r}")
    return trigger_frame + int(round(config.cooldown * config.fps))


def trigger_bursts(visible: Sequence[int], total_frames: int,
                   config: TriggerConfig) -> List[Burst]:
    """The bursts a trap captures, given the sorted, distinct frame ids where something is visible.

    A burst starts at the first visible frame at or after the cool-down
    cursor; bursts running past ``total_frames`` are truncated rather than
    dropped.  Costs O(bursts * log(len(visible))), whatever the frame ids'
    magnitude.  A per-frame visibility mask ``presence`` maps to
    ``visible`` as ``np.flatnonzero(presence).tolist()``.
    """
    bursts: List[Burst] = []
    i = 0
    while i < len(visible):
        t = visible[i]
        full = burst_frames(t, config)
        ids = tuple(f for f in full.frame_ids if f < total_frames)
        bursts.append(Burst(t, ids))
        # Zero cool-down still advances past the trigger frame.
        cursor = max(next_trigger(t, config), t + 1)
        i = bisect.bisect_left(visible, cursor, i)
    return bursts
