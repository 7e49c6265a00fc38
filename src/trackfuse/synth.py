"""Deterministic synthetic scenarios: moving boxes, noisy detections, flicker.

Objects move linearly and reflect off the image borders.  Each frame, each
object yields a detection with probability 1 - dropout; boxes get Gaussian
center jitter, scores are uniform in ``score_range``, and the class
distribution is drawn from a symmetric flicker model: with probability
1 - flicker the mass ``confidence`` sits on the true class, otherwise on a
uniformly chosen wrong class, the remainder spread evenly.  Everything is a
pure function of (config, seed).  A scenario's detections are a one-sequence
:class:`~trackfuse.model.Columns` record, as ``io.read_columns`` gives for its
file: it lists only the frames that hold detections, and names its sequence "".
``Scenario.detection_frames`` lists them as rows for ``io.write_detections``, which
the ``synth`` command and the benchmark's input writer call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import InvalidConfig, InvalidValue
from .io import DetectionRow
from .model import Columns, LabelSet, validate_distribution


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario's parameters: every real number finite, no speed beyond the smaller side."""

    seed: int = 0
    num_objects: int = 5
    num_frames: int = 100
    image_size: Tuple[int, int] = (1024, 1024)
    n_classes: int = 10
    velocities: Optional[Tuple[Tuple[float, float], ...]] = None  # px/frame, else sampled
    start_centers: Optional[Tuple[Tuple[float, float], ...]] = None  # px, else sampled
    speed_range: Tuple[float, float] = (1.0, 5.0)
    size_range: Tuple[float, float] = (24.0, 64.0)
    dropout: float = 0.0
    jitter: float = 0.0  # px, Gaussian center noise
    flicker: float = 0.0
    confidence: float = 0.8  # mass placed on the drawn class
    embedding_dim: int = 16
    embedding_separation: float = 8.0
    score_range: Tuple[float, float] = (0.55, 1.0)

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if self.num_objects < 1 or self.num_frames < 1:
            raise InvalidConfig("need at least one object and one frame")
        if self.n_classes < 2:
            raise InvalidConfig("need at least two classes")
        w, h = self.image_size
        if not (1 <= w < math.inf and 1 <= h < math.inf):
            raise InvalidConfig(f"bad image_size {self.image_size!r}: need finite sides >= 1")
        lo, hi = self.size_range
        if not (0.0 < lo <= hi) or hi >= min(w, h) / 2.0:
            raise InvalidConfig(f"bad size range {self.size_range!r} for image {self.image_size!r}")
        if not (0.0 <= self.dropout < 1.0):
            raise InvalidConfig("dropout must lie in [0, 1)")
        if not (0.0 <= self.flicker < 1.0):
            raise InvalidConfig("flicker must lie in [0, 1)")
        if not (0.0 <= self.jitter < math.inf):
            raise InvalidConfig("jitter must be finite and >= 0")
        if not (1.0 / self.n_classes < self.confidence <= 1.0):
            raise InvalidConfig("confidence must exceed 1/n_classes and not exceed 1")
        side = min(w, h)  # a faster object would bounce off the borders many times per frame
        s_lo, s_hi = self.speed_range
        if not (0.0 <= s_lo <= s_hi <= side):
            raise InvalidConfig(f"bad speed_range {self.speed_range!r}: need 0 <= lo <= hi <= {side}")
        r_lo, r_hi = self.score_range
        if not (0.0 <= r_lo <= r_hi <= 1.0):
            raise InvalidConfig(f"bad score range {self.score_range!r}")
        if self.embedding_dim < 0:
            raise InvalidConfig("embedding_dim must be >= 0")
        if not (0.0 < self.embedding_separation < math.inf):
            raise InvalidConfig("embedding_separation must be finite and > 0")
        if self.velocities is not None:
            vel = tuple((float(vx), float(vy)) for vx, vy in self.velocities)
            if len(vel) != self.num_objects:
                raise InvalidConfig("velocities must list one (vx, vy) per object")
            if not all(math.hypot(vx, vy) <= side for vx, vy in vel):  # False for NaN
                raise InvalidConfig(f"velocities must be finite with speeds <= {side}, got {vel!r}")
            object.__setattr__(self, "velocities", vel)
        if self.start_centers is not None:
            pos = tuple((float(cx), float(cy)) for cx, cy in self.start_centers)
            if len(pos) != self.num_objects:
                raise InvalidConfig("start_centers must list one (cx, cy) per object")
            if not all(0.0 <= cx <= w and 0.0 <= cy <= h for cx, cy in pos):  # False for NaN
                raise InvalidConfig(f"start_centers must lie in [0, {w}] x [0, {h}], got {pos!r}")
            object.__setattr__(self, "start_centers", pos)


@dataclass(frozen=True, eq=False)
class Scenario:
    """One generated sequence: its config, label set and detections as a one-sequence record."""

    config: ScenarioConfig
    label_set: LabelSet
    columns: Columns

    def detection_frames(self) -> List[Tuple[int, List[DetectionRow]]]:
        """Per-frame rows for ``io.write_detections``, one pair per frame with detections;
        probs and embeddings are read-only views of the columns' rows."""
        cols, emb = self.columns, self.columns.emb[0]
        rows = [DetectionRow(frame_id, box, score, cols.probs[i],
                             None if emb is None else emb[i], gt_class, gt_track)
                for i, (frame_id, box, score, gt_class, gt_track) in enumerate(zip(
                    cols.frame.tolist(), zip(*cols.box.T.tolist()), cols.score.tolist(),
                    cols.gt_class.tolist(), cols.gt_track.tolist()))]
        bounds = cols.starts.tolist()  # a slice is exact-size; appending over-allocates
        return [(frame_id, rows[lo:hi])
                for frame_id, lo, hi in zip(cols.frame_ids.tolist(), bounds, bounds[1:])]


def flicker_class(true_class: int, config: ScenarioConfig, rng: np.random.Generator) -> int:
    """The flicker draw: ``true_class``, or with probability ``flicker`` a random wrong class."""
    n = config.n_classes
    if not 0 <= true_class < n:
        raise InvalidConfig(f"true_class {true_class} outside [0, {n})")
    if rng.random() < config.flicker:
        wrong = int(rng.integers(0, n - 1))
        return wrong + (wrong >= true_class)
    return true_class


def _bounce(pos: float, vel: float, lo: float, hi: float) -> Tuple[float, float]:
    pos += vel
    while pos < lo or pos > hi:
        if pos < lo:
            pos = 2.0 * lo - pos
        else:
            pos = 2.0 * hi - pos
        vel = -vel
    return pos, vel


def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Build the full scenario for (config, seed); same inputs give identical output."""
    rng = np.random.default_rng(config.seed)
    img_w, img_h = config.image_size
    n = config.num_objects

    sizes = rng.uniform(config.size_range[0], config.size_range[1], size=(n, 2))
    classes = rng.integers(0, config.n_classes, size=n)
    if config.velocities is not None:
        vel = np.array(config.velocities, dtype=float)
    else:
        speed = rng.uniform(config.speed_range[0], config.speed_range[1], size=n)
        angle = rng.uniform(0.0, 2.0 * math.pi, size=n)
        vel = np.stack([speed * np.cos(angle), speed * np.sin(angle)], axis=1)
    if config.start_centers is not None:
        centers = np.array(config.start_centers, dtype=float)
    else:
        centers = np.stack([
            rng.uniform(sizes[:, 0] / 2.0, img_w - sizes[:, 0] / 2.0),
            rng.uniform(sizes[:, 1] / 2.0, img_h - sizes[:, 1] / 2.0),
        ], axis=1)

    protos = None
    if config.embedding_dim > 0:
        protos = rng.normal(size=(n, config.embedding_dim))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        protos *= config.embedding_separation

    # One row per detection, in frame order and object order within a frame.
    frame, box, score, label, obj, emb = [], [], [], [], [], []
    for frame_id in range(config.num_frames):
        for k in range(n):
            w, h = sizes[k]
            if frame_id > 0:
                centers[k, 0], vel[k, 0] = _bounce(centers[k, 0], vel[k, 0], w / 2.0, img_w - w / 2.0)
                centers[k, 1], vel[k, 1] = _bounce(centers[k, 1], vel[k, 1], h / 2.0, img_h - h / 2.0)
            if rng.random() < config.dropout:
                continue
            cx, cy = centers[k]
            jx, jy = rng.normal(0.0, config.jitter, size=2) if config.jitter > 0 else (0.0, 0.0)
            box.append((cx - w / 2.0 + jx, cy - h / 2.0 + jy, cx + w / 2.0 + jx, cy + h / 2.0 + jy))
            score.append(rng.uniform(config.score_range[0], config.score_range[1]))
            label.append(flicker_class(int(classes[k]), config, rng))
            if protos is not None:
                emb.append(protos[k] + rng.normal(size=config.embedding_dim))
            frame.append(frame_id)
            obj.append(k)

    box = np.array(box, dtype=float).reshape(-1, 4)
    if not (np.isfinite(box).all() and (box[:, 2:] > box[:, :2]).all()):
        raise InvalidValue(f"jitter {config.jitter!r} moved a box beyond float range or precision")
    c = config.n_classes  # row t: ``confidence`` on class t, the rest spread evenly
    flicker_table = np.full((c, c), (1.0 - config.confidence) / (c - 1))
    np.fill_diagonal(flicker_table, config.confidence)
    probs = validate_distribution(flicker_table, c)[np.array(label, dtype=np.int64)]
    emb = None if protos is None else np.array(emb, dtype=float).reshape(-1, config.embedding_dim)
    for column in (probs, emb):
        if column is not None:
            column.setflags(write=False)
    frame, obj = np.array(frame, dtype=np.int64), np.array(obj, dtype=np.int64)
    frame_ids, firsts = np.unique(frame, return_index=True)  # only the frames with detections
    columns = Columns(
        frame=frame, box=box, score=np.array(score, dtype=float), probs=probs, emb=(emb,),
        gt_class=classes[obj], gt_track=obj + 1, frame_ids=frame_ids,
        starts=np.append(firsts, len(frame)), names=("",), bounds=np.array([0, len(frame)]),
    )
    names = [f"class_{i:02d}" for i in range(config.n_classes)]
    return Scenario(config=config, label_set=LabelSet(names), columns=columns)
