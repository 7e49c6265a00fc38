"""Constant-velocity Kalman filters for box and centroid motion.

Two models:

* ``SORT_CV7`` — state [u, v, s, r, du, dv, ds]: box center, area, aspect
  ratio, and their velocities (aspect held constant).  Observes [u, v, s, r].
* ``CENTROID_CV4`` — state [cx, cy, dcx, dcy]: center plus velocity.  Observes
  [cx, cy] only; the last observed width/height ride along as the state's
  extent so the state can be rendered back into a box.

Filter steps take a table of N states, ``means`` (N, d) and ``covs``
(N, d, d), and return new arrays without writing to their inputs.  Each row
keeps a one-state filter's operation order, so its result does not depend on
the other rows.  ``kf_*`` are the one-row forms over a :class:`KalmanState`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidConfig, NumericalBreakdown
from .model import BoundingBox, config_number

PSD_TOLERANCE = 1e-9
# A covariance counts as numerically PSD while its smallest eigenvalue
# stays above -PSD_TOLERANCE.


class MotionModel(Enum):
    SORT_CV7 = "sort_cv7"
    CENTROID_CV4 = "centroid_cv4"


NOISE_FIELDS = {  # the MotionModelSpec fields each model's filter reads
    MotionModel.SORT_CV7: ("dt", "std_weight_position", "std_weight_velocity"),
    MotionModel.CENTROID_CV4: ("dt", "process_std", "measurement_std"),
}


@dataclass(frozen=True)
class MotionModelSpec:
    """Noise configuration for one motion model.

    ``std_weight_position``/``std_weight_velocity`` scale the SORT_CV7 noise by
    the state's height analogue h = sqrt(s / r); area terms scale with h^2.
    ``process_std``/``measurement_std`` are the CENTROID_CV4 pixel sigmas.
    """

    model: MotionModel
    dt: float = 1.0
    std_weight_position: float = 1.0 / 20.0
    std_weight_velocity: float = 1.0 / 160.0
    process_std: float = 1.0
    measurement_std: float = 1.0

    def __post_init__(self):
        for name in ("dt", "std_weight_position", "std_weight_velocity",
                     "process_std", "measurement_std"):
            value = config_number(getattr(self, name), name)
            if not value > 0.0:
                raise InvalidConfig(f"{name} must be > 0")
            object.__setattr__(self, name, value)

    @property
    def state_dim(self) -> int:
        return 7 if self.model is MotionModel.SORT_CV7 else 4

    @property
    def obs_dim(self) -> int:
        return 4 if self.model is MotionModel.SORT_CV7 else 2


def default_spec(model: MotionModel) -> MotionModelSpec:
    return MotionModelSpec(model=model)


@dataclass(frozen=True)
class KalmanState:
    """One Gaussian motion state: the form the one-row filter steps take and return."""

    mean: np.ndarray
    cov: np.ndarray
    spec: MotionModelSpec
    extent: Optional[Tuple[float, float]] = None  # (w, h), CENTROID_CV4 only


def transition_matrix(spec: MotionModelSpec) -> np.ndarray:
    d = spec.state_dim
    f = np.eye(d)
    if spec.model is MotionModel.SORT_CV7:
        f[0, 4] = f[1, 5] = f[2, 6] = spec.dt
    else:
        f[0, 2] = f[1, 3] = spec.dt
    return f


def measurement_matrix(spec: MotionModelSpec) -> np.ndarray:
    return np.eye(spec.obs_dim, spec.state_dim)


def _height_like(means: np.ndarray) -> np.ndarray:
    # sqrt(s / r) recovers box height from area and aspect; floored at 1 px
    # so noise never collapses to zero on tiny or degenerate states.
    s, r = np.maximum(means[:, 2], 1e-6), np.maximum(means[:, 3], 1e-6)
    return np.maximum(np.sqrt(s / r), 1.0)


def _diagonal(n: int, *std) -> np.ndarray:
    """(n, k, k): the squares of the k columns ``std``, each (n,) or scalar, on the diagonal."""
    out = np.zeros((n, len(std), len(std)))
    for i, column in enumerate(std):
        out[:, i, i] = np.asarray(column) ** 2
    return out


def process_noise(spec: MotionModelSpec, means: np.ndarray) -> np.ndarray:
    """Q of every row, (N, d, d)."""
    if spec.model is MotionModel.SORT_CV7:
        h = _height_like(means)
        wp, wv = spec.std_weight_position, spec.std_weight_velocity
        return _diagonal(len(means), wp * h, wp * h, wp * h * h, 1e-2, wv * h, wv * h, wv * h * h)
    # White-acceleration model per axis: position and velocity noise coupled.
    dt, q = spec.dt, spec.process_std
    a, b, c = dt**4 / 4.0, dt**3 / 2.0, dt**2
    out = np.array([[a, 0, b, 0], [0, a, 0, b], [b, 0, c, 0], [0, b, 0, c]]) * q * q
    return np.broadcast_to(out, (len(means), 4, 4))


def measurement_noise(spec: MotionModelSpec, means: np.ndarray) -> np.ndarray:
    """R of every row, (N, o, o)."""
    if spec.model is MotionModel.SORT_CV7:
        h = _height_like(means)
        wp = spec.std_weight_position
        return _diagonal(len(means), wp * h, wp * h, wp * h * h, 1e-1)
    return np.broadcast_to(np.eye(2) * spec.measurement_std**2, (len(means), 2, 2))


def initial_covariance(spec: MotionModelSpec, means: np.ndarray) -> np.ndarray:
    """Starting covariance of every row, (N, d, d)."""
    if spec.model is MotionModel.SORT_CV7:
        h = _height_like(means)
        wp, wv = spec.std_weight_position, spec.std_weight_velocity
        return _diagonal(len(means), 2 * wp * h, 2 * wp * h, 2 * wp * h * h, 1e-1,
                         10 * wv * h, 10 * wv * h, 10 * wv * h * h)
    r, q = spec.measurement_std, spec.process_std
    return np.tile(np.diag([r * r, r * r, (10 * q) ** 2, (10 * q) ** 2]), (len(means), 1, 1))


def observe(spec: MotionModelSpec, boxes: np.ndarray) -> np.ndarray:
    """Project corner-form boxes (N, 4) into the model's measurement space, (N, o)."""
    x1, y1, x2, y2 = boxes.T
    w, h = x2 - x1, y2 - y1
    cx, cy = 0.5 * (x1 + x2), 0.5 * (y1 + y2)
    if spec.model is MotionModel.SORT_CV7:
        return np.stack([cx, cy, w * h, w / h], axis=1)
    return np.stack([cx, cy], axis=1)


def _checked(means: np.ndarray, covs: np.ndarray,
             ids: Optional[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetrize ``covs`` and verify each is finite and numerically PSD and each mean finite.

    Raises NumericalBreakdown naming the first failing row (by ``ids`` when given).
    """
    name = (lambda row: f"row {row}") if ids is None else (lambda row: f"track {ids[row]}")
    sym = 0.5 * (covs + covs.swapaxes(-1, -2))
    # cholesky does not raise on a NaN or inf matrix, so finiteness is its own check.
    finite = np.isfinite(sym).all(axis=(1, 2))
    if not finite.all():
        raise NumericalBreakdown(f"covariance of {name(np.argmin(finite))} is not finite")
    shifted = sym + PSD_TOLERANCE * np.eye(sym.shape[-1])
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        for row, cov in enumerate(shifted):
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise NumericalBreakdown(f"covariance of {name(row)} lost "
                                         "positive semi-definiteness") from None
    finite = np.isfinite(means).all(axis=1)
    if not finite.all():
        raise NumericalBreakdown(f"state mean of {name(np.argmin(finite))} is not finite")
    return means, sym


def init(boxes: np.ndarray, spec: MotionModelSpec,
         ids: Optional[Sequence[int]] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Initial means and covariances centered on corner-form boxes (N, 4), zero velocity."""
    means = np.zeros((len(boxes), spec.state_dim))
    means[:, : spec.obs_dim] = observe(spec, boxes)
    with np.errstate(over="ignore"):  # an infinite covariance is _checked's NumericalBreakdown
        covs = initial_covariance(spec, means)
    return _checked(means, covs, ids)


def predict(means: np.ndarray, covs: np.ndarray, spec: MotionModelSpec,
            ids: Optional[Sequence[int]] = None) -> Tuple[np.ndarray, np.ndarray]:
    """One constant-velocity step of every row: mean <- F mean, cov <- F cov F^T + Q."""
    if spec.model is MotionModel.SORT_CV7:
        # Classic SORT guard: freeze area velocity rather than predict s <= 0.
        means = means.copy()
        means[means[:, 2] + means[:, 6] * spec.dt <= 0.0, 6] = 0.0
    f = transition_matrix(spec)
    new_means = np.matmul(f, means[..., None])[..., 0]
    return _checked(new_means, f @ covs @ f.T + process_noise(spec, means), ids)


def update(means: np.ndarray, covs: np.ndarray, boxes: np.ndarray, spec: MotionModelSpec,
           ids: Optional[Sequence[int]] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Standard Kalman correction of every row against the observation of its box."""
    h = measurement_matrix(spec)
    innovation = observe(spec, boxes) - np.matmul(h, means[..., None])[..., 0]
    hp = h @ covs
    s = hp @ h.T + measurement_noise(spec, means)
    try:
        gain = np.linalg.solve(s, hp).swapaxes(-1, -2)
    except np.linalg.LinAlgError:
        raise NumericalBreakdown("innovation covariance is singular") from None
    new_means = means + np.matmul(gain, innovation[..., None])[..., 0]
    return _checked(new_means, (np.eye(spec.state_dim) - gain @ h) @ covs, ids)


def corner_boxes(means: np.ndarray, extents: Optional[np.ndarray],
                 spec: MotionModelSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Every row rendered back into corner form (N, 4), inverse of :func:`init`'s conversion.

    Also returns the rows with no box, whose boxes are placeholders: a
    non-positive area or aspect (SORT_CV7) or ``extents`` (N, 2) (CENTROID_CV4).
    """
    cx, cy = means[:, 0], means[:, 1]
    if spec.model is MotionModel.SORT_CV7:
        degenerate = (means[:, 2] <= 0.0) | (means[:, 3] <= 0.0)
        s = np.where(degenerate, 1.0, means[:, 2])
        with np.errstate(over="ignore"):  # an infinite box is the caller's InvalidValue
            w = np.sqrt(s * np.where(degenerate, 1.0, means[:, 3]))
        h = s / w
    else:
        w, h = extents[:, 0], extents[:, 1]
        degenerate = (w <= 0.0) | (h <= 0.0)
    boxes = np.stack([cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0], axis=1)
    return boxes, degenerate


def kf_init(bbox: BoundingBox, spec: MotionModelSpec) -> KalmanState:
    """Initial state centered on a detection with zero velocity."""
    means, covs = init(np.array([bbox.as_tuple()]), spec)
    extent = (bbox.width, bbox.height) if spec.model is MotionModel.CENTROID_CV4 else None
    return KalmanState(means[0], covs[0], spec, extent)


def kf_predict(state: KalmanState) -> KalmanState:
    """:func:`predict` of one state."""
    means, covs = predict(state.mean[None], state.cov[None], state.spec)
    return KalmanState(means[0], covs[0], state.spec, state.extent)


def kf_update(state: KalmanState, measurement: BoundingBox) -> KalmanState:
    """:func:`update` of one state against ``measurement``."""
    means, covs = update(state.mean[None], state.cov[None],
                         np.array([measurement.as_tuple()]), state.spec)
    extent = ((measurement.width, measurement.height)
              if state.spec.model is MotionModel.CENTROID_CV4 else state.extent)
    return KalmanState(means[0], covs[0], state.spec, extent)

