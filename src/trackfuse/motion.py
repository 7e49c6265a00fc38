"""Constant-velocity Kalman filters for box and centroid motion.

Two models:

* ``SORT_CV7`` — state [u, v, s, r, du, dv, ds]: box center, area, aspect
  ratio, and their velocities (aspect held constant).  Observes [u, v, s, r].
* ``CENTROID_CV4`` — state [cx, cy, dcx, dcy]: center plus velocity.  Observes
  [cx, cy] only; the last observed width/height ride along in
  ``KalmanState.extent`` so the state can be rendered back into a box.

Filter steps are pure functions from state to state; a :class:`KalmanState`
is never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import DegenerateGeometry, InvalidConfig, NumericalBreakdown
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
    """Gaussian motion state: mean, covariance, and the spec that drives it."""

    mean: np.ndarray
    cov: np.ndarray
    spec: MotionModelSpec
    extent: Optional[Tuple[float, float]] = None  # (w, h), CENTROID_CV4 only

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        d = self.spec.state_dim
        if mean.shape != (d,) or cov.shape != (d, d):
            raise InvalidConfig(f"state shapes {mean.shape}/{cov.shape} do not fit {self.spec.model}")
        if not np.all(np.isfinite(mean)):
            raise NumericalBreakdown("state mean is not finite")
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def model(self) -> MotionModel:
        return self.spec.model


def transition_matrix(spec: MotionModelSpec) -> np.ndarray:
    d = spec.state_dim
    f = np.eye(d)
    if spec.model is MotionModel.SORT_CV7:
        f[0, 4] = f[1, 5] = f[2, 6] = spec.dt
    else:
        f[0, 2] = f[1, 3] = spec.dt
    return f


def measurement_matrix(spec: MotionModelSpec) -> np.ndarray:
    h = np.zeros((spec.obs_dim, spec.state_dim))
    h[: spec.obs_dim, : spec.obs_dim] = np.eye(spec.obs_dim)
    return h


def _height_like(mean: np.ndarray) -> float:
    # sqrt(s / r) recovers box height from area and aspect; floored at 1 px
    # so noise never collapses to zero on tiny or degenerate states.
    s = max(float(mean[2]), 1e-6)
    r = max(float(mean[3]), 1e-6)
    return max(math.sqrt(s / r), 1.0)


def process_noise(spec: MotionModelSpec, mean: np.ndarray) -> np.ndarray:
    if spec.model is MotionModel.SORT_CV7:
        h = _height_like(mean)
        wp, wv = spec.std_weight_position, spec.std_weight_velocity
        std = np.array([wp * h, wp * h, wp * h * h, 1e-2, wv * h, wv * h, wv * h * h])
        return np.diag(std**2)
    q = spec.process_std
    dt = spec.dt
    # White-acceleration model per axis: position and velocity noise coupled.
    axis = np.array([[dt**4 / 4.0, dt**3 / 2.0], [dt**3 / 2.0, dt**2]]) * q * q
    out = np.zeros((4, 4))
    for pos, vel in ((0, 2), (1, 3)):
        out[pos, pos] = axis[0, 0]
        out[pos, vel] = out[vel, pos] = axis[0, 1]
        out[vel, vel] = axis[1, 1]
    return out


def measurement_noise(spec: MotionModelSpec, mean: np.ndarray) -> np.ndarray:
    if spec.model is MotionModel.SORT_CV7:
        h = _height_like(mean)
        wp = spec.std_weight_position
        std = np.array([wp * h, wp * h, wp * h * h, 1e-1])
        return np.diag(std**2)
    return np.eye(2) * spec.measurement_std**2


def initial_covariance(spec: MotionModelSpec, mean: np.ndarray) -> np.ndarray:
    if spec.model is MotionModel.SORT_CV7:
        h = _height_like(mean)
        wp, wv = spec.std_weight_position, spec.std_weight_velocity
        std = np.array([
            2 * wp * h, 2 * wp * h, 2 * wp * h * h, 1e-1,
            10 * wv * h, 10 * wv * h, 10 * wv * h * h,
        ])
        return np.diag(std**2)
    r, q = spec.measurement_std, spec.process_std
    return np.diag([r * r, r * r, (10 * q) ** 2, (10 * q) ** 2])


def observe_bbox(spec: MotionModelSpec, bbox: BoundingBox) -> np.ndarray:
    """Project a box into the model's measurement space."""
    cx, cy = bbox.center
    if spec.model is MotionModel.SORT_CV7:
        return np.array([cx, cy, bbox.area, bbox.width / bbox.height])
    return np.array([cx, cy])


def _checked_cov(cov: np.ndarray) -> np.ndarray:
    """Symmetrize and verify numerical PSD; raises NumericalBreakdown otherwise."""
    sym = 0.5 * (cov + cov.T)
    try:
        np.linalg.cholesky(sym + PSD_TOLERANCE * np.eye(sym.shape[0]))
    except np.linalg.LinAlgError:
        raise NumericalBreakdown("covariance lost positive semi-definiteness") from None
    return sym


def kf_init(bbox: BoundingBox, spec: MotionModelSpec) -> KalmanState:
    """Initial state centered on a detection with zero velocity."""
    cx, cy = bbox.center
    if spec.model is MotionModel.SORT_CV7:
        mean = np.array([cx, cy, bbox.area, bbox.width / bbox.height, 0.0, 0.0, 0.0])
        extent = None
    else:
        mean = np.array([cx, cy, 0.0, 0.0])
        extent = (bbox.width, bbox.height)
    return KalmanState(mean, initial_covariance(spec, mean), spec, extent)


def kf_predict(state: KalmanState) -> KalmanState:
    """One constant-velocity step: mean <- F mean, cov <- F cov F^T + Q."""
    spec = state.spec
    mean = np.array(state.mean)
    if spec.model is MotionModel.SORT_CV7 and mean[2] + mean[6] * spec.dt <= 0.0:
        # Classic SORT guard: freeze area velocity rather than predict s <= 0.
        mean[6] = 0.0
    f = transition_matrix(spec)
    q = process_noise(spec, mean)
    new_mean = f @ mean
    new_cov = _checked_cov(f @ state.cov @ f.T + q)
    return KalmanState(new_mean, new_cov, spec, state.extent)


def kf_update(state: KalmanState, measurement: BoundingBox) -> KalmanState:
    """Standard Kalman correction against the model's observation of ``measurement``."""
    spec = state.spec
    h = measurement_matrix(spec)
    r = measurement_noise(spec, state.mean)
    z = observe_bbox(spec, measurement)

    innovation = z - h @ state.mean
    s = h @ state.cov @ h.T + r
    try:
        gain = np.linalg.solve(s, h @ state.cov).T
    except np.linalg.LinAlgError:
        raise NumericalBreakdown("innovation covariance is singular") from None
    new_mean = state.mean + gain @ innovation
    new_cov = _checked_cov((np.eye(spec.state_dim) - gain @ h) @ state.cov)

    extent = state.extent
    if spec.model is MotionModel.CENTROID_CV4:
        extent = (measurement.width, measurement.height)
    return KalmanState(new_mean, new_cov, spec, extent)


def state_to_bbox(state: KalmanState) -> BoundingBox:
    """Render the state back into corner form; inverse of :func:`kf_init`'s conversion."""
    mean = state.mean
    if state.model is MotionModel.SORT_CV7:
        s, r = float(mean[2]), float(mean[3])
        if s <= 0.0 or r <= 0.0:
            raise DegenerateGeometry(f"area {s!r} and aspect {r!r} must be positive")
        w = math.sqrt(s * r)
        h = s / w
    else:
        if state.extent is None:
            raise DegenerateGeometry("centroid state carries no width/height")
        w, h = state.extent
        if w <= 0.0 or h <= 0.0:
            raise DegenerateGeometry(f"extent {state.extent!r} must be positive")
    cx, cy = float(mean[0]), float(mean[1])
    return BoundingBox(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
