"""Constant-velocity Kalman filters for box and centroid motion.

Two models:

* ``SORT_CV7`` — state [u, v, s, r, du, dv, ds]: box center, area, aspect
  ratio, and their velocities (aspect held constant).  Observes [u, v, s, r].
* ``CENTROID_CV4`` — state [cx, cy, dcx, dcy]: center plus velocity.  Observes
  [cx, cy] only; the last observed width/height ride along as the state's
  extent so the state can be rendered back into a box.

The filter steps :func:`kf_init`, :func:`kf_predict` and :func:`kf_update` take
N states, ``means`` (N, d) and ``covs`` (N, d, d), and return new arrays without
writing to their inputs.  Each row keeps a one-state filter's operation order,
so its result does not depend on the other rows; one state is a one-row table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidConfig, NumericalBreakdown
from .model import config_number

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
        # The filter's constant matrices, built once per spec and shared read-only.
        d, o = self.state_dim, self.obs_dim
        f = np.eye(d)
        f[np.arange(d - o), np.arange(o, d)] = self.dt  # position i moves by dt * velocity i + o
        matrices = {"_f": f, "_h": np.eye(o, d), "_eye": np.eye(d),
                    "_psd_shift": PSD_TOLERANCE * np.eye(d)}
        if self.model is MotionModel.CENTROID_CV4:  # its Q, R and P0 are constant too
            dt, q, r = np.float64([self.dt, self.process_std, self.measurement_std])
            with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, checked below
                a, b, c = dt**4 / 4.0, dt**3 / 2.0, dt**2
                # White-acceleration model per axis: position and velocity noise coupled.
                matrices.update(
                    _q=np.array([[a, 0, b, 0], [0, a, 0, b], [b, 0, c, 0], [0, b, 0, c]]) * q * q,
                    _r=np.eye(2) * r**2, _p0=np.diag([r * r, r * r, (10 * q) ** 2, (10 * q) ** 2]))
            for name, fields in (("_q", "dt or process_std"), ("_r", "measurement_std"),
                                 ("_p0", "measurement_std or process_std")):
                if not np.isfinite(matrices[name]).all():
                    raise InvalidConfig(f"{fields} too large: {name[1:].upper()} is not finite")
        for name, matrix in matrices.items():
            matrix.setflags(write=False)
            object.__setattr__(self, name, matrix)

    @property
    def state_dim(self) -> int:
        return 7 if self.model is MotionModel.SORT_CV7 else 4

    @property
    def obs_dim(self) -> int:
        return 4 if self.model is MotionModel.SORT_CV7 else 2


def default_spec(model: MotionModel) -> MotionModelSpec:
    return MotionModelSpec(model=model)


def transition_matrix(spec: MotionModelSpec) -> np.ndarray:
    """F of ``spec``, (d, d): shared, read-only."""
    return spec._f


def measurement_matrix(spec: MotionModelSpec) -> np.ndarray:
    """H = [I 0] of ``spec``, (o, d): shared, read-only."""
    return spec._h


def _sort_diagonal(means: np.ndarray, coef: Sequence[float]) -> np.ndarray:
    """(N, k, k) SORT_CV7 noise, std * std on the diagonal: std = h * coef, times h again in the
    area columns (2, 6), and ``coef[3]`` as is.  h = sqrt(s / r) is the box height, floored
    at 1 px so noise never collapses to zero on tiny or degenerate states."""
    sr = np.maximum(means[:, 2:4], 1e-6)
    h = np.maximum(np.sqrt(sr[:, :1] / sr[:, 1:]), 1.0)
    std = h * coef
    std[:, 2::4] *= h
    std[:, 3] = coef[3]
    n, k = std.shape
    out = np.zeros((n, k, k))
    out.reshape(n, k * k)[:, :: k + 1] = std * std
    return out


def process_noise(spec: MotionModelSpec, means: np.ndarray) -> np.ndarray:
    """Q of every row, (N, d, d)."""
    if spec.model is MotionModel.SORT_CV7:
        wp, wv = spec.std_weight_position, spec.std_weight_velocity
        return _sort_diagonal(means, (wp, wp, wp, 1e-2, wv, wv, wv))
    return np.broadcast_to(spec._q, (len(means), 4, 4))


def measurement_noise(spec: MotionModelSpec, means: np.ndarray) -> np.ndarray:
    """R of every row, (N, o, o)."""
    if spec.model is MotionModel.SORT_CV7:
        wp = spec.std_weight_position
        return _sort_diagonal(means, (wp, wp, wp, 1e-1))
    return np.broadcast_to(spec._r, (len(means), 2, 2))


def initial_covariance(spec: MotionModelSpec, means: np.ndarray) -> np.ndarray:
    """Starting covariance of every row, (N, d, d)."""
    if spec.model is MotionModel.SORT_CV7:
        wp, wv = 2 * spec.std_weight_position, 10 * spec.std_weight_velocity
        return _sort_diagonal(means, (wp, wp, wp, 1e-1, wv, wv, wv))
    return np.broadcast_to(spec._p0, (len(means), 4, 4))


def observe(spec: MotionModelSpec, boxes: np.ndarray) -> np.ndarray:
    """Project corner-form boxes (N, 4) into the model's measurement space, (N, o)."""
    lo, hi = boxes[:, :2], boxes[:, 2:]
    center = 0.5 * (lo + hi)
    if spec.model is MotionModel.SORT_CV7:
        size = hi - lo
        w, h = size[:, :1], size[:, 1:]
        return np.concatenate([center, w * h, w / h], axis=1)
    return center


def _checked(means: np.ndarray, covs: np.ndarray, spec: MotionModelSpec,
             ids: Optional[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetrize ``covs`` and verify each is finite and numerically PSD and each mean finite.

    Raises NumericalBreakdown naming the first failing row (by ``ids`` when given).
    """
    name = (lambda row: f"row {row}") if ids is None else (lambda row: f"track {ids[row]}")
    covs = covs + covs.swapaxes(-1, -2)
    covs *= 0.5
    # cholesky does not raise on a NaN or inf matrix, so finiteness is its own check.
    if not np.isfinite(covs).all():
        finite = np.isfinite(covs).all(axis=(1, 2))
        raise NumericalBreakdown(f"covariance of {name(np.argmin(finite))} is not finite")
    shifted = covs + spec._psd_shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        for row, cov in enumerate(shifted):
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise NumericalBreakdown(f"covariance of {name(row)} lost "
                                         "positive semi-definiteness") from None
    if not np.isfinite(means).all():
        finite = np.isfinite(means).all(axis=1)
        raise NumericalBreakdown(f"state mean of {name(np.argmin(finite))} is not finite")
    return means, covs


def kf_init(boxes: np.ndarray, spec: MotionModelSpec,
            ids: Optional[Sequence[int]] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Initial means and covariances centered on corner-form boxes (N, 4), zero velocity."""
    means = np.zeros((len(boxes), spec.state_dim))
    means[:, : spec.obs_dim] = observe(spec, boxes)
    with np.errstate(over="ignore"):  # an infinite covariance is _checked's NumericalBreakdown
        covs = initial_covariance(spec, means)
    return _checked(means, covs, spec, ids)


def kf_predict(means: np.ndarray, covs: np.ndarray, spec: MotionModelSpec,
               ids: Optional[Sequence[int]] = None) -> Tuple[np.ndarray, np.ndarray]:
    """One constant-velocity step of every row: mean <- F mean, cov <- F cov F^T + Q."""
    if spec.model is MotionModel.SORT_CV7:
        # Classic SORT guard: freeze area velocity rather than predict s <= 0.
        frozen = means[:, 2] + means[:, 6] * spec.dt <= 0.0
        if frozen.any():
            means = means.copy()
            means[frozen, 6] = 0.0
    f = transition_matrix(spec)
    new_means = np.matmul(f, means[..., None])[..., 0]
    return _checked(new_means, f @ covs @ f.T + process_noise(spec, means), spec, ids)


def kf_update(means: np.ndarray, covs: np.ndarray, boxes: np.ndarray, spec: MotionModelSpec,
              ids: Optional[Sequence[int]] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Standard Kalman correction of every row against the observation of its box.

    H = [I 0]: H m, H P and H P H^T are exactly leading slices, as kf_predict keeps P finite.
    """
    o = spec.obs_dim
    innovation = observe(spec, boxes) - means[:, :o]
    hp = covs[:, :o]
    s = hp[..., :o] + measurement_noise(spec, means)
    try:
        gain = np.linalg.solve(s, hp).swapaxes(-1, -2)
    except np.linalg.LinAlgError:
        raise NumericalBreakdown("innovation covariance is singular") from None
    new_means = means + np.matmul(gain, innovation[..., None])[..., 0]
    return _checked(new_means, (spec._eye - gain @ measurement_matrix(spec)) @ covs, spec, ids)


def corner_boxes(means: np.ndarray, extents: Optional[np.ndarray],
                 spec: MotionModelSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Every row rendered back into corner form (N, 4), inverse of :func:`kf_init`'s conversion.

    Also returns the rows with no box, whose boxes are placeholders: a
    non-positive area or aspect (SORT_CV7) or ``extents`` (N, 2) (CENTROID_CV4).
    """
    if spec.model is MotionModel.SORT_CV7:
        sr = means[:, 2:4]
        degenerate = (sr <= 0.0).any(axis=1)
        sr = np.where(degenerate[:, None], 1.0, sr)
        s = sr[:, :1]
        with np.errstate(over="ignore"):  # an infinite box is the caller's InvalidValue
            w = np.sqrt(s * sr[:, 1:])
        half = np.concatenate([w, s / w], axis=1) / 2.0
    else:
        degenerate = (extents <= 0.0).any(axis=1)
        half = extents / 2.0
    center = means[:, :2]
    return np.concatenate([center - half, center + half], axis=1), degenerate

