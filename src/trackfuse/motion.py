"""Constant-velocity Kalman filters for box and centroid motion.

Two models:

* ``SORT_CV7`` — state [u, v, s, r, du, dv, ds]: box center, area, aspect
  ratio, and their velocities (aspect held constant).  Observes [u, v, s, r].
* ``CENTROID_CV4`` — state [cx, cy, dcx, dcy]: center plus velocity.  Observes
  [cx, cy] only; the last observed width/height ride along as the state's
  extent so the state can be rendered back into a box.

In both models the transition, the noise and the starting covariance couple
each observed coordinate only with its own velocity, so every covariance the
filter holds is block-diagonal: one 2×2 block [[a, b], [b, c]] per observed
coordinate, a its variance, c its velocity's variance and b their covariance.
SORT_CV7's aspect r has no velocity; its block keeps b = c = 0.

The filter steps :func:`kf_init`, :func:`kf_predict` and :func:`kf_update` take
N states on the last axis, ``means`` (d, N) and ``covs`` (3, o, N) holding rows
a, b and c of the o blocks, so every operation reads and writes whole contiguous
rows (on small tables a strided column costs 2-3x as much).  So do boxes, (4, N)
rows x1, y1, x2, y2, which :func:`observe` projects once per sequence into the
observations (o, N) :func:`kf_init` and :func:`kf_update` take.  The steps return
new arrays without writing to their inputs.  They are elementwise, so a
state's result does not depend on the others; one state is a one-column table.
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
        # The noise rows (_noise), built once per spec and shared read-only, (k, o, 1): a, b, c
        # of Q and P0 and R's variance; SORT_CV7's as standard deviations _noise scales.
        if self.model is MotionModel.SORT_CV7:
            wp, wv = self.std_weight_position, self.std_weight_velocity
            noise = {"_q": [[wp, wp, wp, 1e-2], [0.0] * 4, [wv, wv, wv, 0.0]],
                     "_r": [[wp, wp, wp, 1e-1]],
                     "_p0": [[2 * wp, 2 * wp, 2 * wp, 1e-1], [0.0] * 4,
                             [10 * wv, 10 * wv, 10 * wv, 0.0]]}
        else:  # constant: Q, R and P0 the same for every state
            dt, q, r = np.float64([self.dt, self.process_std, self.measurement_std])
            with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, checked below
                # White-acceleration model per axis: position and velocity noise coupled.
                noise = {"_q": [[dt**4 / 4.0 * q * q], [dt**3 / 2.0 * q * q], [dt**2 * q * q]],
                         "_r": [[r**2]], "_p0": [[r * r], [0.0], [(10 * q) ** 2]]}
            for name, fields in (("_q", "dt or process_std"), ("_r", "measurement_std"),
                                 ("_p0", "measurement_std or process_std")):
                if not np.isfinite(noise[name]).all():
                    raise InvalidConfig(f"{fields} too large: {name[1:].upper()} is not finite")
        for name, rows in noise.items():
            rows = np.array(rows)[..., None]
            rows.setflags(write=False)
            object.__setattr__(self, name, rows)

    @property
    def state_dim(self) -> int:
        return 7 if self.model is MotionModel.SORT_CV7 else 4

    @property
    def obs_dim(self) -> int:
        return 4 if self.model is MotionModel.SORT_CV7 else 2


def default_spec(model: MotionModel) -> MotionModelSpec:
    return MotionModelSpec(model=model)


def _noise(spec: MotionModelSpec, means: np.ndarray, name: str) -> np.ndarray:
    """Noise rows ``name`` of every state: (k, o, N), or (k, 1, 1) when constant (CENTROID_CV4).

    SORT_CV7's are (h * std)², times h again in the area column, and the aspect's
    variance as is: h = sqrt(s / r) is the box height, floored at 1 px so noise
    never collapses to zero on tiny or degenerate states.
    """
    stds = getattr(spec, name)
    if spec.model is MotionModel.CENTROID_CV4:
        return stds
    sr = np.maximum(means[2:4], 1e-6)
    h = np.maximum(np.sqrt(sr[0] / sr[1]), 1.0)
    std = stds * h
    std[:, 2] *= h
    std[0, 3] = stds[0, 3]
    return std * std


def observe(spec: MotionModelSpec, boxes: np.ndarray) -> np.ndarray:
    """Project boxes (4, N) into measurement space (o, N); an overflow is inf or NaN, unwarned."""
    lo, hi = boxes[:2], boxes[2:]
    with np.errstate(over="ignore", invalid="ignore"):
        center = 0.5 * (lo + hi)
        if spec.model is MotionModel.SORT_CV7:
            w, h = (hi - lo)[:, None]  # rows (1, N)
            return np.concatenate([center, w * h, w / h])
        return center


def _checked(means: np.ndarray, covs: np.ndarray,
             ids: Optional[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Verify each covariance is finite and numerically PSD and each mean finite.

    A block is numerically PSD when the Cholesky factorisation of the block plus
    PSD_TOLERANCE * I exists: with a+ = a + tol and c+ = c + tol, a+ > 0 and
    a+ c+ > b², which imply c+ > 0.  Raises NumericalBreakdown naming the first
    failing state (by ``ids`` when given).  Call under np.errstate(over="ignore").
    """
    name = (lambda row: f"row {row}") if ids is None else (lambda row: f"track {ids[row]}")
    if np.count_nonzero(np.isfinite(covs)) < covs.size:  # one C call; .all() goes via Python
        finite = np.isfinite(covs).all(axis=(0, 1))
        raise NumericalBreakdown(f"covariance of {name(np.argmin(finite))} is not finite")
    a, b = covs[0] + PSD_TOLERANCE, covs[1]
    psd = (a > 0.0) & (a * (covs[2] + PSD_TOLERANCE) > b * b)
    if np.count_nonzero(psd) < psd.size:
        row = np.argmin(psd.all(axis=0))
        raise NumericalBreakdown(f"covariance of {name(row)} lost positive semi-definiteness")
    if np.count_nonzero(np.isfinite(means)) < means.size:
        finite = np.isfinite(means).all(axis=0)
        raise NumericalBreakdown(f"state mean of {name(np.argmin(finite))} is not finite")
    return means, covs


def kf_init(obs: np.ndarray, spec: MotionModelSpec,
            ids: Optional[Sequence[int]] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Initial means and covariances centered on observations ``obs`` (o, N), zero velocity."""
    means = np.zeros((spec.state_dim, obs.shape[1]))
    means[: spec.obs_dim] = obs
    covs = np.empty((3, spec.obs_dim, obs.shape[1]))
    # An overflow is _checked's NumericalBreakdown, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        covs[:] = _noise(spec, means, "_p0")
        return _checked(means, covs, ids)


def kf_predict(means: np.ndarray, covs: np.ndarray, spec: MotionModelSpec,
               ids: Optional[Sequence[int]] = None) -> Tuple[np.ndarray, np.ndarray]:
    """One constant-velocity step of every state: mean <- F mean, cov <- F cov F^T + Q.

    Per block: b' = b + dt c, a' = a + dt b + dt b', c' = c, plus Q's a, b and c.
    """
    dt, o = spec.dt, spec.obs_dim
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.model is MotionModel.SORT_CV7:
            # Classic SORT guard: freeze area velocity rather than predict s <= 0.
            frozen = means[2] + means[6] * dt <= 0.0
            if np.count_nonzero(frozen):
                means = means.copy()
                means[6, frozen] = 0.0
        new_means = means.copy()
        new_means[: spec.state_dim - o] += dt * means[o:]
        new_covs = covs.copy()
        new_covs[:2] += dt * covs[1:]  # a + dt b and b' = b + dt c
        new_covs[0] += dt * new_covs[1]
        new_covs += _noise(spec, means, "_q")
        return _checked(new_means, new_covs, ids)


def kf_update(means: np.ndarray, covs: np.ndarray, obs: np.ndarray, spec: MotionModelSpec,
              ids: Optional[Sequence[int]] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Standard Kalman correction of every state against its observation, ``obs`` (o, N).

    Per block, with innovation variance a + R's variance: gain k on the coordinate and
    kv on its velocity.  The new b averages the two off-diagonal entries of
    (I - K H) P, which differ in rounding.
    """
    o, moved = spec.obs_dim, spec.state_dim - spec.obs_dim
    a, b = covs[0], covs[1]
    with np.errstate(over="ignore", invalid="ignore"):
        innovation = obs - means[:o]
        s = a + _noise(spec, means, "_r")[0]
        if np.count_nonzero(s == 0.0):
            raise NumericalBreakdown("innovation covariance is singular")
        k, kv = covs[:2] * (1.0 / s)  # a / s and b / s, per block
        new_means = means.copy()
        new_means[:o] += k * innovation
        new_means[o:] += kv[:moved] * innovation[:moved]
        new_covs = (1.0 - k) * covs  # (1 - k) a and (1 - k) b; c overwritten below
        new_covs[1] += b - kv * a
        new_covs[1] *= 0.5
        new_covs[2] = covs[2] - kv * b
        return _checked(new_means, new_covs, ids)


def corner_boxes(means: np.ndarray, extents: Optional[np.ndarray],
                 spec: MotionModelSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Every state rendered back into corner form (4, N), inverse of :func:`observe`.

    Also returns the states with no box, whose boxes are placeholders: a
    non-positive area or aspect (SORT_CV7) or ``extents`` (2, N) (CENTROID_CV4).
    """
    if spec.model is MotionModel.SORT_CV7:
        degenerate = (means[2:4] <= 0.0).any(axis=0)
        s, r = np.where(degenerate, 1.0, means[2:4])[:, None]  # rows (1, N)
        with np.errstate(over="ignore"):  # an infinite box is the caller's InvalidValue
            w = np.sqrt(s * r)
        half = np.concatenate([w, s / w]) / 2.0
    else:
        degenerate = (extents <= 0.0).any(axis=0)
        half = extents / 2.0
    center = means[:2]
    return np.concatenate([center - half, center + half]), degenerate
