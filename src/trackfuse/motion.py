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

_ZERO, _HALF, _ONE, _TWO, _TOL, _SR_FLOOR = map(np.array, (0.0, 0.5, 1.0, 2.0, PSD_TOLERANCE, 1e-6))
# The steps' float constants, and a spec's ``_dt``, as 0-d arrays: the same float64 results, but
# numpy converts a Python float operand on each ufunc call (~0.2 us, ~5 % of a SORT step).


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
    ``state_dim`` and ``obs_dim`` are the model's state and observation sizes.
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
        sort = self.model is MotionModel.SORT_CV7  # plain attributes, which every step reads
        self.__dict__.update(state_dim=7 if sort else 4, obs_dim=4 if sort else 2,
                             _dt=np.array(self.dt))


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
    sr = np.maximum(means[2:4], _SR_FLOOR)
    h = np.maximum(np.sqrt(sr[0] / sr[1]), _ONE)
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
    a, b = covs[0] + _TOL, covs[1]
    psd = (a > _ZERO) & (a * (covs[2] + _TOL) > b * b)
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
    dt, o = spec._dt, spec.obs_dim
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.model is MotionModel.SORT_CV7:
            # Classic SORT guard: freeze area velocity rather than predict s <= 0.
            frozen = means[2] + means[6] * dt <= _ZERO
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
        if np.count_nonzero(s == _ZERO):
            raise NumericalBreakdown("innovation covariance is singular")
        gains = covs[:2] * (_ONE / s)  # a / s and b / s, per block
        k, kv = gains[0], gains[1]  # indexed: unpacking an array iterates it in Python
        new_means = means.copy()
        new_means[:o] += k * innovation
        new_means[o:] += kv[:moved] * innovation[:moved]
        new_covs = (_ONE - k) * covs  # (1 - k) a and (1 - k) b; c overwritten below
        new_covs[1] += b - kv * a
        new_covs[1] *= _HALF
        new_covs[2] = covs[2] - kv * b
        return _checked(new_means, new_covs, ids)


def corner_boxes(means: np.ndarray, extents: Optional[np.ndarray],
                 spec: MotionModelSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Every state rendered back into corner form (4, N), inverse of :func:`observe`.

    Also returns the states with no box, whose boxes are placeholders: a
    non-positive area or aspect (SORT_CV7) or ``extents`` (2, N) (CENTROID_CV4).
    """
    sort = spec.model is MotionModel.SORT_CV7
    sized = means[2:4] if sort else extents  # area and aspect, or width and height
    low = sized <= _ZERO
    degenerate = low[0] | low[1]
    if sort:
        if np.count_nonzero(degenerate):  # placeholder 1.0s, copied only when a row needs one
            sized = np.where(degenerate, 1.0, sized)
        with np.errstate(over="ignore"):  # an infinite box is the caller's InvalidValue
            w = np.sqrt(sized[:1] * sized[1:])  # rows (1, N): s and r, indexed, not unpacked
        half = np.concatenate([w, sized[:1] / w]) / _TWO
    else:
        half = extents / _TWO
    return np.concatenate([means[:2] - half, means[:2] + half]), degenerate
