"""Input/output factorizations: per-view depth scale, pose scale, log encodings
and the norm scaling factors used by every scale-invariant loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDepthError, InvalidValueError
from .geometry import DepthAlongRay, MetricScale, PointMap, _norm3, _pool, _rowwise

POSE_SCALE_EPS = 1e-9
LOG_SCALE_MIN = 1e-6
LOG_SCALE_MAX = 1e6


@dataclass
class DepthFactors:
    """Mean valid ray depth and the depth map normalized to mean 1."""

    z_d: float
    normalized: DepthAlongRay


@dataclass
class PoseScaleFactors:
    """Mean translation norm and translations divided by it.

    ``degenerate`` flags the all-near-zero case, where z_p is reported as 0 and
    the translations are passed through unchanged.
    """

    z_p: float
    normalized_translations: np.ndarray  # (N, 3)
    degenerate: bool = False


@dataclass
class NormScale:
    """Mean Euclidean norm of valid points pooled across views."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not np.isfinite(v) or v <= 0.0:
            raise InvalidValueError("norm scale must be finite and > 0")
        self.value = v


def factor_depth(d: DepthAlongRay) -> DepthFactors:
    """Split a depth map into its mean valid depth and a mean-1 normalized map."""
    if not np.any(d.validity):
        raise EmptyDepthError("cannot factor a depth map with no valid pixels")
    z_d = float(np.mean(d.values[d.validity]))
    return DepthFactors(z_d=z_d, normalized=DepthAlongRay(d.values / z_d, d.validity.copy()))


def factor_pose_scale(translations: np.ndarray) -> PoseScaleFactors:
    """Split translations into their mean norm and unit-mean-norm directions."""
    t = np.asarray(translations, dtype=np.float64).reshape(-1, 3)
    if t.shape[0] == 0:
        raise InvalidValueError("pose scale requires at least one translation")
    if not np.all(np.isfinite(t)):
        raise InvalidValueError("pose scale requires finite translations")
    z_p = float(np.mean(_norm3(t)))
    if z_p <= POSE_SCALE_EPS:
        return PoseScaleFactors(z_p=0.0, normalized_translations=t.copy(), degenerate=True)
    return PoseScaleFactors(z_p=z_p, normalized_translations=t / z_p)


def encode_log_scale(s: float) -> float:
    """ln of the scale after clamping to [1e-6, 1e6]."""
    s = float(s)
    if not np.isfinite(s):
        raise InvalidValueError("scale must be finite")
    return float(np.log(np.clip(s, LOG_SCALE_MIN, LOG_SCALE_MAX)))


def decode_log_scale(y: float) -> float:
    y = float(y)
    if not np.isfinite(y):
        raise InvalidValueError("encoded scale must be finite")
    with np.errstate(over="ignore"):  # exp's inf clips to LOG_SCALE_MAX
        return float(np.clip(np.exp(y), LOG_SCALE_MIN, LOG_SCALE_MAX))


def f_log(x, axis: int | None = None):
    """Log-space squashing map x -> (x / |x|) * log(1 + |x|).

    With ``axis=None`` the map is applied elementwise (the 1-D specialization
    sign(x) * log(1 + |x|)); with an ``axis`` the norm is taken along it and the
    direction is preserved. Zero maps to zero.
    """
    x = np.asarray(x, dtype=np.float64)
    if axis is None:
        return np.sign(x) * np.log1p(np.abs(x))
    n = np.linalg.norm(x, axis=axis, keepdims=True)
    return x * np.divide(np.log1p(n), n, out=np.ones_like(n), where=n > 0.0)


def f_log_jacobian(x: np.ndarray) -> np.ndarray:
    """Analytic 3x3 Jacobian of the vector f_log at a nonzero point."""
    x = np.asarray(x, dtype=np.float64).reshape(3)
    n = np.linalg.norm(x)
    if n == 0.0:
        return np.eye(3)
    u = x / n
    outer = np.outer(u, u)
    return (np.log1p(n) / n) * (np.eye(3) - outer) + outer / (1.0 + n)


def norm_scale(pointmaps: list[PointMap]) -> NormScale:
    """Mean norm of all valid points pooled over the given views."""
    offsets, points = _pool("norm scale", [pm.validity for pm in pointmaps], [pm.points for pm in pointmaps])
    return _norm_scale(points, offsets)


def _norm_scale(points: np.ndarray, offsets: np.ndarray, keep: np.ndarray | None = None) -> NormScale:
    """norm_scale of (N, 3) points pooled at view ``offsets`` (see
    geometry._pool), over the points where ``keep`` is set if it is given.

    The per-view partial sums are added in view order: one np.sum over all N
    norms would round differently.
    """
    norms = _rowwise(_norm3, points)
    total, count = 0.0, 0
    for a, b in zip(offsets, offsets[1:]):
        x = norms[a:b] if keep is None else norms[a:b][keep[a:b]]
        total += float(np.sum(x))
        count += x.size
    if count == 0:
        raise EmptyDepthError("norm scale requires at least one valid point")
    return NormScale(total / count)


def metric_norm_scale(m: MetricScale, z_pred: NormScale) -> NormScale:
    """Metric norm scale m * z_pred.

    Contract: the scale loss treats z_pred as a constant (stop-gradient), so
    its analytic derivative with respect to any geometry prediction is zero.
    """
    if not isinstance(m, MetricScale) or not isinstance(z_pred, NormScale):
        raise InvalidValueError(f"metric_norm_scale needs a MetricScale and a NormScale, got {type(m).__name__} and {type(z_pred).__name__}")
    return NormScale(m.value * z_pred.value)
