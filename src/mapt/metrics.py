"""Benchmark metrics: depth/pointmap error ratios, pose errors with similarity
alignment, ray angular errors and the closed-form alignment solvers."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, EmptyDepthError, InvalidValueError, ShapeError
from .geometry import (
    FactoredScene,
    MetricScale,
    Pose,
    _CONJ,
    _dot3,
    _norm3,
    _pair_relative_poses,
    _pool,
    _pool_composed,
    _rowwise,
    quat_mul,
    quat_to_rot,
    ray_angular_error,
    rot_to_quat,
)
from .synth import SceneSample

TAU_DEFAULT = 1.03
AUC_DEFAULT_DEG = 5.0
BASELINE_EPS = 1e-9


@dataclass
class SimilarityTransform:
    """x -> scale * R(rotation) @ x + translation."""

    scale: float
    rotation: np.ndarray  # unit quaternion (w, x, y, z)
    translation: np.ndarray  # (3,)

    def apply(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        return self.scale * (pts @ quat_to_rot(self.rotation).T) + self.translation


@dataclass
class MetricReport:
    """Per-scene benchmark numbers. Fields that need more views than the scene
    has are None: ``ate_rmse`` below 3 views, the pose metrics for 1 view."""

    depth_rel: float
    depth_tau: float
    points_rel: float
    points_tau: float
    ate_rmse: float | None
    pose_auc5: float | None
    pose_rra_deg: float | None
    pose_rta_deg: float | None
    ray_err_deg: float
    scale_rel: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# scalar-grid metrics


def _masked(pred, gt, validity) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    validity = np.asarray(validity, dtype=bool)
    if pred.shape != gt.shape or validity.shape != gt.shape:
        raise ShapeError("value grids and validity must share one shape")
    if not np.any(validity):
        raise EmptyDepthError("no valid pixels")
    return pred[validity], gt[validity]


def abs_rel(pred, gt, validity) -> float:
    """Mean |pred - gt| / gt over valid pixels."""
    return _abs_rel(*_masked(pred, gt, validity))


def _abs_rel(p: np.ndarray, g: np.ndarray) -> float:
    if not np.all((g > 0.0) & (g < np.inf)) or np.isnan(p).any():
        raise InvalidValueError("abs_rel requires finite positive ground-truth values and no NaN prediction")
    return float(np.mean(np.abs(p - g) / g))


def inlier_ratio_tau(pred, gt, validity) -> float:
    """Fraction of valid pixels with max(pred/gt, gt/pred) < TAU_DEFAULT; +inf is an outlier."""
    return _inlier_ratio_tau(*_masked(pred, gt, validity))


def _inlier_ratio_tau(p: np.ndarray, g: np.ndarray) -> float:
    if not (np.all(p > 0.0) and np.all(g > 0.0)):
        raise InvalidValueError("inlier ratio requires positive values")
    ratio = np.maximum(p / g, g / p)
    return float(np.mean(ratio < TAU_DEFAULT))


def median_align(pred, gt, validity) -> tuple[float, np.ndarray]:
    """Median-ratio scale alignment: returns (scale, scale * pred)."""
    p, g = _masked(pred, gt, validity)
    if not np.all((p > 0.0) & (p < np.inf) & (g > 0.0) & (g < np.inf)):
        raise InvalidValueError("median alignment requires finite positive values")
    scale = float(np.median(g / p))
    return scale, np.asarray(pred, dtype=np.float64) * scale


def scale_rel(pred: MetricScale, gt: MetricScale) -> float:
    return abs(pred.value - gt.value) / gt.value


# ---------------------------------------------------------------------------
# alignment and pose metrics


def umeyama(src, dst) -> SimilarityTransform:
    """Closed-form least-squares similarity transform mapping src onto dst.

    Minimizes sum ||dst - (s R src + t)||^2. Needs >= 3 non-collinear points;
    collinear or coincident configurations raise DegenerateError.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.ndim != 2 or src.shape[1] != 3:
        raise ShapeError(f"point lists must be (N, 3), got {src.shape}")
    if src.shape != dst.shape:
        raise ShapeError("point lists must have equal shapes")
    if not (np.all(np.isfinite(src)) and np.all(np.isfinite(dst))):
        raise InvalidValueError("similarity alignment requires finite points")
    n = src.shape[0]
    if n < 3:
        raise DegenerateError("similarity alignment needs at least 3 points")
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    xs = src - mu_s
    xd = dst - mu_d
    cov = xd.T @ xs / n
    u, d, vt = np.linalg.svd(cov)
    if d[0] <= 0.0 or d[1] <= 1e-12 * d[0]:
        raise DegenerateError("degenerate (collinear or coincident) point configuration")
    s_fix = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0.0:
        s_fix[2, 2] = -1.0
    rot = u @ s_fix @ vt
    scale = float(np.trace(np.diag(d) @ s_fix) / float(np.mean(_dot3(xs, xs))))
    t = mu_d - scale * (rot @ mu_s)
    return SimilarityTransform(scale=scale, rotation=rot_to_quat(rot), translation=t)


def ate_rmse(pred_traj: list[Pose], gt_traj: list[Pose]) -> float:
    """RMSE of camera centers after best similarity alignment of the prediction."""
    if len(pred_traj) != len(gt_traj):
        raise ShapeError("trajectory lengths differ")
    if len(pred_traj) < 3:
        raise DegenerateError("trajectory alignment needs at least 3 poses")
    pred_c = np.stack([p.translation for p in pred_traj])
    gt_c = np.stack([p.translation for p in gt_traj])
    sim = umeyama(pred_c, gt_c)
    res = gt_c - sim.apply(pred_c)
    return float(np.sqrt(np.mean(_dot3(res, res))))


def pose_angular_errors(pred: list[Pose], gt: list[Pose]) -> tuple[np.ndarray, np.ndarray]:
    """Relative rotation / translation-direction errors in degrees per ordered pair.

    Pairs (i, j) with i != j come in row-major order: (0, 1), (0, 2), ...,
    (1, 0), (1, 2), ... Translation entries are NaN for pairs whose
    ground-truth or predicted baseline is shorter than 1e-9 (direction
    undefined). Raises when every pair is translation-degenerate.
    """
    if len(pred) != len(gt):
        raise ShapeError("pose list lengths differ")
    if len(pred) < 2:
        raise DegenerateError("pose errors need at least 2 poses")
    i, j = np.nonzero(~np.eye(len(pred), dtype=bool))
    qp, tp = _pair_relative_poses(pred, i, j)
    qg, tg = _pair_relative_poses(gt, i, j)
    dq = quat_mul(qg * _CONJ, qp)
    rra = 2.0 * np.degrees(np.arccos(np.clip(np.abs(dq[:, 0]), -1.0, 1.0)))
    np_, ng = _norm3(tp), _norm3(tg)
    ok = (np_ >= BASELINE_EPS) & (ng >= BASELINE_EPS)
    if not np.any(ok):
        raise DegenerateError("all pose pairs have degenerate baselines")
    cosang = np.clip(_dot3(tp[ok], tg[ok]) / (np_[ok] * ng[ok]), -1.0, 1.0)
    rta = np.full(i.size, np.nan)
    rta[ok] = np.degrees(np.arccos(cosang))
    return rra, rta


def auc_at_threshold(errors_deg) -> float:
    """Exact area under the accuracy-vs-threshold curve up to T = AUC_DEFAULT_DEG,
    normalized to [0, 1].

    acc(theta) is piecewise constant in the sorted error list, so the integral
    is sum(max(0, T - e_i)) / (n T).
    """
    e = np.asarray(errors_deg, dtype=np.float64).ravel()
    if e.size == 0:
        raise InvalidValueError("auc requires at least one error value")
    if not np.all(e >= 0.0):
        raise InvalidValueError("errors must be non-negative")
    return float(np.sum(np.maximum(0.0, AUC_DEFAULT_DEG - e)) / (e.size * AUC_DEFAULT_DEG))


# ---------------------------------------------------------------------------
# scene-level evaluation


def evaluate_scene(pred: FactoredScene, gt: SceneSample, align_points: bool = False) -> MetricReport:
    """All benchmark metrics of a predicted factored scene against ground truth.

    Depth metrics compare metric ray depths on ground-truth-valid pixels pooled
    over views. Point metrics use the per-pixel Euclidean distance to the
    ground-truth world point relative to its norm; a pixel is a tau inlier when
    that relative distance is below (tau - 1). With align_points set, one
    global least-squares scale is fitted to the predicted points first.
    """
    if not isinstance(pred, FactoredScene) or not isinstance(gt, SceneSample):
        raise InvalidValueError(f"evaluate_scene needs a FactoredScene and a SceneSample, got {type(pred).__name__} and {type(gt).__name__}")
    masks = [g.depth.validity for g in gt.views]

    _, dp, dg = _pool("evaluate scene", masks, [v.depth.values for v in pred.views], [g.depth.values for g in gt.views])
    if not dg.size:
        raise EmptyDepthError("no valid pixels")
    dp *= pred.scale.value
    dg *= gt.scale.value
    depth_rel = _abs_rel(dp, dg)
    depth_tau = _inlier_ratio_tau(dp, dg)
    del dp, dg  # the metric depths, scaled in place, go before the points are composed

    pw = _pool_composed(masks, [(v.rays.directions, v.depth.validity, v.depth.values, v.pose, pred.scale.value) for v in pred.views])
    gw = _pool_composed(masks, [(g.rays.directions, g.depth.validity, g.depth.values, g.pose, gt.scale.value) for g in gt.views])
    if align_points:
        denom = float(np.sum(pw * pw))
        if denom <= 0.0:
            raise DegenerateError("cannot scale-align all-zero predictions")
        pw *= float(np.sum(pw * gw)) / denom
    gn = _rowwise(_norm3, gw)
    keep = gn > 0.0
    rel_dist = _rowwise(lambda x, y: _norm3(x - y), pw, gw)[keep] / gn[keep]
    points_rel = float(np.mean(rel_dist))
    points_tau = float(np.mean(rel_dist < (TAU_DEFAULT - 1.0)))

    poses = [v.pose for v in pred.views], [g.pose for g in gt.views]
    ate = ate_rmse(*poses) if pred.n_views >= 3 else None
    auc = rra_mean = rta_mean = None
    if pred.n_views >= 2:
        rra, rta = pose_angular_errors(*poses)
        auc = auc_at_threshold(np.where(np.isnan(rta), rra, np.fmax(rra, rta)))
        rra_mean = float(np.mean(rra))
        rta_mean = float(np.nanmean(rta))

    ray_err = float(np.mean([ray_angular_error(v.rays, g.rays) for v, g in zip(pred.views, gt.views)]))
    s_rel = scale_rel(pred.scale, gt.scale)

    return MetricReport(
        depth_rel=depth_rel,
        depth_tau=depth_tau,
        points_rel=points_rel,
        points_tau=points_tau,
        ate_rmse=ate,
        pose_auc5=auc,
        pose_rra_deg=rra_mean,
        pose_rta_deg=rta_mean,
        ray_err_deg=ray_err,
        scale_rel=s_rel,
    )
