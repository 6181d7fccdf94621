"""Benchmark metrics: depth/pointmap error ratios, pose errors with similarity
alignment, ray angular errors and the closed-form alignment solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, EmptyDepthError, InvalidValueError, ShapeError
from .geometry import (
    FactoredScene,
    FactoredView,
    MetricScale,
    Pose,
    compose_scene_points,
    quat_mul,
    quat_to_rot,
    ray_angular_error,
    rot_to_quat,
)
from .synth import SceneSample

TAU_DEFAULT = 1.03
AUC_DEFAULT_DEG = 5.0
BASELINE_EPS = 1e-9
# conjugation mask: conj(w, x, y, z) = (w, -x, -y, -z)
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


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
    has (trajectory/pose pair metrics) are NaN."""

    depth_rel: float
    depth_tau: float
    points_rel: float
    points_tau: float
    ate_rmse: float
    pose_auc5: float
    pose_rra_deg: float
    pose_rta_deg: float
    ray_err_deg: float
    scale_rel: float

    def as_dict(self) -> dict:
        return {
            "depth_rel": self.depth_rel,
            "depth_tau": self.depth_tau,
            "points_rel": self.points_rel,
            "points_tau": self.points_tau,
            "ate_rmse": self.ate_rmse,
            "pose_auc5": self.pose_auc5,
            "pose_rra_deg": self.pose_rra_deg,
            "pose_rta_deg": self.pose_rta_deg,
            "ray_err_deg": self.ray_err_deg,
            "scale_rel": self.scale_rel,
        }


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
    p, g = _masked(pred, gt, validity)
    if np.any(g <= 0.0):
        raise InvalidValueError("abs_rel requires positive ground-truth values")
    return float(np.mean(np.abs(p - g) / g))


def inlier_ratio_tau(pred, gt, validity, ratio_threshold: float = TAU_DEFAULT) -> float:
    """Fraction of valid pixels with max(pred/gt, gt/pred) < ratio_threshold."""
    p, g = _masked(pred, gt, validity)
    if np.any(p <= 0.0) or np.any(g <= 0.0):
        raise InvalidValueError("inlier ratio requires positive values")
    ratio = np.maximum(p / g, g / p)
    return float(np.mean(ratio < ratio_threshold))


def median_align(pred, gt, validity) -> tuple[float, np.ndarray]:
    """Median-ratio scale alignment: returns (scale, scale * pred)."""
    p, g = _masked(pred, gt, validity)
    if np.any(p <= 0.0) or np.any(g <= 0.0):
        raise InvalidValueError("median alignment requires positive values")
    scale = float(np.median(g / p))
    return scale, np.asarray(pred, dtype=np.float64) * scale


def scale_rel(pred: MetricScale, gt: MetricScale) -> float:
    return abs(pred.value - gt.value) / gt.value


# ---------------------------------------------------------------------------
# alignment and pose metrics


def umeyama(src, dst, with_scale: bool = True) -> SimilarityTransform:
    """Closed-form least-squares similarity transform mapping src onto dst.

    Minimizes sum ||dst - (s R src + t)||^2. Needs >= 3 non-collinear points;
    collinear or coincident configurations raise DegenerateError.
    """
    src = np.asarray(src, dtype=np.float64).reshape(-1, 3)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 3)
    if src.shape != dst.shape:
        raise ShapeError("point lists must have equal shapes")
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
    if with_scale:
        var_src = float(np.mean(np.sum(xs * xs, axis=1)))
        scale = float(np.trace(np.diag(d) @ s_fix) / var_src)
    else:
        scale = 1.0
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
    sim = umeyama(pred_c, gt_c, with_scale=True)
    res = gt_c - sim.apply(pred_c)
    return float(np.sqrt(np.mean(np.sum(res * res, axis=1))))


def _pair_relative_poses(poses: list[Pose], i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pose of view j in the frame of view i for every index pair: renormalized
    quaternions conj(q_i) * q_j (P, 4) and translations R_i^T (t_j - t_i) (P, 3)."""
    q = np.stack([p.rotation for p in poses])
    t = np.stack([p.translation for p in poses])
    rel_q = quat_mul(q[i] * _CONJ, q[j])
    rel_q /= np.linalg.norm(rel_q, axis=1, keepdims=True)
    rel_t = np.einsum("pki,pk->pi", quat_to_rot(q)[i], t[j] - t[i])
    return rel_q, rel_t


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
    np_, ng = np.linalg.norm(tp, axis=1), np.linalg.norm(tg, axis=1)
    ok = (np_ >= BASELINE_EPS) & (ng >= BASELINE_EPS)
    if not np.any(ok):
        raise DegenerateError("all pose pairs have degenerate baselines")
    cosang = np.clip(np.sum(tp[ok] * tg[ok], axis=1) / (np_[ok] * ng[ok]), -1.0, 1.0)
    rta = np.full(i.size, np.nan)
    rta[ok] = np.degrees(np.arccos(cosang))
    return rra, rta


def auc_at_threshold(errors_deg, max_threshold: float = AUC_DEFAULT_DEG) -> float:
    """Exact area under the accuracy-vs-threshold curve, normalized to [0, 1].

    acc(theta) is piecewise constant in the sorted error list, so the integral
    is sum(max(0, T - e_i)) / (n T).
    """
    e = np.asarray(errors_deg, dtype=np.float64).ravel()
    if e.size == 0:
        raise InvalidValueError("auc requires at least one error value")
    if np.any(e < 0.0):
        raise InvalidValueError("errors must be non-negative")
    return float(np.sum(np.maximum(0.0, max_threshold - e)) / (e.size * max_threshold))


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
    if pred.n_views != len(gt.views):
        raise ShapeError("view counts differ")
    for i, (pv, gv) in enumerate(zip(pred.views, gt.views)):
        if (pv.rays.height, pv.rays.width) != (gv.rays.height, gv.rays.width):
            raise ShapeError(
                f"view {i} resolution mismatch "
                f"(pred {pv.rays.width}x{pv.rays.height}, gt {gv.rays.width}x{gv.rays.height})"
            )

    m_pred = pred.scale.value
    m_gt = gt.scale.value

    d_pred = np.concatenate([m_pred * v.depth.values[g.depth.validity] for v, g in zip(pred.views, gt.views)])
    d_gt = np.concatenate([m_gt * g.depth.values[g.depth.validity] for g in gt.views])
    ones = np.ones_like(d_gt, dtype=bool)
    depth_rel = abs_rel(d_pred, d_gt, ones)
    depth_tau = inlier_ratio_tau(d_pred, d_gt, ones)

    pred_world = compose_scene_points(pred)
    gt_world = compose_scene_points(FactoredScene(
        views=[FactoredView(rays=g.rays, depth=g.depth, pose=g.pose) for g in gt.views],
        scale=MetricScale(m_gt),
    ))
    pw = np.concatenate([w.points[g.depth.validity] for w, g in zip(pred_world, gt.views)])
    gw = np.concatenate([w.points[g.depth.validity] for w, g in zip(gt_world, gt.views)])
    if align_points:
        denom = float(np.sum(pw * pw))
        if denom <= 0.0:
            raise DegenerateError("cannot scale-align all-zero predictions")
        pw = pw * (float(np.sum(pw * gw)) / denom)
    gn = np.linalg.norm(gw, axis=1)
    keep = gn > 0.0
    rel_dist = np.linalg.norm(pw[keep] - gw[keep], axis=1) / gn[keep]
    points_rel = float(np.mean(rel_dist))
    points_tau = float(np.mean(rel_dist < (TAU_DEFAULT - 1.0)))

    n = pred.n_views
    if n >= 3:
        ate = ate_rmse([v.pose for v in pred.views], [g.pose for g in gt.views])
    else:
        ate = float("nan")
    if n >= 2:
        rra, rta = pose_angular_errors([v.pose for v in pred.views], [g.pose for g in gt.views])
        combined = np.where(np.isnan(rta), rra, np.fmax(rra, rta))
        auc = auc_at_threshold(combined)
        rra_mean = float(np.mean(rra))
        rta_mean = float(np.nanmean(rta))
    else:
        auc = rra_mean = rta_mean = float("nan")

    ray_err = float(np.mean([ray_angular_error(v.rays, g.rays) for v, g in zip(pred.views, gt.views)]))
    s_rel = scale_rel(pred.scale, MetricScale(m_gt))

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
