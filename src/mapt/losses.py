"""Training-loss suite: robust kernel, factored regression losses and the
weighted total.

Conventions (fixed for this artifact):
  * every summed loss is reduced as a mean over views / valid pixels, pooled
    across views in row-major view order;
  * the robust kernel is applied to the per-pixel residual *norm*;
  * the top-fraction exclusion applies to the depth and local-pointmap losses
    only, pooled across all views of a sample;
  * the confidence-weighted pointmap loss has no exclusion (confidence plays
    that role).
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDepthError, InvalidValueError, ShapeError
from .factorization import NormScale, _norm_scale, f_log, metric_norm_scale
from .geometry import (
    DepthAlongRay,
    FactoredScene,
    MetricScale,
    PointMap,
    RayMap,
    _blocks,
    _check,
    _compose,
    _dot3,
    _forward_normals,
    _norm3,
    _pool,
    _pool_bands,
    _pool_composed,
    _rowwise,
)
from .synth import SceneSample

# Weight of each term in the total objective, in the order the total adds
# them: the global pointmap term is up-weighted and the mask term
# down-weighted; everything else is 1.
_WEIGHTS = {
    "pointmap": 10.0,
    "rays": 1.0,
    "rot": 1.0,
    "translation": 1.0,
    "depth": 1.0,
    "lpm": 1.0,
    "scale": 1.0,
    "normal": 1.0,
    "gm": 1.0,
    "mask": 0.1,
}

DEFAULT_ALPHA_CONF = 0.2  # weight of the -log C confidence regularizer
DEFAULT_EXCLUDE_TOP = 0.05  # fraction of largest depth / local pointmap residuals dropped
GM_SCALES = 4  # factor-2 scales summed by the gradient-matching loss
BCE_CLAMP = 1e-7


@dataclass
class RobustKernelParams:
    """Shape/scale of the general robust loss; defaults alpha=0.5, c=0.05."""

    alpha: float = 0.5
    c: float = 0.05

    def __post_init__(self):
        if not np.isfinite(self.c) or self.c <= 0.0:
            raise InvalidValueError("robust kernel scale c must be > 0")
        if not np.isfinite(self.alpha) or self.alpha > 2.0:
            raise InvalidValueError("robust kernel alpha must lie in (-inf, 2]")


DEFAULT_KERNEL = RobustKernelParams()


def robust_kernel(x, p: RobustKernelParams = DEFAULT_KERNEL):
    """General robust loss rho(x) = (|a-2|/a) * (((x/c)^2 / |a-2| + 1)^(a/2) - 1).

    The limits a -> 2 (quadratic) and a -> 0 (Cauchy) are handled explicitly.
    Even in x, zero at zero, monotone in |x|.
    """
    t = np.asarray(x, dtype=np.float64) / p.c
    a = p.alpha
    if a == 2.0:
        return 0.5 * t * t
    if a == 0.0:
        return np.log1p(0.5 * t * t)
    b = abs(a - 2.0)
    return (b / a) * (np.power(t * t / b + 1.0, a / 2.0) - 1.0)


def robust_kernel_grad(x, p: RobustKernelParams = DEFAULT_KERNEL):
    """d rho / d x; one expression covers all alpha <= 2 cases."""
    x = np.asarray(x, dtype=np.float64)
    if p.alpha == 2.0:
        return x / (p.c * p.c)
    t = x / p.c
    return (x / (p.c * p.c)) * np.power(t * t / abs(p.alpha - 2.0) + 1.0, p.alpha / 2.0 - 1.0)


@dataclass
class LossReport:
    """Per-term loss values and the weighted total."""

    pointmap: float
    rays: float
    rot: float
    translation: float
    depth: float
    lpm: float
    scale: float
    normal: float
    gm: float
    mask: float
    total: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def loss_weights() -> dict:
    """The weights applied to each term in the total."""
    return dict(_WEIGHTS)


# ---------------------------------------------------------------------------
# reduction helpers


def _excluded_mean(values: np.ndarray) -> float:
    """Mean after dropping the floor(DEFAULT_EXCLUDE_TOP * n) largest entries (sorts ``values`` in place)."""
    n = values.size
    if n == 0:
        raise EmptyDepthError("no valid pixels to reduce")
    n_drop = int(np.floor(DEFAULT_EXCLUDE_TOP * n))
    if n_drop == 0:
        return float(np.mean(values))
    values.sort()
    return float(np.mean(values[: n - n_drop]))


def _point_residual(pp: np.ndarray, pg: np.ndarray, z_pred: NormScale, z_gt: NormScale) -> np.ndarray:
    """Norm of f_log(pg / z_gt, axis=1) - f_log(pp / z_pred, axis=1) for (N, 3) points, bit
    for bit, run in row blocks through reused component-major (3, block) buffers."""
    out, blocks = np.empty(len(pp)), _blocks(len(pp))
    buf = np.empty((2, 3, blocks[0].stop if blocks else 0))
    for s in blocks:
        g, q = buf[:, :, : s.stop - s.start]
        for x, pts, z in ((g, pg, z_gt), (q, pp, z_pred)):
            np.divide(pts[s].T, z.value, out=x)
            n = _norm3(x.T)  # x.T views the block's points, so _norm3 reads whole rows of x
            x *= np.divide(np.log1p(n), n, out=np.ones_like(n), where=n > 0.0)
        g -= q
        out[s] = _norm3(g.T)
    return out


# ---------------------------------------------------------------------------
# per-term losses; the _*_term functions reduce pixels pooled by geometry._pool


def loss_rays(pred: list[RayMap], gt: list[RayMap]) -> float:
    """Kernel of the per-pixel direction residual norm, mean over all pixels."""
    _check("rays loss", [r.directions.shape[:2] for r in gt], [r.directions for r in pred])
    res = np.concatenate([_norm3(a.directions - b.directions).ravel() for a, b in zip(pred, gt)])
    return float(np.mean(_rowwise(robust_kernel, res, out=res)))


def loss_rot(pred_quats, gt_quats) -> float:
    """Sign-invariant quaternion chord distance, kernelized, mean over views."""
    qp = np.asarray(pred_quats, dtype=np.float64).reshape(-1, 4)
    qg = np.asarray(gt_quats, dtype=np.float64).reshape(-1, 4)
    if qp.shape != qg.shape:
        raise ShapeError("rot loss: quaternion counts differ")
    if qp.shape[0] == 0:
        raise InvalidValueError("rot loss requires at least one view")
    for q in (qp, qg):
        if not np.all(np.abs(np.linalg.norm(q, axis=1) - 1.0) <= 1e-6):
            raise InvalidValueError("rot loss requires unit quaternions")
    res = np.minimum(np.linalg.norm(qg - qp, axis=1), np.linalg.norm(qg + qp, axis=1))
    return float(np.mean(robust_kernel(res)))


def loss_translation(pred_t, gt_t, z_pred: NormScale, z_gt: NormScale) -> float:
    """Scale-invariant translation loss: residual of gt/z_gt vs pred/z_pred."""
    tp = np.asarray(pred_t, dtype=np.float64).reshape(-1, 3)
    tg = np.asarray(gt_t, dtype=np.float64).reshape(-1, 3)
    if tp.shape != tg.shape:
        raise ShapeError("translation loss: counts differ")
    if tp.shape[0] == 0:
        raise InvalidValueError("translation loss requires at least one view")
    res = _norm3(tg / z_gt.value - tp / z_pred.value)
    return float(np.mean(robust_kernel(res)))


def loss_depth(pred: list[DepthAlongRay], gt: list[DepthAlongRay], z_pred: NormScale, z_gt: NormScale) -> float:
    """Log-space scale-invariant ray depth loss with top-fraction exclusion.

    Pixels are selected by the ground-truth validity masks and pooled across
    views before the DEFAULT_EXCLUDE_TOP largest residuals are dropped.
    """
    _, dp, dg = _pool("depth loss", [d.validity for d in gt], [d.values for d in pred], [d.values for d in gt])
    res = _rowwise(lambda x, y: robust_kernel(np.abs(f_log(y / z_gt.value) - f_log(x / z_pred.value))), dp, dg)
    return _excluded_mean(res)


def loss_local_pointmap(pred: list[PointMap], gt: list[PointMap], z_pred: NormScale, z_gt: NormScale) -> float:
    """As the depth loss but on 3D points: kernel of the f_log residual norm."""
    masks = [pm.validity for pm in gt]
    _, pp, pg = _pool("local pointmap loss", masks, [pm.points for pm in pred], [pm.points for pm in gt])
    return _lpm_term(pp, pg, z_pred, z_gt)


def _lpm_term(pp, pg, z_pred, z_gt) -> float:
    res = _point_residual(pp, pg, z_pred, z_gt)
    return _excluded_mean(_rowwise(robust_kernel, res, out=res))


def loss_pointmap_conf(
    pred: list[PointMap], gt: list[PointMap], conf: list[np.ndarray], z_pred: NormScale, z_gt: NormScale
) -> float:
    """Confidence-weighted world pointmap loss: mean of C * rho(res) - a * log C, a = DEFAULT_ALPHA_CONF."""
    conf = [np.asarray(c, dtype=np.float64) for c in conf]
    masks = [pm.validity for pm in gt]
    _, pp, pg, c = _pool("pointmap loss", masks, [pm.points for pm in pred], [pm.points for pm in gt], conf)
    if not all(np.all((x >= 1.0) & (x < np.inf)) for x in conf):
        raise InvalidValueError("confidence must be finite and >= 1")
    return _pointmap_term(pp, pg, c, z_pred, z_gt)


def _pointmap_term(pp, pg, c, z_pred, z_gt) -> float:
    if c.size == 0:
        raise EmptyDepthError("pointmap loss: no valid pixels")
    res = _point_residual(pp, pg, z_pred, z_gt)
    return float(np.mean(_rowwise(lambda r, w: w * robust_kernel(r) - DEFAULT_ALPHA_CONF * np.log(w), res, c, out=res)))


def loss_scale(z_gt: NormScale, m: MetricScale, z_pred: NormScale) -> float:
    """Factored metric scale loss: f_log of the metric ground-truth norm z_gt against f_log(m * z_pred).

    Gradient contract: z_pred is treated as a constant (stop-gradient), so the
    loss only back-propagates into the metric scale m.
    """
    z_bar = metric_norm_scale(m, z_pred)
    r = abs(float(f_log(z_gt.value)) - float(f_log(z_bar.value)))
    return float(robust_kernel(r))


def loss_scale_grad_m(z_gt: NormScale, m: MetricScale, z_pred: NormScale) -> float:
    """Analytic d loss_scale / d m (z_pred held constant)."""
    inner = float(np.log1p(z_gt.value) - np.log1p(m.value * z_pred.value))
    r = abs(inner)
    dr_dm = -np.sign(inner) * z_pred.value / (1.0 + m.value * z_pred.value)
    return float(robust_kernel_grad(r) * dr_dm)


def loss_normal(pred: list[PointMap], gt: list[PointMap]) -> float:
    """Mean (1 - cos) between forward-difference normals of local pointmaps.

    Pixels need a fully valid 2x2 neighborhood in both maps; if none qualify
    anywhere the loss is 0.
    """
    return _normal_term([(pm.points, pm.validity, None) for pm in pred], [(pm.points, pm.validity, None) for pm in gt])


def _normal_term(pred: list, gt: list) -> float:
    """loss_normal of per-view (points, validity, depth) triples: points are
    unit rays if depth is given, composed band by band right before the normals."""
    if any(min(x.shape[:2]) < 2 for x, _, _ in [*pred, *gt]):
        raise ShapeError("normal loss requires at least 2x2 maps")
    _check("normal loss", [t[1].shape for t in gt], [t[0] for t in pred], [t[1] for t in pred], [t[0] for t in gt])
    cos, ok = [], []
    for view_p, view_g in zip(pred, gt):
        h, w = view_g[1].shape
        cos.append(np.empty((h - 1, w - 1)))
        ok.append(np.empty((h - 1, w - 1), dtype=bool))
        for s in _blocks(h - 1, w):
            r = slice(s.start, s.stop + 1)  # one more row for the forward differences
            (npred, okp), (ngt, okg) = (
                _forward_normals(x[r] if d is None else _compose(x[r], v[r], d[r]), v[r]) for x, v, d in (view_p, view_g)
            )
            cos[-1][s], ok[-1][s] = _dot3(npred, ngt), okp & okg
    _, cos = _pool("normal loss", ok, cos)
    return float(np.mean(1.0 - cos)) if cos.size else 0.0


def _pool_half(d: np.ndarray, valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor-2 average pooling over valid pixels; a cell is valid if any pixel is."""
    h, w = d.shape
    h2, w2 = (h + 1) // 2, (w + 1) // 2
    dp = np.zeros((h2 * 2, w2 * 2))
    vp = np.zeros((h2 * 2, w2 * 2), dtype=np.intp)
    dp[:h, :w] = np.where(valid, d, 0.0)
    vp[:h, :w] = valid
    # x.reshape(h2, 2, w2, 2).sum(axis=(1, 3)) adds each cell's top pair to its bottom pair, as the slices do
    # 7x faster; with w2 == 1 a cell's four values are contiguous and it adds them in turn, so that case keeps it
    counts, sums = (
        x.reshape(h2, 2, w2, 2).sum(axis=(1, 3)) if w2 == 1 else (x[::2, ::2] + x[::2, 1::2]) + (x[1::2, ::2] + x[1::2, 1::2])
        for x in (vp, dp)
    )
    out_valid = counts > 0
    out = np.where(out_valid, sums / np.maximum(counts, 1), 0.0)
    return out, out_valid


def loss_gradient_matching(pred_z: list[np.ndarray], gt_z: list[np.ndarray], validity: list[np.ndarray]) -> float:
    """Multi-scale gradient matching on the log z-depth difference.

    At each of GM_SCALES factor-2 scales the x- and y-forward-difference magnitudes of
    d = log(pred) - log(gt) are averaged over pairs whose both endpoints are
    valid, pooled across views; the per-scale terms are summed.
    """
    masks = [np.asarray(m, dtype=bool) for m in validity]
    zp = [np.asarray(z, dtype=np.float64) for z in pred_z]
    zg = [np.asarray(z, dtype=np.float64) for z in gt_z]
    _check("gradient matching loss", [m.shape for m in masks], zp, zg)
    if not all(np.all(((z > 0.0) & (z < np.inf)) | ~m) for zs in (zp, zg) for z, m in zip(zs, masks)):
        raise InvalidValueError("gradient matching loss requires finite positive depths")
    per_view = [(np.log(np.where(m, a, 1.0)) - np.log(np.where(m, b, 1.0)), m) for a, b, m in zip(zp, zg, masks)]

    total = 0.0
    for _ in range(GM_SCALES):
        for ahead, behind in ((np.s_[:, 1:], np.s_[:, :-1]), (np.s_[1:, :], np.s_[:-1, :])):  # x, then y
            pairs = [m[ahead] & m[behind] for _, m in per_view]
            # |d[ahead] - d[behind]|, made and gathered one row band at a time
            _, grad = _pool_bands(pairs, (lambda i, s: np.abs(per_view[i][0][ahead][s] - per_view[i][0][behind][s]), np.float64, ()))
            total += float(np.mean(grad)) if grad.size else 0.0
            del pairs, grad  # before the next gather or the next scale's grids
        per_view = [_pool_half(d, m) for d, m in per_view]
    return total


def loss_mask(pred_prob: list[np.ndarray], gt: list[np.ndarray]) -> float:
    """Mean binary cross entropy over all pixels of all views."""
    pred_prob = [np.asarray(x, dtype=np.float64) for x in pred_prob]
    gt = [np.asarray(g, dtype=np.float64) for g in gt]
    if not all(np.all((x >= 0.0) & (x <= 1.0)) for x in [*pred_prob, *gt]):
        raise InvalidValueError("mask probabilities must lie in [0, 1]")
    _check("mask loss", [g.shape for g in gt], pred_prob)
    pc = np.clip(np.concatenate([x.ravel() for x in pred_prob]), BCE_CLAMP, 1.0 - BCE_CLAMP)
    g = np.concatenate([x.ravel() for x in gt])
    return float(np.mean(_rowwise(lambda x, y: -(y * np.log(x) + (1.0 - y) * np.log(1.0 - x)), pc, g, out=pc)))


# ---------------------------------------------------------------------------
# total


def total_loss(pred: FactoredScene, gt: SceneSample, synthetic: bool = False) -> LossReport:
    """Full weighted objective of a predicted factored scene against ground truth.

    The normal and gradient-matching terms are forced to 0 unless ``synthetic``
    is set. Pixels enter the dense losses through the ground-truth validity
    masks; the prediction normalizer z_pred uses the same masks.
    """
    if not isinstance(pred, FactoredScene) or not isinstance(gt, SceneSample):
        raise InvalidValueError(f"total_loss needs a FactoredScene and a SceneSample, got {type(pred).__name__} and {type(gt).__name__}")
    masks = [g.depth.validity for g in gt.views]
    confs = [v.confidence if v.confidence is not None else np.ones(v.depth.values.shape) for v in pred.views]
    offsets, c, pv = _pool("total loss", masks, confs, [v.depth.validity for v in pred.views])
    # Pooled points are about as large as the grids they come from, so they are
    # composed from rays, depths and poses in row bands right before their term,
    # and at most two pooled point arrays exist at a time.
    views = [[(v.rays.directions, v.depth.validity, v.depth.values, v.pose) for v in s.views] for s in (pred, gt)]
    pw, gw = (_pool_composed(masks, x) for x in views)
    z_gt = _norm_scale(gw, offsets)
    z_pred = _norm_scale(pw, offsets, pv)
    pointmap = _pointmap_term(pw, gw, c, z_pred, z_gt)
    del pw, gw, c, pv
    local = [[x[:3] for x in vs] for vs in views]
    terms = {
        "pointmap": pointmap,
        "rays": loss_rays([v.rays for v in pred.views], [g.rays for g in gt.views]),
        "rot": loss_rot([v.pose.rotation for v in pred.views], [g.pose.rotation for g in gt.views]),
        "translation": loss_translation(
            [v.pose.translation for v in pred.views], [g.pose.translation for g in gt.views], z_pred, z_gt
        ),
        "depth": loss_depth([v.depth for v in pred.views], [g.depth for g in gt.views], z_pred, z_gt),
        "lpm": _lpm_term(*(_pool_composed(masks, x) for x in local), z_pred, z_gt),
        "scale": loss_scale(NormScale(gt.scale.value * z_gt.value), pred.scale, z_pred),
        "normal": _normal_term(*local) if synthetic else 0.0,
        # z-depths of the local points, 0 where invalid: the bits of _compose(...)[:, :, 2]
        "gm": loss_gradient_matching(
            *([np.multiply(r[:, :, 2], d, out=np.zeros(d.shape), where=v) for r, v, d in x] for x in local), masks
        )
        if synthetic
        else 0.0,
        "mask": loss_mask([v.mask_prob for v in pred.views], [g.mask for g in gt.views])
        if all(v.mask_prob is not None for v in pred.views)
        else 0.0,
    }
    total = functools.reduce(operator.add, [w * terms[k] for k, w in _WEIGHTS.items()])
    return LossReport(**{k: float(v) for k, v in terms.items()}, total=float(total))
