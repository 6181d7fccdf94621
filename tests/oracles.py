"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (per-pixel Python loops, direct
formulas, struct-based parsing) and kept separate from the library code paths
it checks.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from mapt.errors import DegenerateError, EmptyDepthError, InvalidValueError, ShapeError
from mapt.factorization import NormScale, f_log
from mapt.geometry import PointMap, quat_mul, quat_to_rot, ray_angular_error, relative_pose
from mapt.losses import (
    BCE_CLAMP,
    DEFAULT_ALPHA_CONF,
    DEFAULT_EXCLUDE_TOP,
    DEFAULT_KERNEL,
    loss_rot,
    loss_scale,
    loss_translation,
    robust_kernel,
)
from mapt.metrics import (
    BASELINE_EPS,
    TAU_DEFAULT,
    abs_rel,
    ate_rmse,
    auc_at_threshold,
    inlier_ratio_tau,
    pose_angular_errors,
    scale_rel,
)


def pose_matrix(pose) -> np.ndarray:
    """4x4 homogeneous matrix of a pose."""
    m = np.eye(4)
    m[:3, :3] = quat_to_rot(pose.rotation)
    m[:3, 3] = pose.translation
    return m


def pose_angular_errors_reference(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    """Pose-pair errors by a Python loop over relative_pose objects, one ordered
    pair (i, j), i != j, at a time in row-major order."""
    if len(pred) != len(gt):
        raise ShapeError("pose list lengths differ")
    if len(pred) < 2:
        raise DegenerateError("pose errors need at least 2 poses")
    rra, rta = [], []
    n = len(pred)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rp = relative_pose(pred[i], pred[j])
            rg = relative_pose(gt[i], gt[j])
            dq = quat_mul(rg.rotation * np.array([1.0, -1.0, -1.0, -1.0]), rp.rotation)
            rra.append(2.0 * np.degrees(np.arccos(np.clip(abs(dq[0]), -1.0, 1.0))))
            np_, ng = np.linalg.norm(rp.translation), np.linalg.norm(rg.translation)
            if np_ < BASELINE_EPS or ng < BASELINE_EPS:
                rta.append(np.nan)
            else:
                cosang = np.clip(rp.translation @ rg.translation / (np_ * ng), -1.0, 1.0)
                rta.append(float(np.degrees(np.arccos(cosang))))
    rra = np.array(rra)
    rta = np.array(rta)
    if np.all(np.isnan(rta)):
        raise DegenerateError("all pose pairs have degenerate baselines")
    return rra, rta


def fd_central(f, x: float, h: float = 1e-5) -> float:
    """Central finite difference of a scalar function."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd_jacobian(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=np.float64)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((f(x + e) - f(x - e)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def brute_force_covisibility(scene, tol: float = 0.05) -> np.ndarray:
    """Per-pixel Python-loop covisibility, mirroring the documented pair math."""
    n = len(scene.views)
    frac = np.zeros((n, n))
    rots = [quat_to_rot(v.pose.rotation) for v in scene.views]
    for i in range(n):
        frac[i, i] = 1.0
        vi = scene.views[i]
        ri, ti = rots[i], vi.pose.translation
        valid = np.argwhere(vi.depth.validity)
        if valid.shape[0] == 0:
            continue
        for j in range(n):
            if j == i:
                continue
            vj = scene.views[j]
            rj, tj = rots[j], vj.pose.translation
            k = vj.intrinsics
            w, h = vj.rays.width, vj.rays.height
            count = 0
            for py, px in valid:
                dx, dy, dz = vi.rays.directions[py, px]
                dep = vi.depth.values[py, px]
                lx = dx * dep
                ly = dy * dep
                lz = dz * dep
                wx = ri[0, 0] * lx + ri[0, 1] * ly + ri[0, 2] * lz + ti[0]
                wy = ri[1, 0] * lx + ri[1, 1] * ly + ri[1, 2] * lz + ti[1]
                wz = ri[2, 0] * lx + ri[2, 1] * ly + ri[2, 2] * lz + ti[2]
                ax = wx - tj[0]
                ay = wy - tj[1]
                az = wz - tj[2]
                cx = rj[0, 0] * ax + rj[1, 0] * ay + rj[2, 0] * az
                cy = rj[0, 1] * ax + rj[1, 1] * ay + rj[2, 1] * az
                cz = rj[0, 2] * ax + rj[1, 2] * ay + rj[2, 2] * az
                if not cz > 0.0:
                    continue
                u = k.fx * (cx / cz) + k.cx
                v = k.fy * (cy / cz) + k.cy
                if not (u >= 0.0 and u < w and v >= 0.0 and v < h):
                    continue
                ix, iy = int(np.floor(u)), int(np.floor(v))
                if not vj.depth.validity[iy, ix]:
                    continue
                dj = vj.depth.values[iy, ix]
                rd = np.sqrt(cx * cx + cy * cy + cz * cz)
                if np.abs(rd - dj) / dj <= tol:
                    count += 1
            frac[i, j] = count / valid.shape[0]
    return frac


def is_connected(adj: np.ndarray, nodes: list[int]) -> bool:
    """BFS connectivity of the induced subgraph."""
    if len(nodes) <= 1:
        return True
    nodeset = set(nodes)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        u = stack.pop()
        for w in np.flatnonzero(adj[u]):
            w = int(w)
            if w in nodeset and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == nodeset


def write_ply_reference(path, points, colors) -> None:
    """The whole-array PLY writer streaming replaced: one record array, then
    the header and its bytes written together."""
    points = np.asarray(points, dtype="<f4").reshape(-1, 3)
    colors = np.asarray(colors, dtype=np.uint8).reshape(-1, 3)
    n = points.shape[0]
    props = "".join(f"property {t} {c}\n" for t, c in [("float", "x"), ("float", "y"), ("float", "z"),
                                                       ("uchar", "red"), ("uchar", "green"), ("uchar", "blue")])
    header = f"ply\nformat binary_little_endian 1.0\nelement vertex {n}\n{props}end_header\n".encode("ascii")
    rec = np.zeros(n, dtype=[("x", "<f4"), ("y", "<f4"), ("z", "<f4"), ("r", "u1"), ("g", "u1"), ("b", "u1")])
    rec["x"], rec["y"], rec["z"] = points[:, 0], points[:, 1], points[:, 2]
    rec["r"], rec["g"], rec["b"] = colors[:, 0], colors[:, 1], colors[:, 2]
    Path(path).write_bytes(header + rec.tobytes())


def export_ply_reference(scene, path) -> None:
    """The whole-grid export-ply: every view's whole metric point grid and
    float32 shaded image, gathered at its validity and concatenated, the
    colors rounded as np.round(image * 255.0), then one whole-array write."""
    points, colors = [], []
    for v in scene.views:
        m = v.depth.validity
        points.append(compose_reference(v.rays.directions, m, v.depth.values, v.pose, scene.scale.value)[m])
        colors.append(np.round(shade_view_reference(v.rays, v.depth)[m] * 255.0).astype(np.uint8))
    write_ply_reference(path, np.concatenate(points), np.concatenate(colors))


def parse_ply(path) -> tuple[np.ndarray, np.ndarray]:
    """Struct-based binary PLY reader (x y z float32, r g b uint8)."""
    data = Path(path).read_bytes()
    end = data.index(b"end_header\n") + len(b"end_header\n")
    header = data[:end].decode("ascii").splitlines()
    assert header[0] == "ply"
    assert header[1] == "format binary_little_endian 1.0"
    n = None
    props = []
    for line in header:
        if line.startswith("element vertex"):
            n = int(line.split()[-1])
        elif line.startswith("property"):
            props.append(tuple(line.split()[1:]))
    assert n is not None
    assert props == [
        ("float", "x"),
        ("float", "y"),
        ("float", "z"),
        ("uchar", "red"),
        ("uchar", "green"),
        ("uchar", "blue"),
    ]
    rows = list(struct.iter_unpack("<fffBBB", data[end:]))
    assert len(rows) == n
    pts = np.array([r[:3] for r in rows], dtype=np.float32).reshape(n, 3)
    cols = np.array([r[3:] for r in rows], dtype=np.uint8).reshape(n, 3)
    return pts, cols


def umeyama_reference(src: np.ndarray, dst: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Classic closed-form similarity alignment (independent arrangement)."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    mu_s = src.mean(0)
    mu_d = dst.mean(0)
    xs = src - mu_s
    xd = dst - mu_d
    c = xd.T @ xs / src.shape[0]
    u, d, vt = np.linalg.svd(c)
    s = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        s[2, 2] = -1.0
    rot = u @ s @ vt
    scale = np.trace(np.diag(d) @ s) / np.mean(np.sum(xs**2, axis=1))
    t = mu_d - scale * rot @ mu_s
    return float(scale), rot, t


def rotation_angle_deg(r: np.ndarray) -> float:
    """Rotation angle from the matrix trace."""
    c = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    return float(np.degrees(np.arccos(c)))


# ---------------------------------------------------------------------------
# total_loss and evaluate_scene as per-view PointMap pipelines: every
# intermediate is a validated PointMap and every loss term loops over views
# and concatenates its own pixels.


def _local_pointmap(rays, depth) -> PointMap:
    return PointMap(rays.directions * depth.values[:, :, None], depth.validity.copy())


def _world_pointmap(local: PointMap, pose) -> PointMap:
    pts = local.points @ quat_to_rot(pose.rotation).T + pose.translation
    pts[~local.validity] = 0.0
    return PointMap(pts, local.validity.copy())


def _metric_upgrade(x: PointMap, scale: float) -> PointMap:
    return PointMap(x.points * scale, x.validity.copy())


def _check_views(pred, gt, what):
    if len(pred) != len(gt):
        raise ShapeError(f"{what}: view counts differ ({len(pred)} vs {len(gt)})")


def _excluded_mean(values, exclude_top):
    n = values.size
    if n == 0:
        raise EmptyDepthError("no valid pixels to reduce")
    n_drop = int(np.floor(exclude_top * n))
    if n_drop == 0:
        return float(np.mean(values))
    return float(np.mean(np.sort(values)[: n - n_drop]))


def norm_scale_reference(pointmaps) -> NormScale:
    total, count = 0.0, 0
    for pm in pointmaps:
        pts = pm.points[pm.validity]
        total += float(np.sum(np.linalg.norm(pts, axis=1)))
        count += pts.shape[0]
    if count == 0:
        raise EmptyDepthError("norm scale requires at least one valid point")
    return NormScale(total / count)


def loss_rays_reference(pred, gt, p):
    _check_views(pred, gt, "rays loss")
    chunks = []
    for rp, rg in zip(pred, gt):
        if rp.directions.shape != rg.directions.shape:
            raise ShapeError("rays loss: resolution mismatch")
        chunks.append(robust_kernel(np.linalg.norm(rp.directions - rg.directions, axis=2), p).ravel())
    return float(np.mean(np.concatenate(chunks)))


def loss_depth_reference(pred, gt, z_pred, z_gt, p, exclude_top):
    _check_views(pred, gt, "depth loss")
    chunks = []
    for dp, dg in zip(pred, gt):
        if dp.values.shape != dg.values.shape:
            raise ShapeError("depth loss: resolution mismatch")
        m = dg.validity
        res = np.abs(f_log(dg.values[m] / z_gt.value) - f_log(dp.values[m] / z_pred.value))
        chunks.append(robust_kernel(res, p))
    return _excluded_mean(np.concatenate(chunks), exclude_top)


def _point_residuals(pred, gt, z_pred, z_gt, what):
    _check_views(pred, gt, what)
    for pp, pg in zip(pred, gt):
        if pp.points.shape != pg.points.shape:
            raise ShapeError(f"{what}: resolution mismatch")
        m = pg.validity
        yield m, np.linalg.norm(
            f_log(pg.points[m] / z_gt.value, axis=1) - f_log(pp.points[m] / z_pred.value, axis=1), axis=1
        )


def loss_local_pointmap_reference(pred, gt, z_pred, z_gt, p, exclude_top):
    chunks = [robust_kernel(res, p) for _, res in _point_residuals(pred, gt, z_pred, z_gt, "local pointmap loss")]
    return _excluded_mean(np.concatenate(chunks), exclude_top)


def loss_pointmap_conf_reference(pred, gt, conf, z_pred, z_gt, p, alpha_conf):
    chunks = []
    for c, (m, res) in zip(conf, _point_residuals(pred, gt, z_pred, z_gt, "pointmap loss")):
        if np.min(c) < 1.0:
            raise InvalidValueError("confidence must be >= 1")
        cm = c[m]
        chunks.append(cm * robust_kernel(res, p) - alpha_conf * np.log(cm))
    pooled = np.concatenate(chunks)
    if pooled.size == 0:
        raise EmptyDepthError("pointmap loss: no valid pixels")
    return float(np.mean(pooled))


def _normals(pm: PointMap):
    pts, v = pm.points, pm.validity
    dx = pts[:-1, 1:, :] - pts[:-1, :-1, :]
    dy = pts[1:, :-1, :] - pts[:-1, :-1, :]
    n = np.cross(dx, dy)
    norms = np.linalg.norm(n, axis=2)
    ok = (v[:-1, :-1] & v[:-1, 1:] & v[1:, :-1] & v[1:, 1:]) & (norms > 1e-12)
    n = np.where(ok[:, :, None], n / np.where(norms[:, :, None] > 1e-12, norms[:, :, None], 1.0), 0.0)
    return n, ok


def loss_normal_reference(pred, gt):
    _check_views(pred, gt, "normal loss")
    chunks = []
    for pp, pg in zip(pred, gt):
        if pp.points.shape != pg.points.shape:
            raise ShapeError("normal loss: resolution mismatch")
        if pp.height < 2 or pp.width < 2:
            raise ShapeError("normal loss requires at least 2x2 maps")
        npred, okp = _normals(pp)
        ngt, okg = _normals(pg)
        ok = okp & okg
        if np.any(ok):
            chunks.append(1.0 - np.sum(npred[ok] * ngt[ok], axis=1))
    return float(np.mean(np.concatenate(chunks))) if chunks else 0.0


def _pool_half(d, valid):
    h, w = d.shape
    h2, w2 = (h + 1) // 2, (w + 1) // 2
    dp = np.zeros((h2 * 2, w2 * 2))
    vp = np.zeros((h2 * 2, w2 * 2), dtype=bool)
    dp[:h, :w] = np.where(valid, d, 0.0)
    vp[:h, :w] = valid
    counts = vp.reshape(h2, 2, w2, 2).sum(axis=(1, 3))
    sums = dp.reshape(h2, 2, w2, 2).sum(axis=(1, 3))
    out_valid = counts > 0
    return np.where(out_valid, sums / np.maximum(counts, 1), 0.0), out_valid


def loss_gradient_matching_reference(pred_z, gt_z, validity, n_scales=4):
    _check_views(pred_z, gt_z, "gradient matching loss")
    per_view = []
    for zp, zg, m in zip(pred_z, gt_z, validity):
        if zp.shape != zg.shape or m.shape != zg.shape:
            raise ShapeError("gradient matching loss: resolution mismatch")
        if np.any(zp[m] <= 0.0) or np.any(zg[m] <= 0.0):
            raise InvalidValueError("gradient matching loss requires positive depths")
        d = np.zeros_like(zg)
        d[m] = np.log(zp[m]) - np.log(zg[m])
        per_view.append((d, m))
    total = 0.0
    for _ in range(n_scales):
        gx, gy, nxt = [], [], []
        for d, m in per_view:
            vx = m[:, 1:] & m[:, :-1]
            vy = m[1:, :] & m[:-1, :]
            gx.append(np.abs(d[:, 1:] - d[:, :-1])[vx])
            gy.append(np.abs(d[1:, :] - d[:-1, :])[vy])
            nxt.append(_pool_half(d, m))
        gx, gy = np.concatenate(gx), np.concatenate(gy)
        if gx.size:
            total += float(np.mean(gx))
        if gy.size:
            total += float(np.mean(gy))
        per_view = nxt
    return total


def loss_mask_reference(pred_prob, gt):
    _check_views(pred_prob, gt, "mask loss")
    chunks = []
    for p, g in zip(pred_prob, gt):
        if p.shape != g.shape:
            raise ShapeError("mask loss: resolution mismatch")
        if np.min(p) < 0.0 or np.max(p) > 1.0:
            raise InvalidValueError("mask probabilities must lie in [0, 1]")
        pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
        chunks.append(-(g * np.log(pc) + (1.0 - g) * np.log(1.0 - pc)).ravel())
    return float(np.mean(np.concatenate(chunks)))


def total_loss_reference(
    pred, gt, synthetic=False, alpha_conf=DEFAULT_ALPHA_CONF, exclude_top=DEFAULT_EXCLUDE_TOP
) -> dict:
    """The loss terms and the weighted total ("total") as a dict, computed
    term by term over per-view PointMaps."""
    if pred.n_views != len(gt.views):
        raise ShapeError(f"view counts differ: pred {pred.n_views} vs gt {len(gt.views)}")
    gt_local, gt_world, pr_local, pr_world, pr_world_masked = [], [], [], [], []
    for i, (pv, gv) in enumerate(zip(pred.views, gt.views)):
        if (pv.rays.height, pv.rays.width) != (gv.rays.height, gv.rays.width):
            raise ShapeError(f"total loss: view {i} resolution mismatch")
        gl = _local_pointmap(gv.rays, gv.depth)
        gt_local.append(gl)
        gt_world.append(_world_pointmap(gl, gv.pose))
        pl = _local_pointmap(pv.rays, pv.depth)
        pr_local.append(pl)
        pw = _world_pointmap(pl, pv.pose)
        pr_world.append(pw)
        pr_world_masked.append(PointMap(pw.points, gv.depth.validity & pw.validity))
    confs = [
        v.confidence if v.confidence is not None else np.ones_like(g.depth.values) for v, g in zip(pred.views, gt.views)
    ]
    z_gt = norm_scale_reference(gt_world)
    z_pred = norm_scale_reference(pr_world_masked)
    terms = {
        "pointmap": loss_pointmap_conf_reference(pr_world, gt_world, confs, z_pred, z_gt, DEFAULT_KERNEL, alpha_conf),
        "rays": loss_rays_reference([v.rays for v in pred.views], [g.rays for g in gt.views], DEFAULT_KERNEL),
        "rot": loss_rot(
            np.stack([v.pose.rotation for v in pred.views]), np.stack([g.pose.rotation for g in gt.views])
        ),
        "translation": loss_translation(
            np.stack([v.pose.translation for v in pred.views]),
            np.stack([g.pose.translation for g in gt.views]),
            z_pred,
            z_gt,
        ),
        "depth": loss_depth_reference(
            [v.depth for v in pred.views], [g.depth for g in gt.views], z_pred, z_gt, DEFAULT_KERNEL, exclude_top
        ),
        "lpm": loss_local_pointmap_reference(pr_local, gt_local, z_pred, z_gt, DEFAULT_KERNEL, exclude_top),
        "scale": loss_scale(z_gt, pred.scale, z_pred),
        "normal": 0.0,
        "gm": 0.0,
        "mask": 0.0,
    }
    if synthetic:
        terms["normal"] = loss_normal_reference(pr_local, gt_local)
        terms["gm"] = loss_gradient_matching_reference(
            [pm.points[:, :, 2] for pm in pr_local],
            [pm.points[:, :, 2] for pm in gt_local],
            [g.depth.validity for g in gt.views],
        )
    if all(v.mask_prob is not None for v in pred.views):
        terms["mask"] = loss_mask_reference(
            [v.mask_prob for v in pred.views], [g.mask.astype(np.float64) for g in gt.views]
        )
    terms["total"] = (
        10.0 * terms["pointmap"] + terms["rays"] + terms["rot"] + terms["translation"] + terms["depth"]
        + terms["lpm"] + terms["scale"] + terms["normal"] + terms["gm"] + 0.1 * terms["mask"]
    )
    return {k: float(v) for k, v in terms.items()}


def evaluate_scene_reference(pred, gt, align_points=False) -> dict:
    """The benchmark metrics as a dict, with the points of every view composed
    through per-view PointMaps."""
    if pred.n_views != len(gt.views):
        raise ShapeError("view counts differ")
    for i, (pv, gv) in enumerate(zip(pred.views, gt.views)):
        if (pv.rays.height, pv.rays.width) != (gv.rays.height, gv.rays.width):
            raise ShapeError(f"view {i} resolution mismatch")
    m_pred, m_gt = pred.scale.value, gt.scale.value
    d_pred = np.concatenate([m_pred * v.depth.values[g.depth.validity] for v, g in zip(pred.views, gt.views)])
    d_gt = np.concatenate([m_gt * g.depth.values[g.depth.validity] for g in gt.views])
    ones = np.ones_like(d_gt, dtype=bool)
    out = {"depth_rel": abs_rel(d_pred, d_gt, ones), "depth_tau": inlier_ratio_tau(d_pred, d_gt, ones)}

    def world(views, scale):
        return [_metric_upgrade(_world_pointmap(_local_pointmap(v.rays, v.depth), v.pose), scale) for v in views]

    pred_world, gt_world = world(pred.views, m_pred), world(gt.views, m_gt)
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
    out["points_rel"] = float(np.mean(rel_dist))
    out["points_tau"] = float(np.mean(rel_dist < (TAU_DEFAULT - 1.0)))
    n = pred.n_views
    out["ate_rmse"] = ate_rmse([v.pose for v in pred.views], [g.pose for g in gt.views]) if n >= 3 else None
    if n >= 2:
        rra, rta = pose_angular_errors([v.pose for v in pred.views], [g.pose for g in gt.views])
        out["pose_auc5"] = auc_at_threshold(np.where(np.isnan(rta), rra, np.fmax(rra, rta)))
        out["pose_rra_deg"] = float(np.mean(rra))
        out["pose_rta_deg"] = float(np.nanmean(rta))
    else:
        out["pose_auc5"] = out["pose_rra_deg"] = out["pose_rta_deg"] = None
    out["ray_err_deg"] = float(np.mean([ray_angular_error(v.rays, g.rays) for v, g in zip(pred.views, gt.views)]))
    out["scale_rel"] = scale_rel(pred.scale, gt.scale)
    return out


# ---------------------------------------------------------------------------
# Dense per-pixel kernels as they were before their bit-identical rewrites:
# numpy's norm along an axis, np.cross, boolean-index scatters and np.where.


def f_log_reference(x, axis=None):
    x = np.asarray(x, dtype=np.float64)
    if axis is None:
        return np.sign(x) * np.log1p(np.abs(x))
    n = np.linalg.norm(x, axis=axis, keepdims=True)
    factor = np.ones_like(n)
    nz = n > 0.0
    factor[nz] = np.log1p(n[nz]) / n[nz]
    return x * factor


def ray_angular_error_reference(pred, gt):
    dots = np.sum(pred.directions * gt.directions, axis=2)
    dots /= np.linalg.norm(pred.directions, axis=2) * np.linalg.norm(gt.directions, axis=2)
    return float(np.degrees(np.mean(np.arccos(np.clip(dots, -1.0, 1.0)))))


def forward_normals_reference(points, v):
    dx = points[:-1, 1:, :] - points[:-1, :-1, :]
    dy = points[1:, :-1, :] - points[:-1, :-1, :]
    n = np.cross(dx, dy)
    norms = np.linalg.norm(n, axis=2)
    ok = (v[:-1, :-1] & v[:-1, 1:] & v[1:, :-1] & v[1:, 1:]) & (norms > 1e-12)
    n = np.where(ok[:, :, None], n / np.where(norms[:, :, None] > 1e-12, norms[:, :, None], 1.0), 0.0)
    return n, ok


def compose_reference(points, validity, depth=None, pose=None, scale=None):
    pts = points if depth is None else points * depth[:, :, None]
    if pose is not None:
        pts = pts @ quat_to_rot(pose.rotation).T + pose.translation
    pts = np.where(validity[:, :, None], pts, 0.0)
    if scale is not None:
        pts *= scale
    if not np.isfinite(pts).all():
        raise InvalidValueError("valid points must be finite")
    return pts


def shade_view_reference(rays, depth):
    dirs = rays.directions
    v = depth.validity
    h, w = v.shape
    normals = np.zeros((h, w, 3))
    normals[:-1, :-1] = forward_normals_reference(compose_reference(dirs, v, depth.values), v)[0]
    missing = np.linalg.norm(normals, axis=2) < 0.5
    normals[missing] = -dirs[missing]
    flip = np.sum(normals * dirs, axis=2) > 0.0
    normals[flip] *= -1.0

    light = np.array([0.4, -0.6, -0.7])
    light /= np.linalg.norm(light)
    lam = np.clip(np.sum(normals * -light[None, None, :], axis=2), 0.0, 1.0)
    bright = 0.25 + 0.75 * lam
    img = np.empty((h, w, 3))
    img[:, :, 0] = bright * 0.9
    img[:, :, 1] = bright * (0.72 + 0.18 * np.sin(depth.values))
    img[:, :, 2] = bright * 0.62

    dy_sky = dirs[:, :, 1]
    sky = np.stack([0.45 + 0.25 * dy_sky, 0.55 + 0.2 * dy_sky, 0.85 + 0.1 * dy_sky], axis=2)
    img = np.where(v[:, :, None], img, sky)
    return np.clip(img, 0.0, 1.0).astype(np.float32)
