"""Core representation algebra: rays, depths, poses and pointmap composition.

The scene is factored into per-view unit ray directions, depth along the ray,
a camera pose expressed in the frame of view 0, and one global metric scale.
Composition is ``metric = scale * (R @ (rays * depth) + t)``.

All functions are pure and treat their inputs as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidIntrinsicsError,
    InvalidRotationError,
    InvalidValueError,
    RankDeficientError,
    ShapeError,
)

RAY_UNIT_TOL = 1e-6


@dataclass
class RayMap:
    """H x W grid of unit direction vectors in the camera frame (+z forward)."""

    directions: np.ndarray  # (H, W, 3) float64

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=np.float64)
        if d.ndim != 3 or d.shape[2] != 3:
            raise ShapeError(f"ray map must be (H, W, 3), got {d.shape}")
        norms = np.linalg.norm(d, axis=2)
        if not np.all(np.isfinite(d)):
            raise InvalidValueError("ray map contains non-finite directions")
        if np.max(np.abs(norms - 1.0)) > RAY_UNIT_TOL:
            raise InvalidValueError("ray directions must be unit length within 1e-6")
        if np.min(d[:, :, 2]) <= 0.0:
            raise InvalidValueError("ray directions must be front-facing (z > 0)")
        self.directions = d

    @property
    def height(self) -> int:
        return self.directions.shape[0]

    @property
    def width(self) -> int:
        return self.directions.shape[1]


@dataclass
class DepthAlongRay:
    """Distances along the ray per pixel; invalid pixels carry value 0."""

    values: np.ndarray  # (H, W) float64
    validity: np.ndarray  # (H, W) bool

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        m = np.asarray(self.validity, dtype=bool)
        if v.ndim != 2:
            raise ShapeError(f"depth grid must be (H, W), got {v.shape}")
        if m.shape != v.shape:
            raise ShapeError("depth values and validity shapes differ")
        good = v[m]
        if good.size and (not np.all(np.isfinite(good)) or np.min(good) <= 0.0):
            raise InvalidValueError("valid depths must be finite and > 0")
        v = v.copy()
        v[~m] = 0.0
        self.values = v
        self.validity = m

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def canonical_quat(q: np.ndarray) -> np.ndarray:
    """Resolve the double cover: flip sign so w >= 0, first nonzero >= 0 on tie."""
    q = np.asarray(q, dtype=np.float64)
    for c in q:
        if c != 0.0:
            return q if c > 0.0 else -q
    return q


@dataclass
class Pose:
    """Rigid transform: unit quaternion (w, x, y, z) plus translation.

    The quaternion is renormalized and sign-canonicalized on construction, so
    equal rotations always compare equal component-wise.
    """

    rotation: np.ndarray  # (4,) float64, unit, w >= 0
    translation: np.ndarray  # (3,) float64

    def __post_init__(self):
        q = np.asarray(self.rotation, dtype=np.float64).reshape(4)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        n = np.linalg.norm(q)
        if not np.isfinite(n) or abs(n - 1.0) > 1e-6:
            raise InvalidValueError("pose quaternion must be unit length within 1e-6")
        if not np.all(np.isfinite(t)):
            raise InvalidValueError("pose translation must be finite")
        self.rotation = canonical_quat(q / n)
        self.translation = t

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))


@dataclass
class Intrinsics:
    """Pinhole parameters in pixels. Principal point may lie outside the image (crops)."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        vals = (self.fx, self.fy, self.cx, self.cy)
        if not all(np.isfinite(v) for v in vals):
            raise InvalidIntrinsicsError("intrinsics must be finite")
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise InvalidIntrinsicsError("focal lengths must be > 0")


@dataclass
class PointMap:
    """H x W grid of 3D points; invalid pixels carry (0, 0, 0)."""

    points: np.ndarray  # (H, W, 3) float64
    validity: np.ndarray  # (H, W) bool

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.float64)
        m = np.asarray(self.validity, dtype=bool)
        if p.ndim != 3 or p.shape[2] != 3:
            raise ShapeError(f"pointmap must be (H, W, 3), got {p.shape}")
        if m.shape != p.shape[:2]:
            raise ShapeError("pointmap points and validity shapes differ")
        if not np.all(np.isfinite(p[m])):
            raise InvalidValueError("valid points must be finite")
        p = p.copy()
        p[~m] = 0.0
        self.points = p
        self.validity = m

    @property
    def height(self) -> int:
        return self.points.shape[0]

    @property
    def width(self) -> int:
        return self.points.shape[1]


@dataclass
class MetricScale:
    """Meters per model unit; upgrades an up-to-scale reconstruction to metric."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not np.isfinite(v) or v <= 0.0:
            raise InvalidValueError("metric scale must be finite and > 0")
        self.value = v


@dataclass
class FactoredView:
    """One view of a factored scene, optionally with confidence / mask heads."""

    rays: RayMap
    depth: DepthAlongRay
    pose: Pose
    confidence: np.ndarray | None = None  # (H, W), each >= 1
    mask_prob: np.ndarray | None = None  # (H, W) in [0, 1]

    def __post_init__(self):
        if (self.rays.height, self.rays.width) != (self.depth.height, self.depth.width):
            raise ShapeError("ray map and depth resolutions differ")
        if self.confidence is not None:
            c = np.asarray(self.confidence, dtype=np.float64)
            if c.shape != self.depth.values.shape:
                raise ShapeError("confidence resolution differs from depth")
            if np.min(c) < 1.0:
                raise InvalidValueError("confidence values must be >= 1")
            self.confidence = c
        if self.mask_prob is not None:
            m = np.asarray(self.mask_prob, dtype=np.float64)
            if m.shape != self.depth.values.shape:
                raise ShapeError("mask resolution differs from depth")
            if np.min(m) < 0.0 or np.max(m) > 1.0:
                raise InvalidValueError("mask probabilities must lie in [0, 1]")
            self.mask_prob = m


@dataclass
class FactoredScene:
    """The factored multi-view output: per-view (rays, depth, pose) plus one scale.

    View 0 is the reference; in ground-truth containers its pose is identity.
    Views may have different resolutions.
    """

    views: list[FactoredView] = field(default_factory=list)
    scale: MetricScale = field(default_factory=lambda: MetricScale(1.0))

    @property
    def n_views(self) -> int:
        return len(self.views)


# ---------------------------------------------------------------------------
# ray maps and intrinsics


def rays_from_intrinsics(k: Intrinsics, width: int, height: int) -> RayMap:
    """Pinhole ray map: pixel (u, v) uses the pixel center (u + 0.5, v + 0.5)."""
    u = (np.arange(width, dtype=np.float64) + 0.5 - k.cx) / k.fx
    v = (np.arange(height, dtype=np.float64) + 0.5 - k.cy) / k.fy
    x, y = np.meshgrid(u, v)
    d = np.stack([x, y, np.ones_like(x)], axis=2)
    d /= np.linalg.norm(d, axis=2, keepdims=True)
    return RayMap(d)


def intrinsics_from_rays(r: RayMap) -> tuple[Intrinsics, float]:
    """Least-squares pinhole fit of a ray map.

    Fits (fx, cx) and (fy, cy) independently by regressing pixel centers on the
    normalized ray slopes dx/dz and dy/dz. Returns the intrinsics and the RMS
    pixel reprojection residual.
    """
    d = r.directions
    h, w = d.shape[:2]
    ax = (d[:, :, 0] / d[:, :, 2]).ravel()
    ay = (d[:, :, 1] / d[:, :, 2]).ravel()
    px = np.tile(np.arange(w, dtype=np.float64) + 0.5, h)
    py = np.repeat(np.arange(h, dtype=np.float64) + 0.5, w)

    def fit_axis(a, p):
        # p ~ f * a + c; degenerate when the slopes carry no spread
        if np.ptp(a) < 1e-12:
            raise RankDeficientError("ray map is degenerate along one axis")
        m = np.stack([a, np.ones_like(a)], axis=1)
        sol, _, rank, _ = np.linalg.lstsq(m, p, rcond=None)
        if rank < 2:
            raise RankDeficientError("rank-deficient intrinsics fit")
        return sol[0], sol[1], m @ sol - p

    fx, cx, rx = fit_axis(ax, px)
    fy, cy, ry = fit_axis(ay, py)
    if fx <= 0.0 or fy <= 0.0:
        raise RankDeficientError("intrinsics fit produced non-positive focal")
    residual = float(np.sqrt(np.mean(rx * rx + ry * ry)))
    return Intrinsics(fx=float(fx), fy=float(fy), cx=float(cx), cy=float(cy)), residual


# ---------------------------------------------------------------------------
# pointmap composition


def local_pointmap(r: RayMap, d: DepthAlongRay) -> PointMap:
    """Lift depths along rays into the camera frame: point = direction * depth."""
    if (r.height, r.width) != (d.height, d.width):
        raise ShapeError("ray map and depth resolutions differ")
    pts = r.directions * d.values[:, :, None]
    return PointMap(pts, d.validity.copy())


def world_pointmap(l: PointMap, p: Pose) -> PointMap:
    """Rotate/translate valid points of a local pointmap into the reference frame."""
    rot = quat_to_rot(p.rotation)
    pts = l.points @ rot.T + p.translation
    pts[~l.validity] = 0.0
    return PointMap(pts, l.validity.copy())


def metric_upgrade(x: PointMap, m: MetricScale) -> PointMap:
    """Scale every valid point by the metric factor."""
    return PointMap(x.points * m.value, x.validity.copy())


def compose_scene_points(scene: FactoredScene) -> list[PointMap]:
    """Metric world pointmaps for every view of a factored scene."""
    out = []
    for view in scene.views:
        lpm = local_pointmap(view.rays, view.depth)
        out.append(metric_upgrade(world_pointmap(lpm, view.pose), scene.scale))
    return out


# ---------------------------------------------------------------------------
# quaternions and poses


def _components(q) -> np.ndarray:
    """(..., 4) quaternions as their (4, ...) components w, x, y, z.

    A transpose view, much cheaper than np.moveaxis on single quaternions.
    """
    q = np.asarray(q, dtype=np.float64)
    return q.transpose(-1, *range(q.ndim - 1))


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b of (w, x, y, z) quaternions.

    Takes single (4,) quaternions or stacked (..., 4) ones, which broadcast
    against each other; the result has the broadcast shape.
    """
    aw, ax, ay, az = _components(a)
    bw, bx, by, bz = _components(b)
    prod = np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )
    return prod.transpose(*range(1, prod.ndim), 0)


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z).

    A (4,) quaternion gives a (3, 3) matrix and a stack (..., 4) gives
    (..., 3, 3). Raises when any quaternion is off unit length by more than 1e-6.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape[-1:] != (4,):
        raise ShapeError(f"quaternions must be (..., 4), got {q.shape}")
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if not (np.abs(n - 1.0) <= 1e-6).all():
        raise InvalidRotationError("quaternion must be unit length")
    w, x, y, z = _components(q / n)
    rot = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    return rot.transpose(*range(2, rot.ndim), 0, 1)


def rot_to_quat(rot: np.ndarray) -> np.ndarray:
    """Quaternion (w >= 0 canonical) of an orthonormal det +1 matrix."""
    rot = np.asarray(rot, dtype=np.float64)
    if rot.shape != (3, 3):
        raise ShapeError("rotation must be 3x3")
    if np.max(np.abs(rot @ rot.T - np.eye(3))) > 1e-6 or np.linalg.det(rot) < 0.0:
        raise InvalidRotationError("matrix is not a rotation")
    # Shepperd's method: pick the numerically largest component first.
    m00, m11, m22 = rot[0, 0], rot[1, 1], rot[2, 2]
    tr = m00 + m11 + m22
    if tr > max(m00, m11, m22):
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (rot[2, 1] - rot[1, 2]) / s, (rot[0, 2] - rot[2, 0]) / s, (rot[1, 0] - rot[0, 1]) / s]
        )
    elif m00 >= m11 and m00 >= m22:
        s = np.sqrt(1.0 + m00 - m11 - m22) * 2.0
        q = np.array(
            [(rot[2, 1] - rot[1, 2]) / s, 0.25 * s, (rot[0, 1] + rot[1, 0]) / s, (rot[0, 2] + rot[2, 0]) / s]
        )
    elif m11 >= m22:
        s = np.sqrt(1.0 + m11 - m00 - m22) * 2.0
        q = np.array(
            [(rot[0, 2] - rot[2, 0]) / s, (rot[0, 1] + rot[1, 0]) / s, 0.25 * s, (rot[1, 2] + rot[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + m22 - m00 - m11) * 2.0
        q = np.array(
            [(rot[1, 0] - rot[0, 1]) / s, (rot[0, 2] + rot[2, 0]) / s, (rot[1, 2] + rot[2, 1]) / s, 0.25 * s]
        )
    return canonical_quat(q / np.linalg.norm(q))


def pose_compose(a: Pose, b: Pose) -> Pose:
    """Composition a . b (apply b first, then a)."""
    q = quat_mul(a.rotation, b.rotation)
    t = quat_to_rot(a.rotation) @ b.translation + a.translation
    return Pose(q, t)


def pose_inverse(p: Pose) -> Pose:
    q = p.rotation * np.array([1.0, -1.0, -1.0, -1.0])
    t = -(quat_to_rot(p.rotation).T @ p.translation)
    return Pose(q, t)


def relative_pose(a: Pose, b: Pose) -> Pose:
    """Pose of b expressed in the frame of a: inverse(a) . b."""
    return pose_compose(pose_inverse(a), b)


# ---------------------------------------------------------------------------
# ray errors


def ray_angular_error(pred: RayMap, gt: RayMap) -> float:
    """Mean per-pixel angle between two ray maps, in degrees.

    The cosine divides by both norms so the tolerated 1e-6 unit-length slack
    does not register as angular error.
    """
    if pred.directions.shape != gt.directions.shape:
        raise ShapeError("ray map resolutions differ")
    dots = np.sum(pred.directions * gt.directions, axis=2)
    dots /= np.linalg.norm(pred.directions, axis=2) * np.linalg.norm(gt.directions, axis=2)
    return float(np.degrees(np.mean(np.arccos(np.clip(dots, -1.0, 1.0)))))
