"""Core representation algebra: rays, depths, poses and pointmap composition.

The scene is factored into per-view unit ray directions, depth along the ray,
a camera pose expressed in the frame of view 0, and one global metric scale.
Composition is ``metric = scale * (R @ (rays * depth) + t)``.

All functions are pure and treat their inputs as immutable.

Each container invariant is checked where data enters: in mapt.io, the
public constructors and the network heads, NaN, +-inf and empty arrays included.
"""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyDepthError,
    InvalidIntrinsicsError,
    InvalidRotationError,
    InvalidValueError,
    RankDeficientError,
    ShapeError,
)

RAY_UNIT_TOL = 1e-6
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])  # conjugation mask: conj(w, x, y, z) = (w, -x, -y, -z)
# Pixels (grid rows times width, or pooled rows) per block of the dense chains
# of the losses, metrics and shading, sized so a block's buffers stay in L2.
# Reductions run once over whole arrays: any block size gives the same bits.
_PIXEL_BLOCK = 1 << 14


@dataclass
class RayMap:
    """H x W grid of unit direction vectors in the camera frame (+z forward)."""

    directions: np.ndarray  # (H, W, 3) float64

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=np.float64)
        if d.ndim != 3 or d.shape[2] != 3:
            raise ShapeError(f"ray map must be (H, W, 3), got {d.shape}")
        if not np.all(np.abs(_norm3(d) - 1.0) <= RAY_UNIT_TOL):
            raise InvalidValueError("ray directions must be finite and unit length within 1e-6")
        if not np.all(d[:, :, 2] > 0.0):
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
        if not np.all(((v > 0.0) & (v < np.inf)) | ~m):
            raise InvalidValueError("valid depths must be finite and > 0")
        self.values = np.where(m, v, 0.0)
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
        q = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if q.size != 4 or t.size != 3:
            raise ShapeError(f"pose needs 4 quaternion and 3 translation components, got {q.size} and {t.size}")
        q, t = q.reshape(4), t.reshape(3)
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
        self.points = np.where(m[:, :, None], p, 0.0)
        if not np.isfinite(self.points).all():
            raise InvalidValueError("valid points must be finite")
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
            if not np.all((c >= 1.0) & (c < np.inf)):
                raise InvalidValueError("confidence values must be finite and >= 1")
            self.confidence = c
        if self.mask_prob is not None:
            m = np.asarray(self.mask_prob, dtype=np.float64)
            if m.shape != self.depth.values.shape:
                raise ShapeError("mask resolution differs from depth")
            if not np.all((m >= 0.0) & (m <= 1.0)):
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

    def __post_init__(self):
        _check_scene(self, FactoredView)

    @property
    def n_views(self) -> int:
        return len(self.views)


def _check_scene(scene, view_type: type) -> None:
    """Check the types of a scene container's views and scale (no pass over values)."""
    if not isinstance(scene.views, list) or not all(isinstance(v, view_type) for v in scene.views):
        raise InvalidValueError(f"scene views must be a list of {view_type.__name__}")
    if not isinstance(scene.scale, MetricScale):
        raise InvalidValueError(f"scene scale must be a MetricScale, got {type(scene.scale).__name__}")


# ---------------------------------------------------------------------------
# ray maps and intrinsics


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.sum(a * b, axis=-1) of (..., 3) vectors: the same products added in
    the same order, without numpy's slow strided reduce. Bit for bit, except
    that -0.0 products add up to -0.0 where np.sum gives +0.0."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _norm3(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=-1) of (..., 3) vectors, bit for bit (see _dot3)."""
    return np.sqrt(_dot3(x, x))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one, otherwise the CPU count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _blocks(n: int, width: int = 1, budget: int | None = None) -> list[slice]:
    """Slices covering range(n) of budget // width rows (at least one): row
    blocks of an (n, ...) array, or row bands of an (n, width) grid. The
    budget defaults to _PIXEL_BLOCK, read at each call."""
    step = max(1, (_PIXEL_BLOCK if budget is None else budget) // max(width, 1))
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


@contextlib.contextmanager
def _task_map(workers: int | None):
    """Yield run(fn, tasks): the list of fn over tasks, in order, inline for
    one task or one worker and otherwise on one pool of ``workers`` threads
    (None: one per usable CPU), whose threads start on first use."""
    workers = _usable_cpus() if workers is None else workers
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext() as pool:
        yield lambda fn, tasks: list(map(fn, tasks) if pool is None or len(tasks) < 2 else pool.map(fn, tasks))


def _rowwise(f, *arrays, out=None) -> np.ndarray:
    """f(*arrays) for an f that works row by row, run on row blocks and
    written into ``out`` (by default a new float64 array): the same bits."""
    out = np.empty(len(arrays[0])) if out is None else out
    for s in _blocks(len(out)):
        out[s] = f(*(a[s] for a in arrays))
    return out


def _pinhole_directions(k: Intrinsics, width: int, height: int) -> np.ndarray:
    """The unchecked (H, W, 3) directions of rays_from_intrinsics."""
    u = (np.arange(width, dtype=np.float64) + 0.5 - k.cx) / k.fx
    v = (np.arange(height, dtype=np.float64) + 0.5 - k.cy) / k.fy
    x, y = np.meshgrid(u, v)
    d = np.stack([x, y, np.ones_like(x)], axis=2)
    d /= _norm3(d)[:, :, None]
    return d


def rays_from_intrinsics(k: Intrinsics, width: int, height: int) -> RayMap:
    """Pinhole ray map: pixel (u, v) uses the pixel center (u + 0.5, v + 0.5)."""
    return RayMap(_pinhole_directions(k, width, height))


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
        if a.size == 0 or np.ptp(a) < 1e-12:
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


def _compose(points, validity, depth=None, pose=None, scale=None) -> np.ndarray:
    """One view's points ``scale * (R @ (points * depth) + t)``, 0 at invalid pixels.

    Each stage runs only when its argument is given: ``points`` are unit rays
    when ``depth`` is, else camera-frame points. The stages run in the order
    of local_pointmap, world_pointmap and metric_upgrade, and the result is
    always a new (H, W, 3) array. Finite inputs can overflow, so a non-finite
    result raises InvalidValueError.
    """
    if depth is None:
        pts = points
    else:  # per component: the same bits as a broadcast multiply, whose inner loop has length 3, and faster
        pts = np.empty(points.shape)
        for k in range(3):
            np.multiply(points[:, :, k], depth, out=pts[:, :, k])
    if pose is not None:
        # one matmul over the (H, W, 3) grid: numpy computes (H, 1, 3) @ (3, 3)
        # by another route than (H, 3) @ (3, 3), and the last bit can differ
        pts = np.matmul(pts, quat_to_rot(pose.rotation).T, order="C")
        for k in range(3):  # twice as fast as one add broadcast over the last axis
            pts[:, :, k] += pose.translation[k]
    elif depth is None:
        pts = points.copy()  # the stages below write in place
    # pts is a new C-ordered array, so its (H * W, 3) rows are a view of it
    pts.reshape(-1, 3)[np.flatnonzero(~validity)] = 0.0
    if scale is not None:
        pts *= scale
    if not np.isfinite(pts).all():
        raise InvalidValueError("valid points must be finite")
    return pts


def _rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, raising InvalidValueError for a seed numpy rejects."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidValueError(f"seed must be a non-negative integer, got {seed!r}") from exc


def _check(what: str, shapes: list, *grids: list) -> None:
    """Raise unless every grid list has one array per view whose leading
    dimensions are that view's entry in ``shapes``; the errors name ``what``
    and the first bad view."""
    if not shapes:
        raise EmptyDepthError(f"{what}: no views")
    for g in grids:
        if len(g) != len(shapes):
            raise ShapeError(f"{what}: view counts differ ({len(g)} vs {len(shapes)})")
    for i, shape in enumerate(shapes):
        for g in grids:
            if g[i].shape[: len(shape)] != shape:
                raise ShapeError(f"{what}: view {i} resolution mismatch ({g[i].shape[: len(shape)]} vs {shape})")


def _pool(what: str, masks: list, *grids: list) -> tuple[np.ndarray, ...]:
    """The view offsets, then the pixels selected by ``masks[i]`` of view i of
    each per-view grid list, concatenated in view order.

    View i's pixels are rows ``offsets[i]:offsets[i + 1]`` of every pooled
    array. Every grid list needs one (H, W, ...) array per (H, W) mask, at
    that mask's resolution (see _check).
    """
    _check(what, [m.shape for m in masks], *grids)
    idx = [np.flatnonzero(m) for m in masks]
    offsets = np.cumsum([0] + [i.size for i in idx])
    pooled = [offsets]
    for g in grids:
        out = np.empty((offsets[-1], *g[0].shape[masks[0].ndim :]), dtype=np.result_type(*g))
        for x, m, i, a, b in zip(g, masks, idx, offsets, offsets[1:]):
            # np.take into the output is several times faster than x[m] and a
            # concatenate; mode="clip" skips the bounds check of valid indices
            np.take(x.reshape(m.size, *x.shape[m.ndim :]), i, axis=0, out=out[a:b], mode="clip")
        pooled.append(out)
    return tuple(pooled)


def _pool_bands(masks: list, band, dtype=np.float64) -> np.ndarray:
    """The (N, 3) rows _pool pools at the (H, W) ``masks`` from per-view
    (H, W, 3) grids, where ``band(i, s)`` gives rows ``s`` of view i's grid:
    made and gathered one row band at a time, so that no grid exists whole."""
    out, k = np.empty((sum(map(np.count_nonzero, masks)), 3), dtype), 0
    for i, m in enumerate(masks):
        for s in _blocks(m.shape[0], m.shape[1]):
            j = np.flatnonzero(m[s])
            np.take(band(i, s).reshape(-1, 3), j, axis=0, out=out[k : k + j.size], mode="clip")
            k += j.size
    return out


def _pool_composed(masks: list, views: list) -> np.ndarray:
    """The rows _pool pools from [_compose(*v) for v in views] at ``masks``,
    for the (rays, validity, depth[, pose[, scale]]) ``views``, through _pool_bands."""
    return _pool_bands(masks, lambda i, s: _compose(*(a[s] for a in views[i][:3]), *views[i][3:]))


def _forward_normals(points: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals of a (H, W, 3) point grid with validity ``v`` from forward
    differences, as a (H-1, W-1, 3) grid, and where they exist: the 2x2 patch
    is valid and the cross product nonzero. Normals elsewhere are 0."""
    # component-major (3, H-1, W-1) arrays, so that every step reads contiguous rows
    p = np.moveaxis(points, 2, 0)
    a = np.subtract(p[:, :-1, 1:], p[:, :-1, :-1], order="C")
    b = np.subtract(p[:, 1:, :-1], p[:, :-1, :-1], order="C")
    # np.cross(a, b), component by component in its own order
    n = np.empty_like(a)
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(a[i], b[j], out=n[k])
        n[k] -= a[j] * b[i]
    norms = _norm3(np.moveaxis(n, 0, 2))
    ok = v[:-1, :-1] & v[:-1, 1:] & v[1:, :-1] & v[1:, 1:] & (norms > 1e-12)
    return np.moveaxis(np.divide(n, norms, out=np.zeros_like(n), where=ok), 0, 2), ok


def local_pointmap(r: RayMap, d: DepthAlongRay) -> PointMap:
    """Lift depths along rays into the camera frame: point = direction * depth."""
    if (r.height, r.width) != (d.height, d.width):
        raise ShapeError("ray map and depth resolutions differ")
    return PointMap(_compose(r.directions, d.validity, d.values), d.validity.copy())


def world_pointmap(l: PointMap, p: Pose) -> PointMap:
    """Rotate/translate valid points of a local pointmap into the reference frame."""
    return PointMap(_compose(l.points, l.validity, pose=p), l.validity.copy())


def metric_upgrade(x: PointMap, m: MetricScale) -> PointMap:
    """Scale every valid point by the metric factor."""
    return PointMap(_compose(x.points, x.validity, scale=m.value), x.validity.copy())


def compose_scene_points(scene: FactoredScene) -> list[PointMap]:
    """Metric world pointmaps for every view of a factored scene."""
    s = scene.scale.value
    return [
        PointMap(_compose(v.rays.directions, v.depth.validity, v.depth.values, v.pose, s), v.depth.validity.copy())
        for v in scene.views
    ]


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
    if not (np.all(np.abs(rot @ rot.T - np.eye(3)) <= 1e-6) and np.linalg.det(rot) > 0.0):
        raise InvalidRotationError("matrix is not a rotation")
    # Shepperd's method: the largest of |w|, |x|, |y|, |z| from the diagonal, the rest from a or rot + rot.T
    a = np.array([rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]])
    tr = rot[0, 0] + rot[1, 1] + rot[2, 2]
    c = int(np.argmax(np.diag(rot)))  # the first largest diagonal entry
    if tr > rot[c, c]:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s, *(a / s)])
    else:
        o1, o2 = [k for k in range(3) if k != c]
        s = np.sqrt(1.0 + rot[c, c] - rot[o1, o1] - rot[o2, o2]) * 2.0
        q = np.array([a[c], *(rot[c] + rot[:, c])]) / s
        q[c + 1] = 0.25 * s
    return canonical_quat(q / np.linalg.norm(q))


def _pair_relative_poses(poses: list[Pose], i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pose of view j in the frame of view i for every index pair: renormalized
    quaternions conj(q_i) * q_j (P, 4) and translations R_i^T (t_j - t_i) (P, 3)."""
    q = np.stack([p.rotation for p in poses])
    t = np.stack([p.translation for p in poses])
    rel_q = quat_mul(q[i] * _CONJ, q[j])
    rel_q /= np.linalg.norm(rel_q, axis=1, keepdims=True)
    rel_t = np.einsum("pki,pk->pi", quat_to_rot(q)[i], t[j] - t[i])
    return rel_q, rel_t


def pose_compose(a: Pose, b: Pose) -> Pose:
    """Composition a . b (apply b first, then a)."""
    q = quat_mul(a.rotation, b.rotation)
    t = quat_to_rot(a.rotation) @ b.translation + a.translation
    return Pose(q, t)


def pose_inverse(p: Pose) -> Pose:
    q = p.rotation * _CONJ
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
    a, b = pred.directions.reshape(-1, 3), gt.directions.reshape(-1, 3)
    angles = _rowwise(lambda x, y: np.arccos(np.clip(_dot3(x, y) / (_norm3(x) * _norm3(y)), -1.0, 1.0)), a, b)
    return float(np.degrees(np.mean(angles)))
