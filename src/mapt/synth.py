"""Analytic scene generator and raycaster used as the trusted test oracle.

Scenes are spheres plus an optional fronto-parallel plane, expressed directly
in the frame of view 0 (the world frame). Intersections are closed-form, so
composed factored geometry can be checked against raycast points to 1e-6.

Ray directions are quantized to float32 at generation time so that the on-disk
tensor container (float32 payloads) reproduces them bit-exactly.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValueError, RetryBudgetError, ShapeError
from .geometry import (
    DepthAlongRay,
    FactoredScene,
    FactoredView,
    Intrinsics,
    MetricScale,
    Pose,
    RayMap,
    _blocks,
    _check_scene,
    _compose,
    _dot3,
    _forward_normals,
    _norm3,
    _pinhole_directions,
    _rng,
    quat_to_rot,
    rot_to_quat,
)

RAY_HIT_EPS = 1e-6
MIN_VALID_FRACTION = 0.1
# Far clip for rendered views: grazing plane hits otherwise produce unbounded
# ray depths whose float32 storage rounding would defeat the 1e-6 composition
# checks. Pixels beyond the clip are invalid and ambiguous, like sky.
MAX_RAY_DEPTH = 12.0
_LIGHT = np.array([0.4, -0.6, -0.7]) / np.linalg.norm([0.4, -0.6, -0.7])  # shade_view's unit light direction


@dataclass
class AnalyticScene:
    """Sphere cluster plus optional infinite plane z = ground_plane (normal +z)."""

    centers: np.ndarray  # (K, 3)
    radii: np.ndarray  # (K,)
    ground_plane: float | None = None

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=np.float64).reshape(-1, 3)
        r = np.asarray(self.radii, dtype=np.float64).reshape(-1)
        if c.shape[0] != r.shape[0]:
            raise ShapeError("sphere centers and radii counts differ")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(r)) and np.all(r > 0.0)):
            raise InvalidValueError("sphere parameters must be finite with positive radii")
        self.centers = c
        self.radii = r


@dataclass
class ViewSample:
    """Ground truth for one rendered view. Like FactoredView, it checks at
    construction that its intrinsics are an Intrinsics and that its rays,
    depth and mask share one resolution (shapes only: the part constructors
    check the values)."""

    intrinsics: Intrinsics
    rays: RayMap
    depth: DepthAlongRay
    mask: np.ndarray  # (H, W) bool, False on sky / no-hit (ambiguous)
    pose: Pose  # view-to-view-0
    image: np.ndarray | None = None  # (H, W, 3) float32 in [0, 1]

    def __post_init__(self):
        if not isinstance(self.intrinsics, Intrinsics):
            raise InvalidValueError(f"ground-truth views need Intrinsics, got {type(self.intrinsics).__name__}")
        if (self.rays.height, self.rays.width) != (self.depth.height, self.depth.width):
            raise ShapeError("ray map and depth resolutions differ")
        if np.shape(self.mask) != self.depth.values.shape:
            raise ShapeError("mask resolution differs from depth")


@dataclass
class SceneSample:
    """Ground-truth container: per-view calibration, geometry and pose, plus scale."""

    views: list[ViewSample]
    scale: MetricScale

    def __post_init__(self):
        _check_scene(self, ViewSample)

    @property
    def n_views(self) -> int:
        return len(self.views)

    def as_factored_scene(self) -> FactoredScene:
        """Ground truth repackaged as a prediction (unit confidence, exact masks)."""
        views = [
            FactoredView(
                rays=v.rays,
                depth=v.depth,
                pose=v.pose,
                confidence=np.ones_like(v.depth.values),
                mask_prob=v.mask.astype(np.float64),
            )
            for v in self.views
        ]
        return FactoredScene(views=views, scale=MetricScale(self.scale.value))


# ---------------------------------------------------------------------------
# raycasting


def _raycast_arrays(scene: AnalyticScene, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Nearest positive hit distance per direction; inf where there is no hit.

    All directions share one origin. Works on any (..., 3) direction array.
    """
    d = np.asarray(dirs, dtype=np.float64)
    o = np.asarray(origin, dtype=np.float64).reshape(3)
    best = np.full(d.shape[:-1], np.inf)
    for c, r in zip(scene.centers, scene.radii):
        oc = o - c
        b = 2.0 * (d @ oc)
        c0 = float(oc @ oc - r * r)
        disc = b * b - 4.0 * c0
        hit = disc >= 0.0
        sq = np.sqrt(np.where(hit, disc, 0.0))
        t0 = (-b - sq) / 2.0
        t1 = (-b + sq) / 2.0
        t = np.where(t0 > RAY_HIT_EPS, t0, np.where(t1 > RAY_HIT_EPS, t1, np.inf))
        t = np.where(hit, t, np.inf)
        best = np.minimum(best, t)
    if scene.ground_plane is not None:
        dz = d[..., 2]
        safe = np.abs(dz) > 1e-12
        t = np.where(safe, (scene.ground_plane - o[2]) / np.where(safe, dz, 1.0), np.inf)
        t = np.where(t > RAY_HIT_EPS, t, np.inf)
        best = np.minimum(best, t)
    return best


def raycast(scene: AnalyticScene, origin, direction) -> float | None:
    """Nearest positive intersection along a unit ray, None on miss."""
    direction = np.asarray(direction, dtype=np.float64).reshape(3)
    if not abs(np.linalg.norm(direction) - 1.0) <= 1e-6:
        raise InvalidValueError("raycast requires a unit direction")
    t = float(_raycast_arrays(scene, origin, direction[None, :])[0])
    return None if not np.isfinite(t) else t


def render_view(
    scene: AnalyticScene,
    intrinsics: Intrinsics,
    pose: Pose,
    width: int,
    height: int,
) -> tuple[RayMap, DepthAlongRay, np.ndarray, np.ndarray]:
    """Raycast one pinhole view; returns (rays, ray depth, validity, mask).

    Ray directions are float32-quantized; depths are the exact float64 hit
    distances along those quantized rays, far-clipped at ``MAX_RAY_DEPTH``. The
    non-ambiguous mask equals the validity (sky and far-clipped pixels are
    both invalid and ambiguous).
    """
    rays = RayMap(_pinhole_directions(intrinsics, width, height).astype(np.float32).astype(np.float64))
    rot = quat_to_rot(pose.rotation)
    world_dirs = rays.directions @ rot.T
    t = _raycast_arrays(scene, pose.translation, world_dirs)
    validity = np.isfinite(t) & (t <= MAX_RAY_DEPTH)
    depth = DepthAlongRay(t, validity)
    return rays, depth, validity, validity.copy()


# ---------------------------------------------------------------------------
# procedural shading (network input bytes / point colors only)


def shade_view(rays: RayMap, depth: DepthAlongRay) -> np.ndarray:
    """Procedural image from rendered geometry alone: Lambertian-ish shading of
    forward-difference normals, sky gradient on misses. Returns (H, W, 3) f32."""
    h, w = depth.validity.shape
    out = np.empty((h, w, 3), dtype=np.float32)
    for s in _blocks(h, w):
        out[s] = _shade_rows(rays, depth, s)
    return out


def _shade_rows(rays: RayMap, depth: DepthAlongRay, s: slice) -> np.ndarray:
    """Rows ``s`` of shade_view's image, in float64 before its float32 cast."""
    rows = slice(s.start, s.stop + 1)  # one more row for the forward differences
    dirs, v, d = rays.directions[s], depth.validity[s], depth.values[s]
    normals = np.zeros(dirs.shape)
    band = _forward_normals(_compose(rays.directions[rows], depth.validity[rows], depth.values[rows]), depth.validity[rows])[0]
    normals[: len(band), :-1] = band
    # fall back to facing the camera where no neighborhood normal exists
    np.negative(dirs, out=normals, where=(_norm3(normals) < 0.5)[:, :, None])
    flip = _dot3(normals, dirs) > 0.0
    np.negative(normals, out=normals, where=flip[:, :, None])

    lam = np.clip(_dot3(normals, -_LIGHT), 0.0, 1.0)
    bright = 0.25 + 0.75 * lam
    img = np.empty(dirs.shape)
    img[:, :, 0] = bright * 0.9
    img[:, :, 1] = bright * (0.72 + 0.18 * np.sin(d))
    img[:, :, 2] = bright * 0.62

    dy_sky = dirs[:, :, 1]
    sky = np.stack([0.45 + 0.25 * dy_sky, 0.55 + 0.2 * dy_sky, 0.85 + 0.1 * dy_sky], axis=2)
    return np.clip(np.where(v[:, :, None], img, sky), 0.0, 1.0)


# ---------------------------------------------------------------------------
# scene generation


def _look_at(eye: np.ndarray, target: np.ndarray, rng: np.random.Generator) -> Pose:
    z = target - eye
    z = z / np.linalg.norm(z)
    up = np.array([0.0, 1.0, 0.0])
    if abs(z @ up) > 0.98:
        up = np.array([1.0, 0.0, 0.0])
    x = np.cross(up, z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    roll = rng.uniform(-0.26, 0.26)
    cr, sr = np.cos(roll), np.sin(roll)
    xr = cr * x + sr * y
    yr = -sr * x + cr * y
    rot = np.stack([xr, yr, z], axis=1)
    return Pose(rot_to_quat(rot), eye)


def _sample_intrinsics(rng: np.random.Generator, width: int, height: int) -> Intrinsics:
    # fov on the larger image axis; principal point offset emulates the
    # off-center crops (aspect ratios 3:1 down to 1:2) of the benchmark setup
    fov = np.radians(rng.uniform(40.0, 80.0))
    f = 0.5 * max(width, height) / np.tan(fov / 2.0)
    cx = width / 2.0 + rng.uniform(-0.35, 0.35) * width
    cy = height / 2.0 + rng.uniform(-0.35, 0.35) * height
    return Intrinsics(fx=float(f), fy=float(f), cx=float(cx), cy=float(cy))


def _sample_analytic(rng: np.random.Generator, n_spheres: int, plane: bool | None) -> AnalyticScene:
    dist = rng.uniform(3.0, 4.0)
    cluster = np.array([0.0, 0.0, dist])
    centers = cluster + rng.uniform(-0.9, 0.9, size=(n_spheres, 3))
    radii = rng.uniform(0.35, 0.7, size=n_spheres)
    if plane is None:
        plane = bool(rng.random() < 0.5)
    z0 = None
    if plane:
        z0 = float(np.max(centers[:, 2] + radii) + rng.uniform(0.8, 1.6))
    return AnalyticScene(centers=centers, radii=radii, ground_plane=z0)


def _sample_camera(rng: np.random.Generator, cluster: np.ndarray) -> Pose:
    r = rng.uniform(2.6, 4.2)
    uz = rng.uniform(-1.0, -0.25)
    az = rng.uniform(0.0, 2.0 * np.pi)
    s = np.sqrt(1.0 - uz * uz)
    u = np.array([s * np.cos(az), s * np.sin(az), uz])
    eye = cluster + r * u
    target = cluster + rng.uniform(-0.3, 0.3, size=3)
    return _look_at(eye, target, rng)


def gen_scene(
    n_views: int,
    width: int,
    height: int,
    n_spheres: int,
    seed: int,
    metric_scale: float = 1.0,
    plane: bool | None = None,
    with_images: bool = True,
) -> tuple[AnalyticScene, SceneSample]:
    """Deterministic synthetic scene with >= 10% valid pixels in every view.

    View 0 always has the identity pose (the world frame is its camera frame);
    the other cameras sit on a hemisphere around the sphere cluster, looking at
    it with jitter. Cameras and intrinsics are resampled (bounded retries) until
    the validity floor holds.
    """
    if not all(isinstance(x, numbers.Integral) for x in (n_views, width, height, n_spheres)):
        raise InvalidValueError("the view, pixel and sphere counts must be integers")
    if n_views < 1:
        raise InvalidValueError("need at least one view")
    if width < 8 or height < 8:
        raise InvalidValueError("image dimensions must be at least 8")
    if n_spheres < 1:
        raise InvalidValueError("need at least one sphere")
    rng = _rng(seed)
    for _ in range(12):
        scene = _sample_analytic(rng, n_spheres, plane)
        cluster = scene.centers.mean(axis=0)
        views: list[ViewSample] = []
        scene_ok = True
        for i in range(n_views):
            view = None
            for _attempt in range(60):
                k = _sample_intrinsics(rng, width, height)
                pose = Pose.identity() if i == 0 else _sample_camera(rng, cluster)
                rays, depth, validity, mask = render_view(scene, k, pose, width, height)
                if float(validity.mean()) >= MIN_VALID_FRACTION:
                    image = shade_view(rays, depth) if with_images else None
                    view = ViewSample(
                        intrinsics=k, rays=rays, depth=depth, mask=mask, pose=pose, image=image
                    )
                    break
            if view is None:
                scene_ok = False
                break
            views.append(view)
        if scene_ok:
            return scene, SceneSample(views=views, scale=MetricScale(metric_scale))
    raise RetryBudgetError("could not generate a scene meeting the validity floor")
