"""Bit-exact on-disk formats: the MAPT tensor container, scene manifests and
binary PLY export.

Tensor container layout (little-endian): magic ``MAPT`` (4 bytes), version u8
(=1), dtype u8 (1 = float32, 2 = uint8), ndim u8, ndim x u32 dims, then the
row-major payload. Reads reproduce writes bit-exactly.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError
from .geometry import (
    DepthAlongRay,
    FactoredScene,
    FactoredView,
    Intrinsics,
    MetricScale,
    Pose,
    RayMap,
)
from .synth import SceneSample, ViewSample

MAGIC = b"MAPT"
TENSOR_VERSION = 1
DTYPE_F32 = 1
DTYPE_U8 = 2
MANIFEST_NAME = "scene.json"
MANIFEST_VERSION = 1


def write_tensor(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    if arr.dtype == np.bool_:
        arr = arr.astype(np.uint8)
    if arr.dtype == np.uint8:
        code, payload = DTYPE_U8, arr.tobytes(order="C")
    else:
        code, payload = DTYPE_F32, arr.astype("<f4").tobytes(order="C")
    header = MAGIC + struct.pack("<BBB", TENSOR_VERSION, code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    Path(path).write_bytes(header + payload)


def read_tensor(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < 7 or data[:4] != MAGIC:
        raise FormatError(f"{path}: not a MAPT tensor file")
    version, code, ndim = struct.unpack("<BBB", data[4:7])
    if version != TENSOR_VERSION:
        raise FormatError(f"{path}: unsupported tensor version {version}")
    if len(data) < 7 + 4 * ndim:
        raise FormatError(f"{path}: truncated tensor header")
    dims = struct.unpack(f"<{ndim}I", data[7 : 7 + 4 * ndim])
    payload = data[7 + 4 * ndim :]
    count = int(np.prod(dims)) if ndim else 1
    if code == DTYPE_F32:
        if len(payload) != 4 * count:
            raise FormatError(f"{path}: payload size mismatch")
        return np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    if code == DTYPE_U8:
        if len(payload) != count:
            raise FormatError(f"{path}: payload size mismatch")
        return np.frombuffer(payload, dtype=np.uint8).reshape(dims).copy()
    raise FormatError(f"{path}: unknown dtype code {code}")


# ---------------------------------------------------------------------------
# scene manifests


def _dump_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _pose_list(p: Pose) -> list[float]:
    return [float(x) for x in p.rotation] + [float(x) for x in p.translation]


def _pose_from_list(vals) -> Pose:
    vals = [float(v) for v in vals]
    if len(vals) != 7:
        raise FormatError("pose entry must have 7 values (qw qx qy qz tx ty tz)")
    return Pose(np.array(vals[:4]), np.array(vals[4:]))


def _view_files(i: int, with_conf: bool) -> dict:
    base = f"view_{i:03d}"
    files = {
        "rays": f"{base}_rays.mapt",
        "depth": f"{base}_depth.mapt",
        "validity": f"{base}_validity.mapt",
        "mask": f"{base}_mask.mapt",
    }
    if with_conf:
        files["confidence"] = f"{base}_confidence.mapt"
    return files


def write_scene(path, scene: SceneSample) -> None:
    """Write a ground-truth scene directory (manifest + tensors)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    views = []
    for i, v in enumerate(scene.views):
        files = _view_files(i, with_conf=False)
        write_tensor(path / files["rays"], v.rays.directions)
        write_tensor(path / files["depth"], v.depth.values)
        write_tensor(path / files["validity"], v.depth.validity)
        write_tensor(path / files["mask"], v.mask.astype(np.uint8))
        views.append(
            {
                "width": v.rays.width,
                "height": v.rays.height,
                "intrinsics": [float(v.intrinsics.fx), float(v.intrinsics.fy), float(v.intrinsics.cx), float(v.intrinsics.cy)],
                "pose": _pose_list(v.pose),
                "files": files,
            }
        )
    manifest = {
        "version": MANIFEST_VERSION,
        "n_views": scene.n_views,
        "metric_scale": float(scene.scale.value),
        "views": views,
    }
    _dump_json(path / MANIFEST_NAME, manifest)


def write_factored(path, scene: FactoredScene) -> None:
    """Write a predicted factored scene directory (no intrinsics; float masks)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    views = []
    for i, v in enumerate(scene.views):
        files = _view_files(i, with_conf=v.confidence is not None)
        write_tensor(path / files["rays"], v.rays.directions)
        write_tensor(path / files["depth"], v.depth.values)
        write_tensor(path / files["validity"], v.depth.validity)
        mask = v.mask_prob if v.mask_prob is not None else np.ones_like(v.depth.values)
        write_tensor(path / files["mask"], mask)
        if v.confidence is not None:
            write_tensor(path / files["confidence"], v.confidence)
        views.append(
            {
                "width": v.rays.width,
                "height": v.rays.height,
                "pose": _pose_list(v.pose),
                "files": files,
            }
        )
    manifest = {
        "version": MANIFEST_VERSION,
        "n_views": scene.n_views,
        "metric_scale": float(scene.scale.value),
        "views": views,
    }
    _dump_json(path / MANIFEST_NAME, manifest)


def _load_manifest(path: Path) -> dict:
    mf = path / MANIFEST_NAME
    if not mf.is_file():
        raise FormatError(f"{path}: missing {MANIFEST_NAME}")
    try:
        manifest = json.loads(mf.read_text())
    except ValueError as exc:
        raise FormatError(f"{mf}: not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"{mf}: manifest must be a JSON object")
    if manifest.get("version") != MANIFEST_VERSION:
        raise FormatError(f"{path}: unsupported manifest version")
    if len(manifest.get("views", [])) != manifest.get("n_views"):
        raise FormatError(f"{path}: view count does not match manifest entries")
    if "metric_scale" not in manifest:
        raise FormatError(f"{path}: manifest lacks 'metric_scale'")
    for i, entry in enumerate(manifest["views"]):
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: view {i} must be a JSON object")
        for key in ("pose", "files", "width", "height"):
            if key not in entry:
                raise FormatError(f"{path}: view {i} lacks {key!r}")
    return manifest


def _read_view_arrays(path: Path, entry: dict):
    files = entry["files"]
    for key in ("rays", "depth", "validity", "mask"):
        if key not in files or not (path / files[key]).is_file():
            raise FormatError(f"{path}: missing tensor file for {key!r}")
    rays = RayMap(read_tensor(path / files["rays"]).astype(np.float64))
    validity = read_tensor(path / files["validity"]) != 0
    depth = DepthAlongRay(read_tensor(path / files["depth"]).astype(np.float64), validity)
    mask = read_tensor(path / files["mask"])
    conf = None
    if "confidence" in files:
        conf = read_tensor(path / files["confidence"]).astype(np.float64)
    if (rays.height, rays.width) != (entry["height"], entry["width"]):
        raise FormatError(f"{path}: tensor resolution disagrees with manifest")
    return rays, depth, mask, conf


def read_scene(path) -> SceneSample:
    """Read a ground-truth scene directory into a SceneSample."""
    path = Path(path)
    manifest = _load_manifest(path)
    views = []
    for i, entry in enumerate(manifest["views"]):
        if "intrinsics" not in entry:
            raise FormatError(f"{path}: view {i} lacks intrinsics (not a ground-truth scene)")
        rays, depth, mask, _ = _read_view_arrays(path, entry)
        pose = _pose_from_list(entry["pose"])
        if i == 0:
            ident = np.array([1.0, 0.0, 0.0, 0.0])
            if np.max(np.abs(pose.rotation - ident)) > 1e-12 or np.max(np.abs(pose.translation)) > 1e-12:
                raise FormatError(f"{path}: ground-truth view 0 pose must be identity")
        fx, fy, cx, cy = entry["intrinsics"]
        views.append(
            ViewSample(
                intrinsics=Intrinsics(fx=fx, fy=fy, cx=cx, cy=cy),
                rays=rays,
                depth=depth,
                mask=mask != 0,
                pose=pose,
            )
        )
    return SceneSample(views=views, scale=MetricScale(manifest["metric_scale"]))


def read_factored(path) -> FactoredScene:
    """Read any scene directory as a factored scene (prediction-shaped)."""
    path = Path(path)
    manifest = _load_manifest(path)
    views = []
    for entry in manifest["views"]:
        rays, depth, mask, conf = _read_view_arrays(path, entry)
        mask_prob = (mask != 0).astype(np.float64) if mask.dtype == np.uint8 else np.clip(
            mask.astype(np.float64), 0.0, 1.0
        )
        views.append(
            FactoredView(
                rays=rays,
                depth=depth,
                pose=_pose_from_list(entry["pose"]),
                confidence=conf,
                mask_prob=mask_prob,
            )
        )
    return FactoredScene(views=views, scale=MetricScale(manifest["metric_scale"]))


# ---------------------------------------------------------------------------
# PLY export


def write_ply(path, points: np.ndarray, colors: np.ndarray) -> None:
    """Binary little-endian PLY: float32 x/y/z plus uchar red/green/blue."""
    points = np.asarray(points, dtype="<f4").reshape(-1, 3)
    colors = np.asarray(colors, dtype=np.uint8).reshape(-1, 3)
    if points.shape[0] != colors.shape[0]:
        raise ShapeError("point and color counts differ")
    n = points.shape[0]
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {n}\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "property uchar red\n"
        "property uchar green\n"
        "property uchar blue\n"
        "end_header\n"
    ).encode("ascii")
    rec = np.zeros(n, dtype=[("x", "<f4"), ("y", "<f4"), ("z", "<f4"), ("r", "u1"), ("g", "u1"), ("b", "u1")])
    rec["x"], rec["y"], rec["z"] = points[:, 0], points[:, 1], points[:, 2]
    rec["r"], rec["g"], rec["b"] = colors[:, 0], colors[:, 1], colors[:, 2]
    Path(path).write_bytes(header + rec.tobytes())
