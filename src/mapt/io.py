"""Bit-exact on-disk formats: the MAPT tensor container, scene manifests and
binary PLY export.

Tensor container layout (little-endian): magic ``MAPT`` (4 bytes), version u8
(=1), dtype u8 (1 = float32, 2 = uint8), ndim u8, ndim x u32 dims, then the
row-major payload. Reads reproduce writes bit-exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, NumericOverflowError, ShapeError
from .geometry import (
    DepthAlongRay,
    FactoredScene,
    FactoredView,
    Intrinsics,
    MetricScale,
    Pose,
    RayMap,
    _blocks,
)
from .synth import SceneSample, ViewSample

MAGIC = b"MAPT"
TENSOR_VERSION = 1
DTYPE_F32 = 1
DTYPE_U8 = 2
# Payload dtype of each dtype code; write_tensor stores bool arrays as uint8.
_DTYPES = {DTYPE_F32: np.dtype("<f4"), DTYPE_U8: np.dtype("u1")}
MANIFEST_NAME = "scene.json"
MANIFEST_VERSION = 1
# The tensors of each view of a scene directory, stored as view_{i:03d}_{key}.mapt;
# a "confidence" tensor may follow them.
_VIEW_TENSORS = ("rays", "depth", "validity", "mask")


def write_tensor(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    code = DTYPE_U8 if arr.dtype in (np.bool_, np.uint8) else DTYPE_F32
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack(f"<BBB{arr.ndim}I", TENSOR_VERSION, code, arr.ndim, *arr.shape))
        arr.astype(_DTYPES[code], copy=False).tofile(f)


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        head = f.read(7)
        if len(head) < 7 or head[:4] != MAGIC:
            raise FormatError(f"{path}: not a MAPT tensor file")
        version, code, ndim = struct.unpack("<BBB", head[4:7])
        if version != TENSOR_VERSION:
            raise FormatError(f"{path}: unsupported tensor version {version}")
        dims = f.read(4 * ndim)
        if len(dims) < 4 * ndim:
            raise FormatError(f"{path}: truncated tensor header")
        if code not in _DTYPES:
            raise FormatError(f"{path}: unknown dtype code {code}")
        dims = struct.unpack(f"<{ndim}I", dims)
        # the element count as an exact Python int: a uint64 product can wrap around
        count = np.prod(dims, dtype=object)
        if Path(path).stat().st_size - f.tell() != _DTYPES[code].itemsize * count:
            raise FormatError(f"{path}: payload size mismatch")
        try:
            return np.fromfile(f, dtype=_DTYPES[code], count=count).reshape(dims)
        except ValueError as exc:  # dims numpy cannot hold: more than 64, or huge ones beside a 0
            raise FormatError(f"{path}: unsupported tensor shape {dims}") from exc


# ---------------------------------------------------------------------------
# scene manifests


def _dump_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _pose_list(p: Pose) -> list[float]:
    return [float(x) for x in p.rotation] + [float(x) for x in p.translation]


def _pose_from_list(vals) -> Pose:
    return Pose(np.array(vals[:4], dtype=np.float64), np.array(vals[4:], dtype=np.float64))


def _numbers(vals, n: int) -> bool:
    """Whether a manifest value is a list of n JSON numbers within float32 range, as
    the tensors and the PLY store; the NaN and Infinity literals pass, for the
    constructors to reject them."""
    top = float(np.finfo(np.float32).max)
    return (
        isinstance(vals, list)
        and len(vals) == n
        and all(type(v) is float and not math.isfinite(v) or type(v) in (int, float) and abs(v) <= top for v in vals)
    )


def write_scene(path, scene: SceneSample) -> None:
    """Write a ground-truth scene directory (manifest + tensors)."""
    intrinsics = [{"intrinsics": [float(x) for x in dataclasses.astuple(v.intrinsics)]} for v in scene.views]
    _write_dir(path, scene, [v.mask.astype(np.uint8) for v in scene.views], [None] * scene.n_views, intrinsics)


def write_factored(path, scene: FactoredScene) -> None:
    """Write a predicted factored scene directory (no intrinsics; float masks)."""
    masks = [v.mask_prob if v.mask_prob is not None else np.ones_like(v.depth.values) for v in scene.views]
    _write_dir(path, scene, masks, [v.confidence for v in scene.views], [{}] * scene.n_views)


def _write_dir(path, scene, masks: list, confidences: list, entries: list) -> None:
    """Write the tensors and the manifest of a scene directory: per view its
    mask tensor, its confidence tensor or None, and the manifest entries that
    go between its height and its pose."""
    if any(v.depth.values.size == 0 for v in scene.views):
        raise FormatError(f"{path}: a view on disk needs a positive width and height")
    numbers = [scene.scale.value, *(x for v in scene.views for x in _pose_list(v.pose))]
    numbers += [x for e in entries for x in e.get("intrinsics", ())]
    if not _numbers(numbers, len(numbers)):  # the reader would reject the manifest
        raise NumericOverflowError(f"{path}: the metric scale, poses and intrinsics must be within float32 range")
    tensors = []  # per view, the arrays of its tensor files by key
    for v, mask, conf in zip(scene.views, masks, confidences):
        arrays = dict(zip(_VIEW_TENSORS, (v.rays.directions, v.depth.values, v.depth.validity, mask)), confidence=conf)
        tensors.append({key: arr for key, arr in arrays.items() if arr is not None})
    top = np.finfo(np.float32).max
    if any(a.dtype.kind == "f" and (a.max() > top or a.min() < -top) for arrays in tensors for a in arrays.values()):
        # the float32 cast would give inf, which the reader rejects
        raise NumericOverflowError(f"{path}: the tensor values must be within float32 range")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    views = []
    for i, (v, arrays, extra) in enumerate(zip(scene.views, tensors, entries)):
        files = {key: f"view_{i:03d}_{key}.mapt" for key in arrays}
        for key, name in files.items():
            write_tensor(path / name, arrays[key])
        views.append(
            {"width": v.rays.width, "height": v.rays.height, **extra, "pose": _pose_list(v.pose), "files": files}
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
    if not isinstance(manifest.get("views"), list):
        raise FormatError(f"{path}: manifest 'views' must be a list")
    if len(manifest["views"]) != manifest.get("n_views"):
        raise FormatError(f"{path}: view count does not match manifest entries")
    if "metric_scale" not in manifest:
        raise FormatError(f"{path}: manifest lacks 'metric_scale'")
    if not _numbers([manifest["metric_scale"]], 1):
        raise FormatError(f"{path}: manifest 'metric_scale' must be a number within float32 range")
    for i, entry in enumerate(manifest["views"]):
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: view {i} must be a JSON object")
        for key in ("pose", "files", "width", "height"):
            if key not in entry:
                raise FormatError(f"{path}: view {i} lacks {key!r}")
        if not all(type(entry[k]) is int and entry[k] > 0 for k in ("width", "height")):
            raise FormatError(f"{path}: view {i} 'width' and 'height' must be positive integers")
        if not _numbers(entry["pose"], 7):
            raise FormatError(f"{path}: view {i} 'pose' must be 7 numbers within float32 range (qw qx qy qz tx ty tz)")
        if "intrinsics" in entry and not _numbers(entry["intrinsics"], 4):
            raise FormatError(f"{path}: view {i} 'intrinsics' must be 4 numbers within float32 range (fx fy cx cy)")
        files = entry["files"]
        if not isinstance(files, dict) or not all(isinstance(f, str) for f in files.values()):
            raise FormatError(f"{path}: view {i} 'files' must map tensor names to file names")
    return manifest


def _read_view_arrays(path: Path, i: int, entry: dict):
    files = entry["files"]
    for key in _VIEW_TENSORS:
        if key not in files or not (path / files[key]).is_file():
            raise FormatError(f"{path}: missing tensor file for {key!r}")
    hw = (entry["height"], entry["width"])
    arrays = {}
    for key in (*_VIEW_TENSORS, "confidence"):
        if key in files:
            arrays[key] = read_tensor(path / files[key])
            want = (*hw, 3) if key == "rays" else hw
            if arrays[key].shape != want:
                raise FormatError(f"{path}: view {i} {key!r} tensor is {arrays[key].shape}, manifest gives {want}")
    rays = RayMap(arrays["rays"].astype(np.float64))
    depth = DepthAlongRay(arrays["depth"].astype(np.float64), arrays["validity"] != 0)
    conf = arrays["confidence"].astype(np.float64) if "confidence" in arrays else None
    return rays, depth, arrays["mask"], conf


def read_scene(path) -> SceneSample:
    """Read a ground-truth scene directory into a SceneSample."""
    path = Path(path)
    manifest = _load_manifest(path)
    views = []
    for i, entry in enumerate(manifest["views"]):
        if "intrinsics" not in entry:
            raise FormatError(f"{path}: view {i} lacks intrinsics (not a ground-truth scene)")
        rays, depth, mask, _ = _read_view_arrays(path, i, entry)
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
    for i, entry in enumerate(manifest["views"]):
        rays, depth, mask, conf = _read_view_arrays(path, i, entry)
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
    """Binary little-endian PLY: float32 x/y/z plus uchar red/green/blue, written in row blocks after every check."""
    with np.errstate(over="ignore"):
        points = np.asarray(points, dtype="<f4").reshape(-1, 3)
    if not np.isfinite(points).all():
        raise NumericOverflowError("PLY points must be finite and within float32 range")
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
    blocks = _blocks(n)
    vertex = [("x", "<f4"), ("y", "<f4"), ("z", "<f4"), ("r", "u1"), ("g", "u1"), ("b", "u1")]
    rec = np.zeros(blocks[0].stop if blocks else 0, dtype=vertex)
    with open(path, "wb") as f:
        f.write(header)
        for s in blocks:
            r = rec[: s.stop - s.start]
            r["x"], r["y"], r["z"] = points[s, 0], points[s, 1], points[s, 2]
            r["r"], r["g"], r["b"] = colors[s, 0], colors[s, 1], colors[s, 2]
            r.tofile(f)
