"""Every file mapt reads or writes: the bit-exact MAPT tensor container, scene
manifests, covisibility and model-config JSON files, reports and binary PLY
export. All JSON goes through one reader and one writer.

Tensor container layout (little-endian): magic ``MAPT`` (4 bytes), version u8
(=1), dtype u8 (1 = float32, 2 = uint8), ndim u8, ndim x u32 dims, then the
row-major payload. Reads reproduce writes bit-exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidValueError, MaptError, NumericOverflowError, ShapeError
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
from .network import ModelConfig
from .synth import SceneSample, ViewSample
from .viewgraph import CovisGraph

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
# JSON documents


@contextlib.contextmanager
def _located(where: str):
    """Re-raise the block's MaptError as the same class, with ``where`` in front of its message."""
    try:
        yield
    except MaptError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _read_json(path):
    """The JSON value of the file at ``path``, a Path. It is not re-wrapped, so
    a Path subclass's own ``read_text`` reads it."""
    try:
        return json.loads(path.read_text())
    except ValueError as exc:  # UnicodeDecodeError included
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc


def _is_int(value, want: int) -> bool:
    """Whether a JSON value is the integer ``want``: ``true`` and ``1.0`` are not 1."""
    return type(value) is int and value == want


def _json_text(obj) -> str:
    """The text of every JSON document mapt writes. JSON has no NaN or
    Infinity (RFC 8259), so a value that is not finite is an error."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericOverflowError(f"a value to write is not finite ({exc})") from exc


def covis_document(graph: CovisGraph, rel_depth_tol: float) -> dict:
    """The covisibility file ``mapt covis`` writes and ``read_covis`` reads."""
    fraction = [[float(x) for x in row] for row in graph.fraction]
    return {"version": 1, "n_views": graph.n, "rel_depth_tol": float(rel_depth_tol), "fraction": fraction}


def read_covis(path) -> CovisGraph:
    """The covisibility graph of a covisibility file. Only 'fraction' is
    needed; 'version' and 'n_views' are checked when present."""
    data = _read_json(path)
    if not isinstance(data, dict) or "fraction" not in data:
        raise FormatError(f"{path}: covisibility file lacks 'fraction'")
    if not _is_int(data.get("version", 1), 1):
        raise FormatError(f"{path}: unsupported covisibility file version {data['version']!r}")
    try:
        fraction = np.array(data["fraction"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer beyond float64
        raise FormatError(f"{path}: 'fraction' is not a numeric matrix ({exc})") from exc
    with _located(str(path)):
        graph = CovisGraph(fraction)
    if not _is_int(data.get("n_views", graph.n), graph.n):
        raise FormatError(f"{path}: 'n_views' is {data['n_views']!r}, but 'fraction' is {graph.n}x{graph.n}")
    return graph


def read_model_config(path) -> ModelConfig:
    """ModelConfig from a JSON object whose keys override the defaults."""
    overrides = _read_json(path)
    fields = [f.name for f in dataclasses.fields(ModelConfig)]
    valid = f"valid fields: {', '.join(fields)}"
    if not isinstance(overrides, dict):
        raise InvalidValueError(f"{path}: model config must be a JSON object; {valid}")
    unknown = [k for k in overrides if k not in fields]
    if unknown:
        raise InvalidValueError(f"{path}: unknown model config field(s) {', '.join(map(repr, unknown))}; {valid}")
    with _located(str(path)):
        return ModelConfig(**overrides)


# ---------------------------------------------------------------------------
# scene manifests


def _pose_list(p: Pose) -> list[float]:
    return [float(x) for x in p.rotation] + [float(x) for x in p.translation]


def _pose_from_list(vals) -> Pose:
    return Pose(np.array(vals[:4], dtype=np.float64), np.array(vals[4:], dtype=np.float64))


def _identity(pose: Pose) -> bool:
    """Whether a pose is the identity, as view 0 of a ground-truth scene on disk must be."""
    return np.abs(np.concatenate([pose.rotation - [1.0, 0.0, 0.0, 0.0], pose.translation])).max() <= 1e-12


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
    """Write a ground-truth scene directory (manifest + tensors); view 0 must be at the identity."""
    if scene.views and not _identity(_pose_from_list(_pose_list(scene.views[0].pose))):  # the pose as read back
        raise FormatError(f"{Path(path)}: ground-truth view 0 pose must be identity")
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
    manifest = {"version": MANIFEST_VERSION, "n_views": scene.n_views, "metric_scale": float(scene.scale.value), "views": views}
    (path / MANIFEST_NAME).write_text(_json_text(manifest))


def _load_manifest(path: Path) -> dict:
    mf = path / MANIFEST_NAME
    if not mf.is_file():
        raise FormatError(f"{path}: missing {MANIFEST_NAME}")
    manifest = _read_json(mf)
    if not isinstance(manifest, dict):
        raise FormatError(f"{mf}: manifest must be a JSON object")
    if not _is_int(manifest.get("version"), MANIFEST_VERSION):
        raise FormatError(f"{path}: unsupported manifest version")
    if not isinstance(manifest.get("views"), list):
        raise FormatError(f"{path}: manifest 'views' must be a list")
    if not _is_int(manifest.get("n_views"), len(manifest["views"])):
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


def _read_views(path: Path, view) -> tuple[list, MetricScale]:
    """The views and the metric scale of a scene directory. Per view: the
    manifest entry's tensors, then its ray map, depth and pose, and then
    ``view(i, entry, rays, depth, pose, arrays)`` makes the view from them,
    with ``arrays`` the view's tensors by key. A constructor's fault names
    the directory and the view, and the file when it reads one tensor."""
    manifest = _load_manifest(path)
    views = []
    for i, entry in enumerate(manifest["views"]):
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
        with _located(f"{path}: view {i}: {files['rays']}"):
            rays = RayMap(arrays["rays"].astype(np.float64))
        with _located(f"{path}: view {i}"):
            depth = DepthAlongRay(arrays["depth"].astype(np.float64), arrays["validity"] != 0)
            pose = _pose_from_list(entry["pose"])
        views.append(view(i, entry, rays, depth, pose, arrays))
    with _located(str(path)):
        return views, MetricScale(manifest["metric_scale"])


def read_scene(path) -> SceneSample:
    """Read a ground-truth scene directory into a SceneSample."""
    path = Path(path)

    def view(i, entry, rays, depth, pose, arrays):
        if "intrinsics" not in entry:
            raise FormatError(f"{path}: view {i} lacks intrinsics (not a ground-truth scene)")
        if i == 0 and not _identity(pose):
            raise FormatError(f"{path}: ground-truth view 0 pose must be identity")
        with _located(f"{path}: view {i}"):
            return ViewSample(Intrinsics(*entry["intrinsics"]), rays, depth, arrays["mask"] != 0, pose)

    return SceneSample(*_read_views(path, view))


def read_factored(path) -> FactoredScene:
    """Read any scene directory as a factored scene (prediction-shaped). A u8
    mask gives probabilities 0 and 1; a float mask is taken as it is, so the
    FactoredView constructor rejects values outside [0, 1]."""
    path = Path(path)

    def view(i, entry, rays, depth, pose, arrays):
        mask = arrays["mask"]
        with _located(f"{path}: view {i}"):
            return FactoredView(rays, depth, pose, arrays.get("confidence"), mask != 0 if mask.dtype == np.uint8 else mask)

    return FactoredScene(*_read_views(path, view))


# ---------------------------------------------------------------------------
# PLY export


def write_ply(path, points: np.ndarray, colors: np.ndarray) -> None:
    """Binary little-endian PLY: float32 x/y/z plus uchar red/green/blue, written
    in row blocks after every check. The points are cast to float32 one block
    at a time, for the finite check and again into the block's records, so no
    whole float32 copy of them exists."""
    points = np.asarray(points).reshape(-1, 3)
    blocks = _blocks(points.shape[0])
    with np.errstate(over="ignore"):  # a value beyond float32 casts to inf
        if not all(np.isfinite(points[s].astype("<f4")).all() for s in blocks):
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
    vertex = [("x", "<f4"), ("y", "<f4"), ("z", "<f4"), ("r", "u1"), ("g", "u1"), ("b", "u1")]
    rec = np.zeros(blocks[0].stop if blocks else 0, dtype=vertex)
    with open(path, "wb") as f:
        f.write(header)
        for s in blocks:
            r = rec[: s.stop - s.start]
            r["x"], r["y"], r["z"] = points[s, 0], points[s, 1], points[s, 2]
            r["r"], r["g"], r["b"] = colors[s, 0], colors[s, 1], colors[s, 2]
            r.tofile(f)
