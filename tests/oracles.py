"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (per-pixel Python loops, direct
formulas, struct-based parsing) and kept separate from the library code paths
it checks.
"""

from __future__ import annotations

import struct

import numpy as np

from mapt.errors import DegenerateError, ShapeError
from mapt.geometry import quat_mul, quat_to_rot, relative_pose
from mapt.metrics import BASELINE_EPS


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


def parse_ply(path) -> tuple[np.ndarray, np.ndarray]:
    """Struct-based binary PLY reader (x y z float32, r g b uint8)."""
    data = open(path, "rb").read()
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
