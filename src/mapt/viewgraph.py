"""Covisibility graphs, random-walk view sampling and the probabilistic
geometric-input configuration sampler used for training-style conditioning."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientComponentError, InvalidValueError, ShapeError
from .geometry import DepthAlongRay, _check, _rng, quat_to_rot
from .synth import SceneSample

# Training-time conditioning probabilities.
GEOMETRIC_INPUT_PROB = 0.9
FACTOR_INPUT_PROB = 0.5
DENSE_VS_SPARSE_PROB = 0.5
PER_VIEW_INPUT_PROB = 0.95
METRIC_WITHHOLD_PROB = 0.05
SPARSE_KEEP_FRACTION = 0.1

DEFAULT_COVIS_THRESHOLD = 0.25
DEFAULT_REL_DEPTH_TOL = 0.05
_COVIS_BLOCK = 1 << 16  # (target, pixel) pairs per covisibility row block: 7 float64 buffers of this size per thread


@dataclass
class CovisGraph:
    """Directed covisibility fractions: entry (i, j) is the fraction of view i's
    valid pixels that reproject consistently into view j. Diagonal is 1."""

    fraction: np.ndarray  # (n, n) float64 in [0, 1]

    def __post_init__(self):
        f = np.asarray(self.fraction, dtype=np.float64)
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise ShapeError("covisibility matrix must be square")
        if not np.all((f >= 0.0) & (f <= 1.0)):
            raise InvalidValueError("covisibility fractions must lie in [0, 1]")
        if not np.all(np.diag(f) == 1.0):
            raise InvalidValueError("covisibility diagonal must be exactly 1")
        self.fraction = f

    @property
    def n(self) -> int:
        return self.fraction.shape[0]


@dataclass
class InputConfig:
    """Which factored quantities are fed to the network, per view plus globals.

    The sample-level draw record (geometric_enabled, *_selected,
    depth_sparse_mode, metric_withheld) is kept so the sampler's marginal
    probabilities are directly measurable.
    """

    rays_given: list[bool]
    pose_given: list[bool]
    depth_given: list[bool]
    depth_sparse: list[bool]
    metric_pose_scale_given: bool = False
    metric_depth_scale_given: bool = False
    geometric_enabled: bool = False
    rays_selected: bool = False
    pose_selected: bool = False
    depth_selected: bool = False
    depth_sparse_mode: bool = False
    metric_withheld: bool = False

    def __post_init__(self):
        n = len(self.rays_given)
        if not (len(self.pose_given) == len(self.depth_given) == len(self.depth_sparse) == n):
            raise ShapeError("per-view flag lists must have equal length")
        for s, g in zip(self.depth_sparse, self.depth_given):
            if s and not g:
                raise InvalidValueError("depth_sparse requires depth_given")

    @property
    def n_views(self) -> int:
        return len(self.rays_given)

    @classmethod
    def images_only(cls, n_views: int) -> "InputConfig":
        return cls.from_modalities(n_views)

    @classmethod
    def from_modalities(
        cls,
        n_views: int,
        rays: bool = False,
        pose: bool = False,
        depth: bool = False,
        depth_sparse: bool = False,
    ) -> "InputConfig":
        """All-view configuration from modality switches (the CLI path)."""
        depth = depth or depth_sparse
        return cls(
            rays_given=[rays] * n_views,
            pose_given=[pose] * n_views,
            depth_given=[depth] * n_views,
            depth_sparse=[depth_sparse] * n_views,
            metric_pose_scale_given=pose,
            metric_depth_scale_given=depth,
            geometric_enabled=rays or pose or depth,
            rays_selected=rays,
            pose_selected=pose,
            depth_selected=depth,
            depth_sparse_mode=depth_sparse,
        )


# ---------------------------------------------------------------------------
# covisibility


def covisibility(scene: SceneSample, rel_depth_tol: float = DEFAULT_REL_DEPTH_TOL, jobs: int | None = None) -> CovisGraph:
    """Pairwise covisibility via lift-and-reproject with a relative depth check.

    A valid pixel of view i is covisible in view j when its world point lands
    in front of j, projects inside j's image, the nearest pixel is valid, and
    the reprojected ray depth matches the sampled one within rel_depth_tol.
    Rows (source views) run on ``jobs`` threads (None: the executor default).
    """
    if jobs is not None and jobs < 1:
        raise InvalidValueError("jobs must be >= 1")
    if not 0.0 <= rel_depth_tol < np.inf:
        raise InvalidValueError(f"rel_depth_tol must be finite and >= 0, got {rel_depth_tol}")
    views = scene.views
    if any(v.intrinsics is None for v in views):
        raise InvalidValueError("covisibility requires ground-truth intrinsics")
    _check("covisibility", [v.depth.validity.shape for v in views], [v.rays.directions for v in views])
    rots = quat_to_rot(np.array([v.pose.rotation for v in views]))
    trans = np.array([v.pose.translation for v in views])
    k = np.array([[v.intrinsics.fx, v.intrinsics.fy, v.intrinsics.cx, v.intrinsics.cy] for v in views])
    # group target views by resolution so one source row is evaluated against
    # a whole stack of targets in a few vectorized passes; cols[r][k] is the
    # (targets, 1) column of rotation entries (k, r), and the depth maps are
    # raveled so one linear index gathers from a stack
    groups = {}
    for j, v in enumerate(views):
        groups.setdefault(v.depth.validity.shape, []).append(j)
    stacks = [
        (
            idxs,
            rots[idxs].transpose(2, 1, 0)[..., None],
            trans[idxs].T[..., None],
            k[idxs].T[..., None],
            views[idxs[0]].depth.validity.shape,
            np.stack([views[j].depth.validity for j in idxs]).ravel(),
            np.stack([views[j].depth.values for j in idxs]).ravel(),
        )
        for idxs in map(np.array, groups.values())
    ]

    def covis_row(i: int) -> np.ndarray:
        """Covisible fractions of view i's valid pixels into every view.

        Each stack is evaluated whole, view i included, and entry i is set to
        1 at the end. The row gathers view i's valid pixels and runs them in
        blocks of about _COVIS_BLOCK (target, pixel) pairs through reused
        buffers; integer counts add up across blocks. Arithmetic is written out
        component-wise (broadcast over a stack of target views) so a naive
        per-pixel reference computes bit-identical values, whatever the block size.
        """
        idx = np.flatnonzero(views[i].depth.validity)
        d, dep = views[i].rays.directions.reshape(-1, 3).take(idx, axis=0), views[i].depth.values.take(idx)
        ri, ti = rots[i], trans[i]
        lx = d[:, 0] * dep
        ly = d[:, 1] * dep
        lz = d[:, 2] * dep
        wx = ri[0, 0] * lx + ri[0, 1] * ly + ri[0, 2] * lz + ti[0]
        wy = ri[1, 0] * lx + ri[1, 1] * ly + ri[1, 2] * lz + ti[1]
        wz = ri[2, 0] * lx + ri[2, 1] * ly + ri[2, 2] * lz + ti[2]
        row = np.zeros(len(views))
        for idxs, cols, t, (fx, fy, px0, py0), (h, w), validity, values in stacks:
            block = max(1, _COVIS_BLOCK // idxs.size)
            buf = np.empty((7, idxs.size * min(block, dep.size)))
            masks = np.empty((2, buf.shape[1]), dtype=bool)
            counts = np.zeros(idxs.size, dtype=np.int64)
            for a in range(0, dep.size, block):
                m = min(block, dep.size - a)
                ax, ay, az, cx, cy, cz, tmp = buf[:, : idxs.size * m].reshape(7, idxs.size, m)
                front, inb = masks[:, : idxs.size * m].reshape(2, idxs.size, m)
                np.subtract(wx[a : a + m], t[0], out=ax)
                np.subtract(wy[a : a + m], t[1], out=ay)
                np.subtract(wz[a : a + m], t[2], out=az)
                for c, (r0, r1, r2) in zip((cx, cy, cz), cols):
                    np.multiply(r0, ax, out=c)
                    c += np.multiply(r1, ay, out=tmp)
                    c += np.multiply(r2, az, out=tmp)
                # u and v reuse the buffers of ax and ay; pairs behind the
                # target divide by cz <= 0, and inb masks their u, v out
                u, v = ax, ay
                np.greater(cz, 0.0, out=front)
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    np.divide(cx, cz, out=u)
                    u *= fx
                    u += px0
                    np.divide(cy, cz, out=v)
                    v *= fy
                    v += py0
                np.greater_equal(u, 0.0, out=inb)
                inb &= front
                inb &= np.less(u, w, out=front)
                inb &= np.greater_equal(v, 0.0, out=front)
                inb &= np.less(v, h, out=front)
                idx = np.flatnonzero(inb)
                rows = idx // m
                # in-bounds u and v are >= 0, where truncation is floor
                px = u.take(idx).astype(np.int64)
                py = v.take(idx).astype(np.int64)
                lin = (rows * h + py) * w + px
                ok = np.flatnonzero(validity.take(lin))
                idx, rows, dj = idx.take(ok), rows.take(ok), values.take(lin.take(ok))
                cxs, cys, czs = cx.take(idx), cy.take(idx), cz.take(idx)
                rd = np.sqrt(cxs * cxs + cys * cys + czs * czs)
                cov = np.abs(rd - dj) / dj <= rel_depth_tol
                counts += np.bincount(rows[cov], minlength=idxs.size)
            # a view without valid pixels has all counts 0 and a row of 0s
            row[idxs] = counts / max(dep.size, 1)
        row[i] = 1.0
        return row

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return CovisGraph(np.array(list(pool.map(covis_row, range(len(views))))))


def build_adjacency(g: CovisGraph, threshold: float = DEFAULT_COVIS_THRESHOLD) -> np.ndarray:
    """Undirected adjacency: edge when either directed fraction reaches the threshold."""
    if not np.isfinite(threshold):
        raise InvalidValueError(f"threshold must be finite, got {threshold}")
    sym = np.maximum(g.fraction, g.fraction.T)
    adj = sym >= threshold
    np.fill_diagonal(adj, False)
    return adj


# ---------------------------------------------------------------------------
# sampling


def _components(adj: np.ndarray) -> list[list[int]]:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in np.flatnonzero(adj[u]):
                if not seen[w]:
                    seen[w] = True
                    stack.append(int(w))
        comps.append(sorted(comp))
    return comps


def random_walk_sample(adj: np.ndarray, n_views: int, rng_seed: int) -> list[int]:
    """Random walk over an undirected adjacency collecting n_views distinct nodes.

    The adjacency must be square and symmetric. Start node is uniform over
    nodes whose component is large enough; each step moves to a uniform
    neighbor of the current node (added if new). The induced subgraph of the
    result is connected by construction. Deterministic per seed.
    """
    adj = np.asarray(adj, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ShapeError(f"adjacency must be a square matrix, got shape {adj.shape}")
    if not np.array_equal(adj, adj.T):
        raise InvalidValueError("adjacency must be symmetric (undirected)")
    n = adj.shape[0]
    if n_views < 1:
        raise InvalidValueError("n_views must be >= 1")
    comps = _components(adj)
    eligible = [u for comp in comps if len(comp) >= n_views for u in comp]
    if not eligible:
        raise InsufficientComponentError(
            f"no connected component of size >= {n_views} at this threshold"
        )
    rng = _rng(rng_seed)
    nbrs = [np.flatnonzero(adj[u]) for u in range(n)]
    start = int(eligible[rng.integers(len(eligible))])
    visited = [start]
    vset = {start}
    current = start
    budget = 1000 + 50 * n * max(n_views, 2)
    while len(visited) < n_views and budget > 0:
        budget -= 1
        cand = nbrs[current]  # never empty: a step runs only in a component of >= 2 nodes
        nxt = int(cand[rng.integers(cand.size)])
        if nxt not in vset:
            visited.append(nxt)
            vset.add(nxt)
        current = nxt
    # the walk almost surely finishes well inside the budget; complete
    # deterministically from the frontier if it ever does not
    while len(visited) < n_views:
        ext = sorted({int(w) for u in visited for w in nbrs[u] if int(w) not in vset})
        visited.append(ext[0])
        vset.add(ext[0])
    return visited


def sample_input_config(n_views: int, metric_gt_available: bool, rng_seed: int) -> InputConfig:
    """Draw one training-style input configuration.

    Draw order (fixed): geometric master (p=0.9); per-factor selection for
    rays/depth/pose (p=0.5 each); dense-vs-sparse mode when depth is selected
    (p=0.5); per-view application per selected factor (p=0.95); metric-scale
    withholding when metric ground truth exists (p=0.05).
    """
    if n_views < 1:
        raise InvalidValueError("n_views must be >= 1")
    rng = _rng(rng_seed)
    geometric = bool(rng.random() < GEOMETRIC_INPUT_PROB)
    rays_sel = depth_sel = pose_sel = False
    sparse_mode = False
    off = [False] * n_views
    rays_given, depth_given, pose_given = list(off), list(off), list(off)
    if geometric:
        rays_sel = bool(rng.random() < FACTOR_INPUT_PROB)
        depth_sel = bool(rng.random() < FACTOR_INPUT_PROB)
        pose_sel = bool(rng.random() < FACTOR_INPUT_PROB)
        if depth_sel:
            sparse_mode = bool(rng.random() < DENSE_VS_SPARSE_PROB)
        if rays_sel:
            rays_given = [bool(u) for u in rng.random(n_views) < PER_VIEW_INPUT_PROB]
        if depth_sel:
            depth_given = [bool(u) for u in rng.random(n_views) < PER_VIEW_INPUT_PROB]
        if pose_sel:
            pose_given = [bool(u) for u in rng.random(n_views) < PER_VIEW_INPUT_PROB]
    withheld = False
    if metric_gt_available:
        withheld = bool(rng.random() < METRIC_WITHHOLD_PROB)
    give_metric = metric_gt_available and not withheld
    return InputConfig(
        rays_given=rays_given,
        pose_given=pose_given,
        depth_given=depth_given,
        depth_sparse=[sparse_mode and g for g in depth_given],
        metric_pose_scale_given=give_metric and pose_sel,
        metric_depth_scale_given=give_metric and depth_sel,
        geometric_enabled=geometric,
        rays_selected=rays_sel,
        pose_selected=pose_sel,
        depth_selected=depth_sel,
        depth_sparse_mode=sparse_mode,
        metric_withheld=withheld,
    )


def sparsify_depth(d: DepthAlongRay, rng_seed: int = 0) -> DepthAlongRay:
    """Keep floor(SPARSE_KEEP_FRACTION * valid) uniformly random valid pixels,
    invalidate the rest. Retained values are bit-equal to the originals."""
    rng = _rng(rng_seed)
    idx = np.flatnonzero(d.validity.ravel())
    k = int(np.floor(SPARSE_KEEP_FRACTION * idx.size))
    chosen = rng.choice(idx, size=k, replace=False) if idx.size else idx
    validity = np.zeros_like(d.validity).ravel()
    validity[chosen] = True
    validity = validity.reshape(d.validity.shape)
    return DepthAlongRay(d.values, validity)
