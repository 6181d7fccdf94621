"""Covisibility graphs, random-walk view sampling and the probabilistic
geometric-input configuration sampler used for training-style conditioning."""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDepthError, InsufficientComponentError, InvalidValueError, ShapeError
from .geometry import DepthAlongRay, _blocks, _check_counts, _pool, _rng, _task_map, quat_to_rot
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
_COVIS_BLOCK = 1 << 16  # (target, pixel) pairs per covisibility block: 7 float64 and 2 int64 buffers of this size per thread
_COVIS_RUN = 1 << 13  # source pixels a covisibility task pools at least, where the views allow: numpy's ufunc buffer size


@dataclass
class CovisGraph:
    """Directed covisibility fractions: entry (i, j) is the fraction of view i's
    valid pixels that reproject consistently into view j. Diagonal is 1."""

    fraction: np.ndarray  # (n, n) float64 in [0, 1]

    def __post_init__(self):
        try:
            f = np.asarray(self.fraction, dtype=np.float64)
        except (TypeError, ValueError) as e:
            raise InvalidValueError(f"covisibility fractions must be real numbers, got {type(self.fraction).__name__}: {e}") from None
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
        _check_counts("view counts", n_views)
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


def _check_real(what: str, x) -> None:
    """Raise InvalidValueError unless x is a numbers.Real (numpy floats pass)."""
    if not isinstance(x, numbers.Real):
        raise InvalidValueError(f"{what} must be a real number, got {type(x).__name__}")


def covisibility(scene: SceneSample, rel_depth_tol: float = DEFAULT_REL_DEPTH_TOL, jobs: int | None = None) -> CovisGraph:
    """Pairwise covisibility via lift-and-reproject with a relative depth check.

    A valid pixel of view i is covisible in view j when its world point lands
    in front of j, projects inside j's image, the nearest pixel is valid, and
    the reprojected ray depth matches the sampled one within rel_depth_tol.
    Runs of consecutive source views go to ``jobs`` threads (None: one per usable
    CPU), but to no more than one per _COVIS_BLOCK (target, pixel) pairs; one
    thread is the caller's.
    """
    if not isinstance(scene, SceneSample):
        raise InvalidValueError(f"covisibility needs a SceneSample, got {type(scene).__name__}")
    if jobs is not None and (isinstance(jobs, bool) or not isinstance(jobs, numbers.Integral)):
        raise InvalidValueError(f"jobs must be None or an integer, got {type(jobs).__name__}")
    if jobs is not None and jobs < 1:
        raise InvalidValueError("jobs must be >= 1")
    _check_real("rel_depth_tol", rel_depth_tol)
    if not 0.0 <= rel_depth_tol < np.inf:
        raise InvalidValueError(f"rel_depth_tol must be finite and >= 0, got {rel_depth_tol}")
    views = scene.views
    if not views:
        raise EmptyDepthError("covisibility: no views")
    rots = quat_to_rot(np.array([v.pose.rotation for v in views]))
    trans = np.array([v.pose.translation for v in views])
    k = np.array([[v.intrinsics.fx, v.intrinsics.fy, v.intrinsics.cx, v.intrinsics.cy] for v in views])
    # group target views by resolution so that a block of source pixels is
    # evaluated against a slice of a whole stack of targets in a few vectorized
    # passes; cols[r][k] is the (targets, 1) column of rotation entries (k, r),
    # the depth maps are raveled so one linear index gathers from a stack, and
    # base is each target's first index in it
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
            np.stack([views[j].depth.values for j in idxs]).ravel(),
            (np.arange(idxs.size) * views[idxs[0]].depth.values.size)[:, None],
        )
        for idxs in map(np.array, groups.values())
    ]
    # each task is a run of consecutive source views with at least _COVIS_RUN
    # valid pixels between them, or the views that are left
    sizes = np.array([np.count_nonzero(v.depth.validity) for v in views])
    runs, pooled = [[]], 0
    for i, n in enumerate(sizes):
        if pooled >= _COVIS_RUN:
            runs.append([])
            pooled = 0
        runs[-1].append(i)
        pooled += n

    def covis_run(run: list[int]) -> np.ndarray:
        """Rows ``run`` of the covisibility matrix: the covisible fractions of
        each of those views' valid pixels into every view.

        The run's valid pixels are pooled into one array. Each stack is
        evaluated whole, the run's own views included, whose entries are set to
        1 at the end. Every block is a slice of a stack's targets times a slice
        of at most _COVIS_BLOCK of the pooled pixels (or of the stack's target
        count, if that is larger), so that the passes that broadcast a
        (targets, 1) column run along rows as long as the run: numpy buffers
        such a pass when its rows are shorter than its ufunc buffer, at about
        3x the cost. A block tests every one of its pairs in reused buffers of
        at most that many pairs, and a (source, target) count adds up its
        source's segments of the blocks. Out-of-bounds pairs
        gather some pixel of the stack and are masked out, and an invalid target
        pixel stores depth 0, whose relative error is inf or nan and never
        passes; pairs whose arithmetic overflows fail a test the same way.
        Arithmetic is written out component-wise (broadcast over the targets)
        so a naive per-pixel reference computes bit-identical values, whatever
        the block size or the run length.
        """
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            src = [views[i] for i in run]
            offsets, d, dep = _pool(
                "covisibility", [v.depth.validity for v in src], [v.rays.directions for v in src], [v.depth.values for v in src]
            )
            # each view's world points r0 * lx + r1 * ly + r2 * lz + t, added up
            # in that order, from its local points l = d * dep; from here on
            # the blocks need only the world points
            wx, wy, wz = world = np.empty((3, dep.size))
            for i, a, b in zip(run, offsets, offsets[1:]):
                lx, ly, lz = np.multiply(d[a:b].T, dep[a:b], order="C")
                for c, (r0, r1, r2), tc in zip(world[:, a:b], rots[i], trans[i]):
                    np.multiply(r0, lx, out=c)
                    c += r1 * ly
                    c += r2 * lz
                    c += tc
            del d, dep, lx, ly, lz
            # the run's views with valid pixels, and where each one's pixels start
            full = np.flatnonzero(np.diff(offsets))
            firsts = offsets[full]
            rows = np.zeros((len(run), len(views)))
            for idxs, cols, t, kcols, (h, w), values, base in stacks:
                # a block holds as many pairs as one pixel against every target
                # of the stack at least: smaller blocks only add passes
                budget = max(_COVIS_BLOCK, idxs.size)
                m = min(offsets[-1], budget)
                # for each pixel block, the slice of the run's views with pixels
                # in it and where each one's pixels start in it; reduceat sums a
                # block's pixels from each start up to the next, and would give
                # an element, not 0, for an empty segment
                pixel_blocks = []
                for ps in _blocks(offsets[-1], 1, m):
                    lo, hi = np.searchsorted(firsts, ps.start, "right") - 1, np.searchsorted(firsts, ps.stop)
                    pixel_blocks.append((ps, slice(lo, hi), np.maximum(firsts[lo:hi], ps.start) - ps.start))
                counts = np.zeros((idxs.size, full.size), dtype=np.int64)
                target_blocks = _blocks(idxs.size, m, budget)
                size = target_blocks[0].stop * m
                buf, lbuf, masks = np.empty((7, size)), np.empty((2, size), dtype=np.int64), np.empty((2, size), dtype=bool)
                for ts, (ps, vs, starts) in itertools.product(target_blocks, pixel_blocks):
                    nt, npx = ts.stop - ts.start, ps.stop - ps.start
                    ax, ay, az, cx, cy, cz, tmp = buf[:, : nt * npx].reshape(7, nt, npx)
                    px, lin = lbuf[:, : nt * npx].reshape(2, nt, npx)
                    front, inb = masks[:, : nt * npx].reshape(2, nt, npx)
                    (tx, ty, tz), (fx, fy, px0, py0) = t[:, ts], kcols[:, ts]
                    np.subtract(wx[ps], tx, out=ax)
                    np.subtract(wy[ps], ty, out=ay)
                    np.subtract(wz[ps], tz, out=az)
                    for c, (r0, r1, r2) in zip((cx, cy, cz), cols[:, :, ts]):
                        np.multiply(r0, ax, out=c)
                        c += np.multiply(r1, ay, out=tmp)
                        c += np.multiply(r2, az, out=tmp)
                    # u and v reuse the buffers of ax and ay; pairs behind the
                    # target divide by cz <= 0, and inb masks their u, v out
                    u, v = ax, ay
                    np.greater(cz, 0.0, out=front)
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
                    # in-bounds u, v truncate to their pixel (truncation is floor); the
                    # casts of other pairs' u, v (nan, inf or far off the image) give
                    # any index, which mode "clip" keeps in the stack and inb masks out
                    np.copyto(px, u, casting="unsafe")
                    np.copyto(lin, v, casting="unsafe")
                    lin *= w
                    lin += px
                    lin += base[ts]
                    dj = values.take(lin, out=az, mode="clip")
                    # the ray depth sqrt(cx^2 + cy^2 + cz^2), then its relative error, in cx
                    cx *= cx
                    cx += np.multiply(cy, cy, out=tmp)
                    cx += np.multiply(cz, cz, out=tmp)
                    np.sqrt(cx, out=cx)
                    cx -= dj
                    np.abs(cx, out=cx)
                    cx /= dj
                    np.less_equal(cx, rel_depth_tol, out=front)
                    front &= inb
                    # reduceat first casts the whole mask to the sum's type: int32
                    # holds any count of one block, at half the cost of int64
                    counts[ts, vs] += np.add.reduceat(front, starts, axis=1, dtype=np.int32)
                rows[np.ix_(full, idxs)] = counts.T / np.diff(offsets)[full, None]
            # a view without valid pixels keeps a row of 0s
            rows[np.arange(len(run)), run] = 1.0
            return rows

    pairs = (len(views) - 1) * int(sizes.sum())
    with _task_map(jobs, max(1, pairs // _COVIS_BLOCK)) as run_tasks:
        return CovisGraph(np.concatenate(run_tasks(covis_run, runs)))


def build_adjacency(g: CovisGraph, threshold: float = DEFAULT_COVIS_THRESHOLD) -> np.ndarray:
    """Undirected adjacency: edge when either directed fraction reaches the threshold."""
    if not isinstance(g, CovisGraph):
        raise InvalidValueError(f"build_adjacency needs a CovisGraph, got {type(g).__name__}")
    _check_real("threshold", threshold)
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
    _check_counts("view counts", n_views)
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
    _check_counts("view counts", n_views)
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
    if not isinstance(d, DepthAlongRay):
        raise InvalidValueError(f"sparsify_depth needs a DepthAlongRay, got {type(d).__name__}")
    rng = _rng(rng_seed)
    idx = np.flatnonzero(d.validity.ravel())
    k = int(np.floor(SPARSE_KEEP_FRACTION * idx.size))
    chosen = rng.choice(idx, size=k, replace=False) if idx.size else idx
    validity = np.zeros_like(d.validity).ravel()
    validity[chosen] = True
    validity = validity.reshape(d.validity.shape)
    return DepthAlongRay(d.values, validity)
