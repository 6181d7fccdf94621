"""Forward-only toy-scale reference of the reconstruction network.

Structure: per-view input encoders (linear patchify stub for images, pixel
unshuffle + linear for dense geometry, 4-layer GeLU MLPs for global
quantities), layernorm-sum-layernorm fusion, a reference-view embedding on
view 0, one learnable scale token, an alternating-attention transformer
(frame-wise and global self-attention, no positional encoding across views),
and three heads producing the factored output with all parameterization
constraints enforced by construction.

Pure numpy, float64, fully deterministic per (weights, inputs): each stage
holds numpy's OpenBLAS at one thread and runs as a list of tasks fixed by the
shapes (groups of views or sequences, blocks of query rows, cut by
geometry._blocks and run by geometry._task_map), so the bits do not depend on
the BLAS thread count or on how many workers run the tasks.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import math
import numbers
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidValueError, NumericOverflowError, ShapeError
from .factorization import encode_log_scale, factor_depth, factor_pose_scale
from .geometry import DepthAlongRay, FactoredScene, FactoredView, MetricScale, Pose, RayMap, _blocks, _norm3, _rng, _task_map
from .viewgraph import InputConfig

EXP_CLIP = 30.0
_QUERY_ROWS = 128  # an attention sequence longer than _INLINE_TOKENS runs in tasks of this many query rows
_INLINE_TOKENS = 2 * _QUERY_ROWS  # tokens a task takes whole: sequences (views) this short are grouped up to it
_MAX_WORKERS = _INLINE_TOKENS // _QUERY_ROWS  # so the workers' scores together cover at most _INLINE_TOKENS query rows
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real}  # bool is an int too; __post_init__ rejects bools


def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    when this numpy build does not export them (dlsym also searches the
    extension's dependencies)."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


_BLAS = _openblas_threads()


_BLAS_LOCK = threading.Lock()
_blas_users = _blas_saved = 0  # the stages inside _stage, and the thread count the first of them saved


@contextlib.contextmanager
def _stage():
    """The scope of one network stage: it holds OpenBLAS at one thread and
    yields the stage's task runner (geometry._task_map) on at most
    _MAX_WORKERS threads. The count is process-global: the first stage to
    enter saves it and the last to leave restores it, so stages running on
    several threads at once nest safely. Without the OpenBLAS symbols nothing
    is held and the tasks run inline, since BLAS may then run its own threads."""
    global _blas_users, _blas_saved
    blas = _BLAS
    if blas is not None:
        with _BLAS_LOCK:
            if _blas_users == 0:
                _blas_saved = blas[0]()
                blas[1](1)
            _blas_users += 1
    try:
        with _task_map(None, 1 if blas is None else _MAX_WORKERS) as run:
            yield run
    finally:
        if blas is not None:
            with _BLAS_LOCK:
                _blas_users -= 1
                if _blas_users == 0:
                    blas[1](_blas_saved)


@dataclass
class ModelConfig:
    depth: int = 4
    dim: int = 64
    heads: int = 4
    mlp_ratio: float = 4.0
    patch: int = 14

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, (bool, np.bool_)) or not isinstance(v, _FIELD_TYPES[f.type]):
                raise InvalidValueError(f"model config {f.name} must be of type {f.type}, got {v!r}")
        if self.heads < 1:
            raise InvalidValueError("heads must be >= 1")
        if self.dim < 1:
            raise InvalidValueError("dim must be >= 1")
        try:
            hidden = int(self.dim * self.mlp_ratio)
        except (OverflowError, ValueError):  # an infinite or NaN product
            hidden = 0
        if hidden < 1:
            raise InvalidValueError(f"mlp_ratio must be finite with int(dim * mlp_ratio) >= 1, got {self.mlp_ratio!r}")
        if self.dim % self.heads != 0:
            raise InvalidValueError("dim must be divisible by heads")
        if self.depth < 2 or self.depth % 2 != 0:
            raise InvalidValueError("depth must be even (frame/global alternation pairs)")
        if self.patch < 1:
            raise InvalidValueError("patch size must be >= 1")


@dataclass
class TokenSet:
    """Per-view patch tokens plus the single scale token."""

    tokens: np.ndarray  # (n_views, n_patches, dim)
    scale_token: np.ndarray  # (dim,)
    patch_grid: tuple[int, int]  # (patches_y, patches_x)

    def __post_init__(self):
        if not (np.all(np.isfinite(self.tokens)) and np.all(np.isfinite(self.scale_token))):
            raise NumericOverflowError("non-finite token values")
        ph, pw = self.patch_grid
        if self.tokens.ndim != 3 or self.tokens.shape[1] != ph * pw:
            raise ShapeError("token array must be (n_views, patches_y*patches_x, dim)")


@dataclass
class ModelOutput:
    """Factored predictions with the output parameterizations already applied.

    From ``decode_heads``, every dense output is a slice of a stack the stage
    fills: the rays of one (v, h, w, 3) stack, the depths, confidences and
    masks of one (3, v, h, w) stack and the depth validities of one (v, h, w)
    stack. The views share those buffers, so holding any one view's output
    keeps its whole stack alive.
    """

    rays: list[RayMap]
    depths: list[DepthAlongRay]
    confidences: list[np.ndarray]
    mask_probs: list[np.ndarray]
    poses: list[Pose]
    scale: MetricScale

    def as_factored_scene(self) -> FactoredScene:
        views = [
            FactoredView(rays=r, depth=d, pose=p, confidence=c, mask_prob=m)
            for r, d, c, m, p in zip(self.rays, self.depths, self.confidences, self.mask_probs, self.poses)
        ]
        return FactoredScene(views=views, scale=self.scale)


# ---------------------------------------------------------------------------
# weights


def _param_specs(cfg: ModelConfig) -> list[tuple[str, tuple, int | None]]:
    """(name, shape, fan_in) for every parameter, in a fixed order.

    fan_in None marks layer-norm parameters (gain 1 / bias 0, not drawn).
    """
    dim = cfg.dim
    p2 = cfg.patch * cfg.patch
    hidden = int(dim * cfg.mlp_ratio)
    specs: list[tuple[str, tuple, int | None]] = []

    def lin(name, fin, fout):
        specs.append((f"{name}.w", (fin, fout), fin))
        specs.append((f"{name}.b", (fout,), fin))

    def ln(name):
        specs.append((f"{name}.g", (dim,), None))
        specs.append((f"{name}.b", (dim,), None))

    lin("patch_image", p2 * 3, dim)
    lin("patch_rays", p2 * 3, dim)
    lin("patch_depth", p2, dim)
    for name, fin in (("mlp_quat", 4), ("mlp_trans", 3), ("mlp_zd", 1), ("mlp_zp", 1)):
        sizes = [fin, dim, dim, dim, dim]
        for i in range(4):
            lin(f"{name}.{i}", sizes[i], sizes[i + 1])
    for name in ("ln_image", "ln_rays", "ln_depth", "ln_quat", "ln_trans", "ln_zd", "ln_zp", "ln_fuse"):
        ln(name)
    specs.append(("ref_embed", (dim,), dim))
    specs.append(("scale_token", (dim,), dim))
    for i in range(cfg.depth):
        ln(f"blocks.{i}.ln1")
        lin(f"blocks.{i}.attn.qkv", dim, 3 * dim)
        lin(f"blocks.{i}.attn.out", dim, dim)
        ln(f"blocks.{i}.ln2")
        lin(f"blocks.{i}.mlp.0", dim, hidden)
        lin(f"blocks.{i}.mlp.1", hidden, dim)
    ln("ln_out")
    lin("head_dense", dim, p2 * 6)
    lin("head_pose.0", dim, dim)
    lin("head_pose.1", dim, dim)
    lin("head_pose.2", dim, 7)
    lin("head_scale.0", dim, dim)
    lin("head_scale.1", dim, 1)
    return specs


@dataclass
class Weights:
    config: ModelConfig
    params: dict[str, np.ndarray] = field(repr=False, default_factory=dict)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.params[name]


def init_weights(config: ModelConfig, seed: int) -> Weights:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init, rounded to
    float32 values (every forward report depends on these exact values).
    Each shape is checked just before its weight is drawn, so a config whose
    first oversized weight numpy can describe but not allocate is a MemoryError."""
    rng = _rng(seed)
    params = {}
    for name, shape, fan_in in _param_specs(config):
        if np.prod(shape, dtype=object) > np.iinfo(np.intp).max // 8:  # more bytes than numpy can address
            raise InvalidValueError(f"model config gives {name} the shape {shape}, too large for a numpy array")
        if fan_in is None:
            params[name] = np.ones(shape) if name.endswith(".g") else np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(fan_in)
            params[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32).astype(np.float64)
    return Weights(config=config, params=params)


# ---------------------------------------------------------------------------
# primitive layers


# Cephes ndtr.c erf (Moshier 1989): T/U on |x| <= 1, erfc's P/Q on 1 < |x| < 8
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3, 7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0, 4.86371970985681366614e1, 1.96520832956077098242e2,
          5.26445194995477358631e2, 9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERF_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2, 9.75708501743205489753e2,
          1.82390916687909736289e3, 2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)


def _polevl(x: np.ndarray, c: tuple, p1: bool = False) -> np.ndarray:
    """Cephes polevl(x, c), or p1evl (an implied leading 1): Horner from c[0]."""
    y = x + c[0] if p1 else x * c[0] + c[1]
    for k in c[1 if p1 else 2 :]:
        y *= x
        y += k
    return y


def _erf(x: np.ndarray) -> np.ndarray:
    """erf of each value, with the bits of Cephes erf, so of scipy.special.erf
    (a NaN stays NaN; scipy's NaN is always positive).

    The tail takes exp(-x^2) from libm through math.exp, as Cephes does:
    numpy's own exp differs from it in the last bit. From |x| = 8 on, where
    1 - erfc(x) rounds to 1, the tail is evaluated at 8.
    """
    with np.errstate(all="ignore"):  # the core may overflow at |x| > 1, where the tail overwrites it
        z = x * x
        out = _polevl(z, _ERF_T)
        out *= x
        out /= _polevl(z, _ERF_U, p1=True)
        tail = np.flatnonzero(z > 1.0)  # exactly where |x| > 1
        if tail.size:
            xt = x.take(tail)
            v = np.minimum(np.abs(xt), 8.0)
            y = np.fromiter(map(math.exp, (-z.take(tail)).tolist()), np.float64, tail.size)
            y *= _polevl(v, _ERF_P)
            y /= _polevl(v, _ERF_Q, p1=True)
            np.put(out, tail, np.copysign(np.subtract(1.0, y, out=y), xt))
    return out


def _gelu(x: np.ndarray) -> np.ndarray:
    # 0.5 * x * (1 + erf(x / sqrt 2)) with two temporaries, in the same order
    e = _erf(x / np.sqrt(2.0))
    e += 1.0
    e *= 0.5 * x
    return e


def _layer_norm(x: np.ndarray, w: Weights, name: str) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = np.mean((x - mu) ** 2, axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-6) * w[f"{name}.g"] + w[f"{name}.b"]


def _linear(x: np.ndarray, w: Weights, name: str) -> np.ndarray:
    return x @ w[f"{name}.w"] + w[f"{name}.b"]


def _mlp4(x: np.ndarray, w: Weights, name: str) -> np.ndarray:
    """The MLP of each row of a (k, fin) stack: one gemv per row and layer, so a
    row gets the bits it gets alone, and one GELU per layer over the stack."""
    for i in range(4):
        x = np.array([_linear(row, w, f"{name}.{i}") for row in x])
        if i < 3:
            x = _gelu(x)
    return x


def _softmax_rows(s: np.ndarray) -> np.ndarray:
    """Softmax of each row (last axis) of a score array, in place; returns s."""
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def _block(x: np.ndarray, w: Weights, i: int, heads: int, run) -> np.ndarray:
    """Pre-norm residual transformer block over (batch, tokens, dim) sequences.

    A task is a group of sequences of at most _INLINE_TOKENS tokens in all
    (one sequence if it is longer) and a block of query rows: a sequence of at
    most _INLINE_TOKENS tokens is one block, a longer one runs in blocks of
    _QUERY_ROWS rows. ``run`` (geometry._task_map) maps them on at most
    _MAX_WORKERS threads. Each task computes LN1 and q, k, v for its rows;
    then, one head at a time in one score tile per thread, exact softmax
    attention against all keys, the out-projection, LN2, the MLP and both
    residuals. Every gemm is one the whole batch would run: the same bits.
    """
    bsz, t, dim = x.shape
    dh = dim // heads
    blk = f"blocks.{i}"
    step = t if t <= _INLINE_TOKENS else _QUERY_ROWS
    groups = _blocks(bsz, t, _INLINE_TOKENS)
    tasks = [(g, r) for g in groups for r in _blocks(t, budget=step)]
    qkv = np.empty((3, bsz, heads, t, dh))
    kt = qkv[1].transpose(0, 1, 3, 2)
    out = np.empty_like(x)
    scratch = threading.local()

    def project(task: tuple[slice, slice]) -> None:
        g, r = task
        h = _linear(_layer_norm(x[g, r], w, f"{blk}.ln1"), w, f"{blk}.attn.qkv")
        qkv[:, g, :, r] = h.reshape(g.stop - g.start, r.stop - r.start, 3, heads, dh).transpose(2, 0, 3, 1, 4)
        qkv[0, g, :, r] /= np.sqrt(dh)  # the score scale, exact for a power-of-two sqrt(dh)

    def attend(task: tuple[slice, slice]) -> None:
        g, r = task
        n, m = g.stop - g.start, r.stop - r.start
        if not hasattr(scratch, "tile"):
            scratch.tile = np.empty((groups[0].stop - groups[0].start) * step * t)
        probs = scratch.tile[: n * m * t].reshape(n, m, t)
        att = np.empty((n, m, dim))
        for hd in range(heads):
            np.matmul(qkv[0, g, hd, r], kt[g, hd], out=probs)
            np.matmul(_softmax_rows(probs), qkv[2, g, hd], out=att[:, :, hd * dh : (hd + 1) * dh])
        y = x[g, r] + _linear(att, w, f"{blk}.attn.out")
        del att  # before the MLP's temporaries
        h = _layer_norm(y, w, f"{blk}.ln2")
        out[g, r] = y + _linear(_gelu(_linear(h, w, f"{blk}.mlp.0")), w, f"{blk}.mlp.1")

    run(project, tasks)
    run(attend, tasks)
    return out


# ---------------------------------------------------------------------------
# encoder


def _patchify(arr: np.ndarray, patch: int) -> np.ndarray:
    """Pixel unshuffle: (..., H, W, C) -> (..., H/p * W/p, p*p*C)."""
    *lead, h, w, c = arr.shape
    arr = arr.reshape(*lead, h // patch, patch, w // patch, patch, c).swapaxes(-4, -3)
    return arr.reshape(*lead, (h // patch) * (w // patch), patch * patch * c)


def encode_inputs(
    images: list[np.ndarray],
    config: InputConfig,
    weights: Weights,
    rays: list[RayMap | None] | None = None,
    depths: list[DepthAlongRay | None] | None = None,
    poses: list[Pose | None] | None = None,
) -> TokenSet:
    """Encode images and available factored inputs into the fused token set.

    Per view, every available modality embedding is layer-normalized, summed
    and normalized again; global quantities (pose, scales) are broadcast-added
    to their view's patch tokens. The reference embedding is added to
    view 0 and the scale token appended.
    """
    cfg = weights.config
    n = len(images)
    if not n:
        raise ShapeError("the network needs at least one view")
    if config.n_views != n:
        raise ShapeError(f"input config covers {config.n_views} views, got {n} images")
    rays = rays if rays is not None else [None] * n
    depths = depths if depths is not None else [None] * n
    poses = poses if poses is not None else [None] * n
    if not (len(rays) == len(depths) == len(poses) == n):
        raise ShapeError("modality lists must match the view count")
    checks = (("rays", config.rays_given, rays), ("depth", config.depth_given, depths), ("pose", config.pose_given, poses))
    for i in range(n):
        for name, flags, inputs in checks:
            if flags[i] != (inputs[i] is not None):
                raise InvalidValueError(f"view {i}: {name} flag/input inconsistency")
    shapes = [np.shape(im) for im in images]
    bad = [s for s in shapes if len(s) != 3 or s[2] != 3]
    if bad:
        raise ShapeError(f"images must be (H, W, 3), got {bad[0]}")
    h, w = shapes[0][:2]
    if h % cfg.patch or w % cfg.patch:
        raise ShapeError(f"image dims {h}x{w} must be divisible by patch {cfg.patch}")
    if any(s[:2] != (h, w) for s in shapes):
        raise ShapeError("all views must share one resolution")
    if any(x is not None and (x.height, x.width) != (h, w) for x in (*rays, *depths)):
        raise ShapeError(f"ray maps and depths must have the images' resolution {h}x{w}")

    with _stage() as run:
        # pose scale over the views that actually provide translations, and their pose embeddings by view
        pose_idx = [i for i in range(n) if poses[i] is not None]
        pose_emb = {}
        zp = None
        if pose_idx:
            pf = factor_pose_scale(np.stack([poses[i].translation for i in pose_idx]))
            q = _layer_norm(_mlp4(np.stack([poses[i].rotation for i in pose_idx]), weights, "mlp_quat"), weights, "ln_quat")
            t = _layer_norm(_mlp4(pf.normalized_translations, weights, "mlp_trans"), weights, "ln_trans")
            pose_emb = dict(zip(pose_idx, zip(q, t)))
            if config.metric_pose_scale_given:  # one embedding, added to every view with a pose
                zp = _layer_norm(_mlp4(np.array([[encode_log_scale(pf.z_p)]]), weights, "mlp_zp"), weights, "ln_zp")

        ph, pw = h // cfg.patch, w // cfg.patch
        tokens = np.empty((n, ph * pw, cfg.dim))

        def embed(g: slice) -> None:
            img = np.asarray(images[g], dtype=np.float64)  # one stack; each view still runs its own gemms
            embs = _layer_norm(_linear(_patchify(img, cfg.patch), weights, "patch_image"), weights, "ln_image")
            for i, emb in zip(range(g.start, g.stop), embs):
                if rays[i] is not None:
                    r = _linear(_patchify(rays[i].directions, cfg.patch), weights, "patch_rays")
                    emb += _layer_norm(r, weights, "ln_rays")
                if depths[i] is not None:
                    df = factor_depth(depths[i])
                    d = _linear(_patchify(df.normalized.values[:, :, None], cfg.patch), weights, "patch_depth")
                    emb += _layer_norm(d, weights, "ln_depth")
                    if config.metric_depth_scale_given:
                        zd = _mlp4(np.array([[encode_log_scale(df.z_d)]]), weights, "mlp_zd")
                        emb += _layer_norm(zd, weights, "ln_zd")
                if poses[i] is not None:
                    emb += pose_emb[i][0]
                    emb += pose_emb[i][1]
                    if zp is not None:
                        emb += zp
            tokens[g] = _layer_norm(embs, weights, "ln_fuse")

        run(embed, _blocks(n, ph * pw, _INLINE_TOKENS))
    tokens[0] = tokens[0] + weights["ref_embed"]
    return TokenSet(tokens=tokens, scale_token=weights["scale_token"].copy(), patch_grid=(ph, pw))


# ---------------------------------------------------------------------------
# transformer


def alternating_attention(
    tokens: TokenSet,
    weights: Weights,
    layer_types: tuple[str, ...] | None = None,
) -> TokenSet:
    """Alternate frame-wise and global self-attention over the token set.

    Even layers attend within each view, odd layers over all views' patches
    plus the scale token (which frame layers leave untouched).
    ``layer_types`` overrides the frame/global pattern for testing. The output
    is final-layer-normalized.
    """
    cfg = weights.config
    if layer_types is None:
        layer_types = tuple("frame" if i % 2 == 0 else "global" for i in range(cfg.depth))
    if len(layer_types) != cfg.depth:
        raise ShapeError("layer_types must name every configured layer")
    v, p, dim = tokens.tokens.shape
    x = tokens.tokens
    s = tokens.scale_token
    with _stage() as run:
        for i, kind in enumerate(layer_types):
            if kind == "frame":
                x = _block(x, weights, i, cfg.heads, run)
            elif kind == "global":
                seq = np.concatenate([x.reshape(1, v * p, dim), s[None, None, :]], axis=1)
                seq = _block(seq, weights, i, cfg.heads, run)
                x = seq[0, : v * p].reshape(v, p, dim)
                s = seq[0, v * p]
            else:
                raise InvalidValueError(f"unknown layer type {kind!r}")
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(s))):
                raise NumericOverflowError(f"non-finite activations after layer {i}")
    x = _layer_norm(x, weights, "ln_out")
    s = _layer_norm(s, weights, "ln_out")
    return TokenSet(tokens=x, scale_token=s, patch_grid=tokens.patch_grid)


# ---------------------------------------------------------------------------
# heads


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.clip(x, -EXP_CLIP, None))), np.exp(np.clip(x, None, EXP_CLIP)) / (1.0 + np.exp(np.clip(x, None, EXP_CLIP))))


def _bounded_exp(x: np.ndarray) -> np.ndarray:
    return np.exp(np.clip(x, -EXP_CLIP, EXP_CLIP))


def decode_heads(tokens: TokenSet, weights: Weights) -> ModelOutput:
    """Decode tokens into the factored output.

    Dense head: per-patch linear then spatial unfold; rays are unit with a
    positive z by construction (z passes through exp before normalization),
    depth/confidence are exponential-positive, masks sigmoid. Pose head:
    mean-pool + MLP with the quaternion normalized and sign-canonicalized.
    Scale head: 2-layer ReLU MLP on the scale token, exponentiated.
    """
    cfg = weights.config
    v, p, dim = tokens.tokens.shape
    ph, pw = tokens.patch_grid
    h, w = ph * cfg.patch, pw * cfg.patch

    rays, maps = np.empty((v, h, w, 3)), np.empty((3, v, h, w))  # maps: depth, confidence, mask

    def dense_head(g: slice) -> None:
        dense = _linear(tokens.tokens[g], weights, "head_dense")
        dense = dense.reshape(g.stop - g.start, ph, pw, cfg.patch, cfg.patch, 6)
        dense = dense.transpose(5, 0, 1, 3, 2, 4).reshape(6, g.stop - g.start, h, w)
        r = rays[g]
        r[..., 0], r[..., 1], r[..., 2] = dense[0], dense[1], _bounded_exp(dense[2])
        norms = _norm3(r)[..., None]
        # Overflowing head weights are a numeric overflow, not an invalid container:
        # catch them here, before any division and the constructors' range checks.
        if not (np.all(np.isfinite(dense)) and np.all(np.isfinite(norms))):
            raise NumericOverflowError("non-finite dense head outputs")
        r /= norms
        maps[0, g] = _bounded_exp(dense[3])
        maps[1, g] = 1.0 + _bounded_exp(dense[4])
        maps[2, g] = _sigmoid(dense[5])

    with _stage() as run:
        run(dense_head, _blocks(v, p, _INLINE_TOKENS))

        pooled = tokens.tokens.mean(axis=1)
        hdn = _gelu(_linear(pooled, weights, "head_pose.0"))
        hdn = _gelu(_linear(hdn, weights, "head_pose.1"))
        pose_raw = _linear(hdn, weights, "head_pose.2")
        poses = []
        for q, t in zip(pose_raw[:, :4], pose_raw[:, 4:7]):
            nq = np.linalg.norm(q)
            poses.append(Pose(np.array([1.0, 0.0, 0.0, 0.0]) if nq < 1e-12 else q / nq, t))

        sc = np.maximum(_linear(tokens.scale_token, weights, "head_scale.0"), 0.0)
        sc = _linear(sc, weights, "head_scale.1")

    return ModelOutput(
        rays=[RayMap(r) for r in rays],
        depths=[DepthAlongRay(d, m) for d, m in zip(maps[0], np.ones((v, h, w), bool))],
        confidences=list(maps[1]),
        mask_probs=list(maps[2]),
        poses=poses,
        scale=MetricScale(float(_bounded_exp(sc[0]))),
    )


def forward(
    images: list[np.ndarray],
    config: InputConfig,
    weights: Weights,
    rays: list[RayMap | None] | None = None,
    depths: list[DepthAlongRay | None] | None = None,
    poses: list[Pose | None] | None = None,
) -> ModelOutput:
    """encode -> alternating attention -> heads; pure and deterministic."""
    tokens = encode_inputs(images, config, weights, rays=rays, depths=depths, poses=poses)
    tokens = alternating_attention(tokens, weights)
    return decode_heads(tokens, weights)
