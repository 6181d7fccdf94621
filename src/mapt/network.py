"""Forward-only toy-scale reference of the reconstruction network.

Structure: per-view input encoders (linear patchify stub for images, pixel
unshuffle + linear for dense geometry, 4-layer GeLU MLPs for global
quantities), layernorm-sum-layernorm fusion, a reference-view embedding on
view 0, one learnable scale token, an alternating-attention transformer
(frame-wise and global self-attention, no positional encoding across views),
and three heads producing the factored output with all parameterization
constraints enforced by construction.

Pure numpy, float64, fully deterministic per (weights, inputs).
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidValueError, NumericOverflowError, ShapeError
from .factorization import encode_log_scale, factor_depth, factor_pose_scale
from .geometry import DepthAlongRay, FactoredScene, FactoredView, MetricScale, Pose, RayMap, _norm3, _rng
from .viewgraph import InputConfig

EXP_CLIP = 30.0
_QUERY_BLOCK = 256  # query rows per exact-softmax attention block: heads * B * T doubles of scores
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real}  # bool is an int too; __post_init__ rejects bools


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

    From ``decode_heads``, each view's ray directions are a slice of one
    (v, h, w, 3) stack: the views share that buffer, so holding any one
    view's rays keeps the whole stack alive.
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


def _gelu(x: np.ndarray) -> np.ndarray:
    from scipy.special import erf  # imported here: only the network needs scipy

    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _layer_norm(x: np.ndarray, w: Weights, name: str) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = np.mean((x - mu) ** 2, axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-6) * w[f"{name}.g"] + w[f"{name}.b"]


def _linear(x: np.ndarray, w: Weights, name: str) -> np.ndarray:
    return x @ w[f"{name}.w"] + w[f"{name}.b"]


def _mlp4(x: np.ndarray, w: Weights, name: str) -> np.ndarray:
    for i in range(4):
        x = _linear(x, w, f"{name}.{i}")
        if i < 3:
            x = _gelu(x)
    return x


def _attention(x: np.ndarray, w: Weights, block: str, heads: int, audit: list | None) -> np.ndarray:
    """Multi-head self-attention over (batch, tokens, dim) sequences, in blocks of query rows."""
    bsz, t, dim = x.shape
    dh = dim // heads
    q, k, v = _linear(x, w, f"{block}.attn.qkv").reshape(bsz, t, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    buf, out, err = np.empty((bsz, heads, min(t, _QUERY_BLOCK), t)), np.empty((bsz, heads, t, dh)), 0.0
    for a in range(0, t, _QUERY_BLOCK):
        probs = np.matmul(q[:, :, a : a + _QUERY_BLOCK], k.transpose(0, 1, 3, 2), out=buf[:, :, : t - a])
        probs /= np.sqrt(dh)
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        if audit is not None:
            err = max(err, float(np.max(np.abs(probs.sum(axis=-1) - 1.0))))
        np.matmul(probs, v, out=out[:, :, a : a + _QUERY_BLOCK])
    if audit is not None:
        audit.append(err)
    return _linear(out.transpose(0, 2, 1, 3).reshape(bsz, t, dim), w, f"{block}.attn.out")


def _block(x: np.ndarray, w: Weights, i: int, heads: int, audit: list | None) -> np.ndarray:
    """Pre-norm residual transformer block."""
    blk = f"blocks.{i}"
    h = _layer_norm(x, w, f"{blk}.ln1")
    x = x + _attention(h, w, blk, heads, audit)
    h = _layer_norm(x, w, f"{blk}.ln2")
    h = _linear(_gelu(_linear(h, w, f"{blk}.mlp.0")), w, f"{blk}.mlp.1")
    return x + h


# ---------------------------------------------------------------------------
# encoder


def _patchify(arr: np.ndarray, patch: int) -> np.ndarray:
    """Pixel unshuffle: (H, W, C) -> (H/p * W/p, p*p*C)."""
    h, w = arr.shape[:2]
    c = arr.shape[2] if arr.ndim == 3 else 1
    arr = arr.reshape(h // patch, patch, w // patch, patch, c)
    return arr.transpose(0, 2, 1, 3, 4).reshape((h // patch) * (w // patch), patch * patch * c)


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
    h, w = images[0].shape[:2]
    if h % cfg.patch or w % cfg.patch:
        raise ShapeError(f"image dims {h}x{w} must be divisible by patch {cfg.patch}")
    if any(im.shape[:2] != (h, w) for im in images):
        raise ShapeError("all views must share one resolution")

    # pose scale over the views that actually provide translations
    pose_idx = [i for i in range(n) if poses[i] is not None]
    norm_trans = {}
    z_p = None
    if pose_idx:
        pf = factor_pose_scale(np.stack([poses[i].translation for i in pose_idx]))
        z_p = pf.z_p
        for slot, i in enumerate(pose_idx):
            norm_trans[i] = pf.normalized_translations[slot]

    tok = []
    for i in range(n):
        img = np.asarray(images[i], dtype=np.float64)
        emb = _layer_norm(_linear(_patchify(img, cfg.patch), weights, "patch_image"), weights, "ln_image")
        if rays[i] is not None:
            r = _linear(_patchify(rays[i].directions, cfg.patch), weights, "patch_rays")
            emb = emb + _layer_norm(r, weights, "ln_rays")
        if depths[i] is not None:
            df = factor_depth(depths[i])
            d = _linear(_patchify(df.normalized.values[:, :, None], cfg.patch), weights, "patch_depth")
            emb = emb + _layer_norm(d, weights, "ln_depth")
            if config.metric_depth_scale_given:
                zd = _mlp4(np.array([encode_log_scale(df.z_d)]), weights, "mlp_zd")
                emb = emb + _layer_norm(zd, weights, "ln_zd")[None, :]
        if poses[i] is not None:
            q = _mlp4(poses[i].rotation, weights, "mlp_quat")
            emb = emb + _layer_norm(q, weights, "ln_quat")[None, :]
            t = _mlp4(norm_trans[i], weights, "mlp_trans")
            emb = emb + _layer_norm(t, weights, "ln_trans")[None, :]
            if config.metric_pose_scale_given:
                zp = _mlp4(np.array([encode_log_scale(z_p)]), weights, "mlp_zp")
                emb = emb + _layer_norm(zp, weights, "ln_zp")[None, :]
        tok.append(_layer_norm(emb, weights, "ln_fuse"))
    tokens = np.stack(tok)
    tokens[0] = tokens[0] + weights["ref_embed"]
    return TokenSet(tokens=tokens, scale_token=weights["scale_token"].copy(), patch_grid=(h // cfg.patch, w // cfg.patch))


# ---------------------------------------------------------------------------
# transformer


def alternating_attention(
    tokens: TokenSet,
    weights: Weights,
    layer_types: tuple[str, ...] | None = None,
    attention_audit: list | None = None,
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
    for i, kind in enumerate(layer_types):
        if kind == "frame":
            x = _block(x, weights, i, cfg.heads, attention_audit)
        elif kind == "global":
            seq = np.concatenate([x.reshape(1, v * p, dim), s[None, None, :]], axis=1)
            seq = _block(seq, weights, i, cfg.heads, attention_audit)
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

    dense = _linear(tokens.tokens, weights, "head_dense")
    dense = dense.reshape(v, ph, pw, cfg.patch, cfg.patch, 6)
    dense = dense.transpose(5, 0, 1, 3, 2, 4).reshape(6, v, h, w)

    rays = np.stack([dense[0], dense[1], _bounded_exp(dense[2])], axis=-1)
    norms = _norm3(rays)[..., None]
    # Overflowing head weights are a numeric overflow, not an invalid container:
    # catch them here, before the constructors below check the ranges.
    if not (np.all(np.isfinite(dense)) and np.all(np.isfinite(norms))):
        raise NumericOverflowError("non-finite dense head outputs")
    rays /= norms

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
        depths=[DepthAlongRay(_bounded_exp(d), np.ones((h, w), bool)) for d in dense[3]],
        confidences=[1.0 + _bounded_exp(c) for c in dense[4]],
        mask_probs=[_sigmoid(m) for m in dense[5]],
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
    attention_audit: list | None = None,
) -> ModelOutput:
    """encode -> alternating attention -> heads; pure and deterministic."""
    tokens = encode_inputs(images, config, weights, rays=rays, depths=depths, poses=poses)
    tokens = alternating_attention(tokens, weights, attention_audit=attention_audit)
    return decode_heads(tokens, weights)
