import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from mapt.errors import InvalidValueError, NumericOverflowError, ShapeError
from mapt.geometry import Pose
from mapt.network import (
    _QUERY_BLOCK,
    ModelConfig,
    TokenSet,
    Weights,
    alternating_attention,
    decode_heads,
    encode_inputs,
    forward,
    init_weights,
)
from mapt.synth import gen_scene
from mapt.viewgraph import InputConfig

TOY = ModelConfig(depth=4, dim=64, heads=4, mlp_ratio=4.0, patch=14)


def _scene(n_views=3, size=28, seed=0):
    _, s = gen_scene(n_views=n_views, width=size, height=size, n_spheres=4, seed=seed, plane=True)
    return s


def _images(sample):
    return [v.image.astype(np.float64) for v in sample.views]


def _full_inputs(sample):
    n = sample.n_views
    cfg = InputConfig.from_modalities(n, rays=True, pose=True, depth=True)
    return dict(
        images=_images(sample),
        config=cfg,
        rays=[v.rays for v in sample.views],
        depths=[v.depth for v in sample.views],
        poses=[v.pose for v in sample.views],
    )


# independent pre-norm transformer encoder used as the frame-layer oracle
def _reference_encoder(x, w: Weights, layer_indices, heads):
    def ln(v, g, b, eps=1e-6):
        mu = v.mean(-1, keepdims=True)
        var = ((v - mu) ** 2).mean(-1, keepdims=True)
        return (v - mu) / np.sqrt(var + eps) * g + b

    def gelu(v):
        return 0.5 * v * (1.0 + erf(v / np.sqrt(2.0)))

    t, dim = x.shape
    dh = dim // heads
    for i in layer_indices:
        blk = f"blocks.{i}"
        h = ln(x, w[f"{blk}.ln1.g"], w[f"{blk}.ln1.b"])
        qkv = h @ w[f"{blk}.attn.qkv.w"] + w[f"{blk}.attn.qkv.b"]
        heads_out = []
        for hd in range(heads):
            q = qkv[:, 0 * dim + hd * dh : 0 * dim + (hd + 1) * dh]
            k = qkv[:, 1 * dim + hd * dh : 1 * dim + (hd + 1) * dh]
            v = qkv[:, 2 * dim + hd * dh : 2 * dim + (hd + 1) * dh]
            s = q @ k.T / np.sqrt(dh)
            s = s - s.max(axis=1, keepdims=True)
            p = np.exp(s)
            p /= p.sum(axis=1, keepdims=True)
            heads_out.append(p @ v)
        att = np.concatenate(heads_out, axis=1) @ w[f"{blk}.attn.out.w"] + w[f"{blk}.attn.out.b"]
        x = x + att
        h = ln(x, w[f"{blk}.ln2.g"], w[f"{blk}.ln2.b"])
        h = gelu(h @ w[f"{blk}.mlp.0.w"] + w[f"{blk}.mlp.0.b"]) @ w[f"{blk}.mlp.1.w"] + w[f"{blk}.mlp.1.b"]
        x = x + h
    return ln(x, w["ln_out.g"], w["ln_out.b"])


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidValueError):
            ModelConfig(dim=65, heads=4)
        with pytest.raises(InvalidValueError):
            ModelConfig(depth=3)


class TestEncodeInputs:
    def test_zero_weights_shape_contract(self):
        s = _scene()
        w = init_weights(TOY, 0)
        for name in w.params:
            w.params[name] = np.zeros_like(w.params[name])
        cfg = InputConfig.images_only(3)
        tok = encode_inputs(_images(s), cfg, w)
        assert tok.tokens.shape == (3, 4, 64)
        assert tok.scale_token.shape == (64,)
        np.testing.assert_array_equal(tok.tokens, 0.0)

    def test_token_count_independent_of_inputs(self):
        s = _scene()
        w = init_weights(TOY, 1)
        a = encode_inputs(_images(s), InputConfig.images_only(3), w)
        b = encode_inputs(**_full_inputs(s), weights=w)
        assert a.tokens.shape == b.tokens.shape

    def test_identical_views_and_reference_embedding(self):
        s = _scene(n_views=1)
        w = init_weights(TOY, 2)
        img = _images(s)[0]
        cfg = InputConfig.images_only(3)
        tok = encode_inputs([img, img, img], cfg, w)
        np.testing.assert_array_equal(tok.tokens[1], tok.tokens[2])
        np.testing.assert_allclose(tok.tokens[0], tok.tokens[1] + w["ref_embed"], atol=1e-12)

    def test_flag_input_inconsistency(self):
        s = _scene()
        w = init_weights(TOY, 3)
        cfg = InputConfig.from_modalities(3, rays=True)
        with pytest.raises(InvalidValueError):
            encode_inputs(_images(s), cfg, w)  # rays flagged but not provided

    @pytest.mark.parametrize("modality, given", [("rays", "rays"), ("depth", "depths"), ("pose", "poses")])
    def test_flag_input_inconsistency_names_the_modality(self, modality, given):
        s = _scene()
        w = init_weights(TOY, 3)
        full = _full_inputs(s)
        message = f"view 0: {modality} flag/input inconsistency"
        with pytest.raises(InvalidValueError, match=message):  # flagged but not provided
            encode_inputs(full["images"], InputConfig.from_modalities(3, **{modality: True}), w)
        with pytest.raises(InvalidValueError, match=message):  # provided but not flagged
            encode_inputs(full["images"], InputConfig.images_only(3), w, **{given: full[given]})

    def test_patch_divisibility_enforced(self):
        s = _scene(size=28)
        w = init_weights(ModelConfig(patch=13, dim=64, heads=4), 0)
        with pytest.raises(ShapeError):
            encode_inputs(_images(s), InputConfig.images_only(3), w)


class TestAlternatingAttention:
    def test_single_view_frame_layers_equal_reference_encoder(self):
        w = init_weights(ModelConfig(depth=2, dim=32, heads=4, patch=14), 4)
        rng = np.random.default_rng(5)
        tokens = TokenSet(tokens=rng.normal(size=(1, 4, 32)), scale_token=rng.normal(size=32), patch_grid=(2, 2))
        got = alternating_attention(tokens, w, layer_types=("frame", "frame"))
        ref = _reference_encoder(tokens.tokens[0].copy(), w, [0, 1], heads=4)
        np.testing.assert_allclose(got.tokens[0], ref, atol=1e-12)

    @pytest.mark.parametrize("kind", ["frame", "global"])
    @pytest.mark.parametrize("t", [_QUERY_BLOCK - 1, _QUERY_BLOCK, _QUERY_BLOCK + 1, 2 * _QUERY_BLOCK + 1])
    def test_query_blocks_equal_reference_encoder(self, kind, t):
        # t tokens per attention call: two views of t patches in frame layers,
        # one view of t - 1 patches plus the scale token in global layers
        w = init_weights(ModelConfig(depth=2, dim=32, heads=4), 9)
        rng = np.random.default_rng(t)
        v, p = (2, t) if kind == "frame" else (1, t - 1)
        tokens = TokenSet(tokens=rng.normal(size=(v, p, 32)), scale_token=rng.normal(size=32), patch_grid=(1, p))
        audit = []
        got = alternating_attention(tokens, w, layer_types=(kind, kind), attention_audit=audit)
        if kind == "frame":
            for i in range(v):
                np.testing.assert_allclose(got.tokens[i], _reference_encoder(tokens.tokens[i].copy(), w, [0, 1], heads=4), atol=1e-12)
        else:
            ref = _reference_encoder(np.concatenate([tokens.tokens[0], tokens.scale_token[None]]), w, [0, 1], heads=4)
            np.testing.assert_allclose(got.tokens[0], ref[:p], atol=1e-12)
            np.testing.assert_allclose(got.scale_token, ref[p], atol=1e-12)
        assert len(audit) == 2  # one entry per attention call, however many blocks it ran
        assert max(audit) < 1e-6

    def test_global_attention_peak_memory_below_one_dense_score_array(self):
        cfg = ModelConfig(depth=2)
        w = init_weights(cfg, 10)
        rng = np.random.default_rng(11)
        v, p = 24, 144
        tokens = TokenSet(tokens=rng.normal(size=(v, p, cfg.dim)), scale_token=rng.normal(size=cfg.dim), patch_grid=(12, 12))
        t = v * p + 1
        tracemalloc.start()
        try:
            alternating_attention(tokens, w, layer_types=("global", "global"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cfg.heads * t * t * 8

    def test_attention_rows_sum_to_one(self):
        s = _scene()
        w = init_weights(TOY, 6)
        audit = []
        forward(**_full_inputs(s), weights=w, attention_audit=audit)
        assert len(audit) == TOY.depth
        assert max(audit) < 1e-6

    def test_scale_token_untouched_by_frame_layers(self):
        w = init_weights(ModelConfig(depth=2, dim=32, heads=4), 7)
        rng = np.random.default_rng(8)
        tokens = TokenSet(tokens=rng.normal(size=(2, 4, 32)), scale_token=rng.normal(size=32), patch_grid=(2, 2))
        # frame-only run: the scale token passes straight through to the final norm
        got = alternating_attention(tokens, w, layer_types=("frame", "frame"))
        mu = tokens.scale_token.mean()
        var = ((tokens.scale_token - mu) ** 2).mean()
        expect = (tokens.scale_token - mu) / np.sqrt(var + 1e-6) * w["ln_out.g"] + w["ln_out.b"]
        np.testing.assert_allclose(got.scale_token, expect, atol=1e-12)


class TestDecodeHeads:
    def test_output_parameterizations_random_draws(self):
        s = _scene()
        full = _full_inputs(s)
        for seed in range(10):
            out = forward(**full, weights=init_weights(TOY, 100 + seed))
            for r in out.rays:
                n = np.linalg.norm(r.directions, axis=2)
                assert np.max(np.abs(n - 1.0)) < 1e-6
                assert np.min(r.directions[:, :, 2]) > 0.0
            assert all(d.values.min() > 0 for d in out.depths)
            assert all(c.min() >= 1.0 for c in out.confidences)
            assert all(m.min() >= 0.0 and m.max() <= 1.0 for m in out.mask_probs)
            for p in out.poses:
                assert abs(np.linalg.norm(p.rotation) - 1.0) < 1e-9
                assert p.rotation[0] >= 0.0
            assert out.scale.value > 0.0

    def test_zero_dense_head_collapses(self):
        s = _scene()
        w = init_weights(TOY, 9)
        w.params["head_dense.w"] = np.zeros_like(w.params["head_dense.w"])
        out = forward(**_full_inputs(s), weights=w)
        bias = w["head_dense.b"].reshape(TOY.patch, TOY.patch, 6)
        # every patch repeats the same bias block
        d0 = out.depths[0].values
        np.testing.assert_allclose(d0[: TOY.patch, : TOY.patch], np.exp(bias[:, :, 3]))
        np.testing.assert_allclose(d0[TOY.patch :, TOY.patch :], np.exp(bias[:, :, 3]))
        r0 = out.rays[0].directions
        np.testing.assert_allclose(r0[: TOY.patch, : TOY.patch], r0[TOY.patch :, TOY.patch :])

    def test_output_resolution_matches_input(self):
        s = _scene(size=56)
        out = forward(**_full_inputs(s), weights=init_weights(TOY, 10))
        for r, d, c, m in zip(out.rays, out.depths, out.confidences, out.mask_probs):
            assert r.directions.shape == (56, 56, 3)
            assert d.values.shape == (56, 56)
            assert c.shape == (56, 56) and m.shape == (56, 56)

    @pytest.mark.parametrize("factor", [1e200, np.inf])
    def test_overflowing_head_weights_raise_numeric_overflow(self, factor):
        s = _scene(n_views=2)
        w = init_weights(TOY, 4)
        tokens = alternating_attention(encode_inputs(_images(s), InputConfig.images_only(2), w), w)
        for name in w.params:
            if name.startswith("head_"):
                w.params[name] = w.params[name] * factor
        with np.errstate(all="ignore"), pytest.raises(NumericOverflowError, match="dense head"):
            decode_heads(tokens, w)


class TestForward:
    def test_bit_identical_repeats(self):
        s = _scene()
        w = init_weights(TOY, 11)
        full = _full_inputs(s)
        a = forward(**full, weights=w)
        b = forward(**full, weights=w)
        for ra, rb in zip(a.rays, b.rays):
            np.testing.assert_array_equal(ra.directions, rb.directions)
        for da, db in zip(a.depths, b.depths):
            np.testing.assert_array_equal(da.values, db.values)
        assert a.scale.value == b.scale.value
        for pa, pb in zip(a.poses, b.poses):
            np.testing.assert_array_equal(pa.rotation, pb.rotation)
            np.testing.assert_array_equal(pa.translation, pb.translation)

    def test_permutation_equivariance(self):
        s = _scene(n_views=4)
        w = init_weights(TOY, 12)
        full = _full_inputs(s)
        out = forward(**full, weights=w)
        perm = [0, 2, 3, 1]  # keep the reference view first
        permuted = dict(
            images=[full["images"][i] for i in perm],
            config=full["config"],
            rays=[full["rays"][i] for i in perm],
            depths=[full["depths"][i] for i in perm],
            poses=[full["poses"][i] for i in perm],
        )
        out_p = forward(**permuted, weights=w)
        for slot, src in enumerate(perm):
            np.testing.assert_allclose(out_p.rays[slot].directions, out.rays[src].directions, atol=1e-5)
            np.testing.assert_allclose(out_p.depths[slot].values, out.depths[src].values, atol=1e-5)
            np.testing.assert_allclose(out_p.poses[slot].translation, out.poses[src].translation, atol=1e-5)
        assert abs(out_p.scale.value - out.scale.value) < 1e-5

    def test_reference_embedding_sensitivity(self):
        s = _scene()
        w = init_weights(TOY, 13)
        no_ref = dataclasses.replace(w, params={**w.params, "ref_embed": np.zeros_like(w["ref_embed"])})
        imgs = _images(s)
        cfg = InputConfig.images_only(3)
        a = forward(imgs, cfg, w)
        b = forward(imgs, cfg, no_ref)
        diff = max(
            float(np.max(np.abs(a.depths[i].values - b.depths[i].values))) for i in range(3)
        )
        assert diff > 1e-6

    def test_loss_integration_finite(self, small_scene):
        # 32x24 is not patch-divisible at 14; use a 28x28 scene
        s = _scene()
        out = forward(**_full_inputs(s), weights=init_weights(TOY, 14))
        from mapt.losses import total_loss

        rep = total_loss(out.as_factored_scene(), s, synthetic=True)
        assert np.isfinite(rep.total)


class TestWeights:
    def test_init_bound_and_determinism(self):
        a = init_weights(TOY, 16)
        b = init_weights(TOY, 16)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])
        w = a.params["head_dense.w"]
        assert np.max(np.abs(w)) <= 1.0 / np.sqrt(64)
