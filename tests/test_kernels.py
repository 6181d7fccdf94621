"""The dense per-pixel kernels against the bodies they replaced
(tests/oracles.py): the same bits for every input, with +-0, subnormals,
values whose squares overflow or underflow, NaN and +-inf, and for every
size of the row blocks they run in; plus guards that keep numpy's slow
strided norm out of the hot paths and bound the peak memory of total_loss,
evaluate_scene and shade_view."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mapt import geometry
from mapt.cli import main
from mapt.factorization import f_log
from mapt.geometry import (
    DepthAlongRay,
    FactoredScene,
    FactoredView,
    MetricScale,
    PointMap,
    Pose,
    RayMap,
    _compose,
    _dot3,
    _forward_normals,
    _norm3,
    compose_scene_points,
    local_pointmap,
    metric_upgrade,
    ray_angular_error,
)
from mapt.io import read_factored, write_factored, write_scene
from mapt.losses import DEFAULT_KERNEL, _pool_half, loss_normal, loss_rays, total_loss
from mapt.metrics import evaluate_scene
from mapt.network import ModelConfig, alternating_attention, decode_heads, encode_inputs, init_weights
from mapt.synth import SceneSample, ViewSample, gen_scene, shade_view
from mapt.viewgraph import InputConfig

import oracles
from oracles import (
    compose_reference,
    evaluate_scene_reference,
    export_ply_reference,
    f_log_reference,
    forward_normals_reference,
    loss_normal_reference,
    loss_rays_reference,
    ray_angular_error_reference,
    shade_view_reference,
    total_loss_reference,
)
from test_pooled_paths import K, _assert_same, _outcome, _quat, _rays

# +-0, subnormals, values whose squares underflow (1e-200) or overflow (1e200,
# 1.7e308), NaN and +-inf
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-200, -1e-200, 1e200, -1e200, 1.7e308, np.nan, np.inf, -np.inf]
FINITE_SPECIAL = [x for x in SPECIAL if np.isfinite(x)]
values = st.one_of(st.sampled_from(SPECIAL), st.floats(-10.0, 10.0), st.floats(allow_nan=True, allow_infinity=True))
positive = st.one_of(st.sampled_from([5e-324, 2.2e-308, 1e-200, 1e200, 1.7e308]), st.floats(0.1, 20.0))


def _grid_shapes():
    """(h, 1, 3) grids, as in the W = 1 views whose matmul rounds differently,
    (1, w, 3) grids and small (h, w, 3) grids."""
    return st.one_of(
        st.tuples(st.integers(1, 8), st.just(1), st.just(3)),
        st.tuples(st.just(1), st.integers(1, 8), st.just(3)),
        st.tuples(st.integers(1, 5), st.integers(1, 5), st.just(3)),
    )


def _vector_shapes():
    """(3,) vectors, (n, 3) rows and the grids of _grid_shapes."""
    return st.one_of(st.just((3,)), st.tuples(st.integers(0, 12), st.just(3)), _grid_shapes())


def _same_bits(got, ref):
    """The same shape and dtype, NaN at the same places and every other
    value bit for bit, the sign of zero included. The sign and payload of a
    NaN depend on the operand order numpy's loops pick, so they are not
    compared."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert (got.shape, got.dtype) == (ref.shape, ref.dtype)
    if got.dtype.kind == "f":
        nan = np.isnan(got)
        assert np.array_equal(nan, np.isnan(ref))
        got, ref = np.where(nan, 0.0, got), np.where(nan, 0.0, ref)
    assert got.tobytes() == ref.tobytes()


class TestKernelsMatchOracles:
    @settings(max_examples=300, deadline=None)
    @given(x=_vector_shapes().flatmap(lambda s: arrays(np.float64, s, elements=values)))
    def test_norm3_is_numpy_norm(self, x):
        with np.errstate(all="ignore"):
            _same_bits(_norm3(x), np.linalg.norm(x, axis=-1))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_dot3_is_numpy_sum(self, data):
        """Against np.sum(a * b, axis=-1), also with b broadcast as one
        vector; + 0.0 maps the -0.0 that _dot3 keeps to np.sum's +0.0."""
        a = data.draw(_vector_shapes().flatmap(lambda s: arrays(np.float64, s, elements=values)))
        b = data.draw(arrays(np.float64, data.draw(st.sampled_from([a.shape, (3,)])), elements=values))
        with np.errstate(all="ignore"):
            _same_bits(_dot3(a, b) + 0.0, np.sum(a * b, axis=-1) + 0.0)

    @settings(max_examples=300, deadline=None)
    @given(x=_vector_shapes().flatmap(lambda s: arrays(np.float64, s, elements=values)))
    def test_f_log(self, x):
        """Elementwise, and along every axis (np.linalg.norm), length 3 included."""
        for axis in (None, -1, *range(x.ndim)):
            _same_bits(_outcome(f_log, x, axis=axis), _outcome(f_log_reference, x, axis=axis))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_forward_normals(self, data):
        points = data.draw(_grid_shapes().flatmap(lambda s: arrays(np.float64, s, elements=values)))
        valid = data.draw(arrays(bool, points.shape[:2]))
        got, ref = _outcome(_forward_normals, points, valid), _outcome(forward_normals_reference, points, valid)
        for g, r in zip(got, ref):
            _same_bits(g, r)

    @settings(max_examples=100, deadline=None)
    @given(shape=_grid_shapes(), seed=st.integers(0, 2**32 - 1), flip=st.booleans())
    def test_ray_angular_error(self, shape, seed, flip):
        """Unit rays near each other, or (``flip``) mirrored in x and y."""
        rng = np.random.default_rng(seed)
        a = _rays(rng, *shape[:2])
        b = a * [-1.0, -1.0, 1.0] if flip else _rays(rng, *shape[:2])
        _same_bits(ray_angular_error(RayMap(a), RayMap(b)), ray_angular_error_reference(RayMap(a), RayMap(b)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_shade_view(self, data, seed):
        h, w, _ = data.draw(_grid_shapes())
        rays = RayMap(_rays(np.random.default_rng(seed), h, w))
        valid = data.draw(arrays(bool, (h, w)))
        depth = DepthAlongRay(np.where(valid, data.draw(arrays(np.float64, (h, w), elements=positive)), 0.0), valid)
        _same_bits(_outcome(shade_view, rays, depth), _outcome(shade_view_reference, rays, depth))

    @settings(max_examples=400, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        stages=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        layout=st.sampled_from(["C", "F"]),
    )
    def test_compose(self, data, seed, stages, layout):
        """Every combination of stages, on C- and Fortran-ordered points:
        the same bits or the same error, and the inputs left as they were."""
        points = data.draw(_grid_shapes().flatmap(lambda s: arrays(np.float64, s, elements=values)))
        points = np.asarray(points, order=layout)
        h, w = points.shape[:2]
        validity = data.draw(arrays(bool, (h, w)))
        depth = data.draw(arrays(np.float64, (h, w), elements=values)) if stages[0] else None
        t = data.draw(arrays(np.float64, 3, elements=st.one_of(st.sampled_from(FINITE_SPECIAL), st.floats(-5.0, 5.0))))
        pose = Pose(_quat(np.random.default_rng(seed)), t) if stages[1] else None
        scale = data.draw(st.sampled_from([0.5, 2.0, 1e200, 1e-200, 5e-324])) if stages[2] else None
        inputs = [x for x in (points, validity, depth) if x is not None]
        before = [x.tobytes() for x in inputs]
        got = _outcome(_compose, points, validity, depth, pose, scale)
        ref = _outcome(compose_reference, points, validity, depth, pose, scale)
        if isinstance(ref, type):
            assert got is ref
        else:
            assert got is not points
            _same_bits(got, ref)
        assert [x.tobytes() for x in inputs] == before

    @settings(max_examples=300, deadline=None)
    @given(
        h=st.one_of(st.integers(1, 40), st.sampled_from([97, 194, 388])),
        w=st.one_of(st.integers(1, 40), st.sampled_from([130, 259, 518])),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(h=40, w=2, seed=1)  # one 2x2 cell per row: numpy adds its four values in turn
    def test_pool_half(self, h, w, seed):
        """Against the reshape-sum form, at odd and even sizes, one-pixel rows
        and columns included, with values of both signs from 1e-12 to 1e12
        side by side."""
        rng = np.random.default_rng(seed)
        d = rng.choice([-1.0, 1.0], (h, w)) * rng.random((h, w)) * 10.0 ** rng.integers(-12, 13, (h, w))
        valid = rng.random((h, w)) < 0.7
        for got, ref in zip(_pool_half(d, valid), oracles._pool_half(d, valid)):
            _same_bits(got, ref)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_metric_upgrade_leaves_its_input(self, data):
        """The scale-only path of _compose copies before it writes."""
        points = data.draw(_grid_shapes().flatmap(lambda s: arrays(np.float64, s, elements=st.floats(-1e3, 1e3))))
        pm = PointMap(points, data.draw(arrays(bool, points.shape[:2])))
        before = pm.points.copy()
        scale = data.draw(st.floats(0.1, 10.0))
        _same_bits(metric_upgrade(pm, MetricScale(scale)).points, compose_reference(pm.points, pm.validity, scale=scale))
        _same_bits(pm.points, before)


def _perturbed(gt, rng) -> FactoredScene:
    """A prediction near the ground truth: noisy unit rays, depths and poses."""
    views = []
    for v in gt.views:
        d = v.rays.directions + rng.normal(0.0, 1e-3, v.rays.directions.shape)
        depth = np.where(v.depth.validity, v.depth.values * np.exp(rng.normal(0.0, 0.02, v.depth.values.shape)), 0.0)
        views.append(
            FactoredView(
                rays=RayMap(d / np.linalg.norm(d, axis=2, keepdims=True)),
                depth=DepthAlongRay(depth, v.depth.validity),
                pose=Pose(_quat(rng), v.pose.translation + 0.01) if views else v.pose,
                confidence=np.full(v.depth.values.shape, 1.5),
                mask_prob=np.full(v.depth.values.shape, 0.5),
            )
        )
    return FactoredScene(views=views, scale=MetricScale(1.1 * gt.scale.value))


class TestHotPathGuards:
    def test_no_strided_norm_of_three_vectors(self, small_scene, monkeypatch):
        """No dense 3-vector goes through np.linalg.norm on the hot paths:
        its strided reduce is about 4x slower than geometry._norm3."""
        norm = np.linalg.norm
        slow = []

        def spy(x, *args, **kwargs):
            a = np.asarray(x)
            if a.ndim >= 2 and a.shape[-1] == 3:
                slow.append(a.shape)
            return norm(x, *args, **kwargs)

        cfg = ModelConfig(depth=2, dim=32, heads=2, patch=8)
        weights = init_weights(cfg, 0)
        images = [v.image[:16, :24].astype(np.float64) for v in small_scene.views]
        tokens = alternating_attention(encode_inputs(images, InputConfig.images_only(len(images)), weights), weights)
        pred = small_scene.as_factored_scene()
        directions = small_scene.views[0].rays.directions
        monkeypatch.setattr(np.linalg, "norm", spy)
        total_loss(pred, small_scene, synthetic=True)
        evaluate_scene(pred, small_scene, align_points=True)
        for v in small_scene.views:
            shade_view(v.rays, v.depth)
        decode_heads(tokens, weights)
        RayMap(directions)
        assert slow == []

    @staticmethod
    def _peak(f) -> int:
        tracemalloc.start()
        try:
            f()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_total_loss_peak_memory(self):
        """The tracemalloc peak of total_loss on 4 views at 128x96, counted in
        dense (H, W, 3) float64 grids. The row-blocked chains and the world
        points composed in row bands peak near 23.5 grids; whole-array chains
        with whole world grids peaked near 31, and pooling local and world
        points first and keeping them alive together near 38."""
        _, gt = gen_scene(n_views=4, width=128, height=96, n_spheres=5, seed=11, plane=True, with_images=False)
        pred = _perturbed(gt, np.random.default_rng(0))
        assert self._peak(lambda: total_loss(pred, gt, synthetic=True)) < 26 * (128 * 96 * 3 * 8)

    def test_total_loss_peak_memory_in_scene_grids(self):
        """The same peak counted in dense (N, H, W, 3) float64 grids of the
        whole scene: near 3.4 with the points of each term composed from rays
        and depths in row bands right before it, near 6.0 with whole-scene
        local point grids held through the call."""
        _, gt = gen_scene(n_views=4, width=128, height=96, n_spheres=5, seed=11, plane=True, with_images=False)
        pred = _perturbed(gt, np.random.default_rng(0))
        assert self._peak(lambda: total_loss(pred, gt, synthetic=True)) <= 4.0 * (4 * 128 * 96 * 3 * 8)

    def test_evaluate_scene_peak_memory(self):
        """The same for evaluate_scene with point alignment: near 15.7 grids
        with the points composed in row bands, near 20.4 with whole grids."""
        _, gt = gen_scene(n_views=4, width=128, height=96, n_spheres=5, seed=11, plane=True, with_images=False)
        pred = _perturbed(gt, np.random.default_rng(0))
        assert self._peak(lambda: evaluate_scene(pred, gt, align_points=True)) < 17 * (128 * 96 * 3 * 8)

    def test_shade_view_peak_memory(self):
        """shade_view of one 256x192 view in row bands peaks near 3.9 of its
        dense grids, the float32 image included; whole-grid shading near 6.4."""
        _, gt = gen_scene(n_views=1, width=256, height=192, n_spheres=5, seed=11, plane=True, with_images=False)
        v = gt.views[0]
        assert self._peak(lambda: shade_view(v.rays, v.depth)) < 4.25 * (256 * 192 * 3 * 8)


def _thin_scene(shapes, seed) -> tuple[FactoredScene, SceneSample]:
    """(pred, gt) of random unit rays, depths and poses at the given (H, W)
    view shapes; the prediction is valid where the ground truth is."""
    rng = np.random.default_rng(seed)
    gt_views, pred_views = [], []
    for i, (h, w) in enumerate(shapes):
        depth = rng.uniform(0.5, 5.0, (h, w))
        valid = rng.random((h, w)) < 0.8
        valid[0, 0] = True
        pose = Pose.identity() if i == 0 else Pose(_quat(rng), rng.normal(size=3))
        gt_views.append(ViewSample(K, RayMap(_rays(rng, h, w)), DepthAlongRay(depth, valid), valid, pose))
        pred_views.append(
            FactoredView(
                rays=RayMap(_rays(rng, h, w)),
                depth=DepthAlongRay(depth * rng.uniform(0.8, 1.2, (h, w)), valid),
                pose=Pose(_quat(rng), rng.normal(size=3)),
                confidence=rng.uniform(1.0, 3.0, (h, w)),
                mask_prob=rng.random((h, w)),
            )
        )
    return FactoredScene(views=pred_views, scale=MetricScale(0.9)), SceneSample(views=gt_views, scale=MetricScale(1.3))


class TestPixelBlocks:
    """The dense chains of the losses, metrics, shading and PLY export run in
    blocks of geometry._PIXEL_BLOCK pooled rows, or row bands of about as many pixels;
    the block size never changes a bit of any result. Block sizes 1 and 7
    split every view into one-row bands, 100 into bands of several rows."""

    SCENES = {
        "four_view_40x30": lambda: (lambda gt: (_perturbed(gt, np.random.default_rng(1)), gt))(
            gen_scene(n_views=4, width=40, height=30, n_spheres=4, seed=5, plane=True, with_images=False)[1]
        ),
        "thin_views": lambda: _thin_scene([(23, 2), (2, 31), (17, 3), (3, 60)], seed=2),
        "row_and_column_views": lambda: _thin_scene([(19, 1), (1, 23), (1, 1), (40, 1), (1, 130)], seed=3),
    }
    BLOCKS = [1, 7, 100, geometry._PIXEL_BLOCK]

    @pytest.fixture(scope="class")
    def scenes(self):
        return {name: make() for name, make in self.SCENES.items()}

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 3000), width=st.integers(0, 300), budget=st.one_of(st.none(), st.integers(0, 5000)))
    def test_blocks_cover_the_range_in_order(self, n, width, budget):
        step = max(1, (geometry._PIXEL_BLOCK if budget is None else budget) // max(width, 1))
        blocks = geometry._blocks(n, width, budget)
        assert [s.start for s in blocks] == list(range(0, n, step))
        assert [s.stop for s in blocks] == [min(s.start + step, n) for s in blocks]

    def test_blocks_read_the_pixel_block_at_each_call(self, monkeypatch):
        # the budget that every dense chain above patches: a default bound
        # when geometry was imported would keep the old block size
        n = 2 * geometry._PIXEL_BLOCK + 1
        assert len(geometry._blocks(n)) == 3
        monkeypatch.setattr(geometry, "_PIXEL_BLOCK", 100)
        assert geometry._blocks(250) == [slice(0, 100), slice(100, 200), slice(200, 250)]
        assert geometry._blocks(250, 30) == [slice(a, min(a + 3, 250)) for a in range(0, 250, 3)]

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("name", list(SCENES))
    def test_total_loss(self, scenes, monkeypatch, name, block):
        pred, gt = scenes[name]
        monkeypatch.setattr(geometry, "_PIXEL_BLOCK", block)
        for synthetic in (False, True):
            ref = _outcome(total_loss_reference, pred, gt, synthetic)
            # the 2x2 normal loss rejects one-row views; nothing else may raise
            assert not isinstance(ref, type) or (synthetic and name == "row_and_column_views")
            _assert_same(_outcome(total_loss, pred, gt, synthetic), ref)

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("name", list(SCENES))
    def test_evaluate_scene(self, scenes, monkeypatch, name, block):
        pred, gt = scenes[name]
        monkeypatch.setattr(geometry, "_PIXEL_BLOCK", block)
        for align in (False, True):
            ref = evaluate_scene_reference(pred, gt, align)
            _assert_same(evaluate_scene(pred, gt, align), ref)
        for v, g in zip(pred.views, gt.views):
            _same_bits(ray_angular_error(v.rays, g.rays), ray_angular_error_reference(v.rays, g.rays))

    @pytest.fixture(scope="class")
    def scene_dirs(self, scenes, tmp_path_factory):
        root = tmp_path_factory.mktemp("pixel-blocks")
        for name, (pred, gt) in scenes.items():
            write_factored(root / name / "pred", pred)
            write_scene(root / name / "gt", gt)
        return root

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("name", list(SCENES))
    def test_export_ply(self, scene_dirs, tmp_path, monkeypatch, name, block):
        """export-ply composes, shades and gathers in row bands: the bytes of
        the whole-grid export, for a prediction and a ground-truth directory."""
        monkeypatch.setattr(geometry, "_PIXEL_BLOCK", block)
        for kind in ("pred", "gt"):
            d = scene_dirs / name / kind
            assert main(["export-ply", "--scene", str(d), "--out", str(tmp_path / "x.ply")]) == 0
            export_ply_reference(read_factored(d), tmp_path / "ref.ply")
            assert (tmp_path / "x.ply").read_bytes() == (tmp_path / "ref.ply").read_bytes()

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("name", list(SCENES))
    def test_grid_chains(self, scenes, monkeypatch, name, block):
        """loss_normal, loss_rays, shade_view and compose_scene_points."""
        pred, gt = scenes[name]
        monkeypatch.setattr(geometry, "_PIXEL_BLOCK", block)
        pl = [local_pointmap(v.rays, v.depth) for v in pred.views]
        gl = [local_pointmap(v.rays, v.depth) for v in gt.views]
        if name != "row_and_column_views":
            _same_bits(loss_normal(pl, gl), loss_normal_reference(pl, gl))
        rays = [v.rays for v in pred.views], [g.rays for g in gt.views]
        _same_bits(loss_rays(*rays), loss_rays_reference(*rays, DEFAULT_KERNEL))
        for v in [*pred.views, *gt.views]:
            _same_bits(shade_view(v.rays, v.depth), shade_view_reference(v.rays, v.depth))
        for v, pm in zip(pred.views, compose_scene_points(pred)):
            ref = compose_reference(v.rays.directions, v.depth.validity, v.depth.values, v.pose, pred.scale.value)
            _same_bits(pm.points, ref)
