"""total_loss, evaluate_scene and the loss terms against the per-view PointMap
pipelines they replaced (tests/oracles.py): the same floats bit for bit, or the
same error."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapt.errors import InvalidValueError
from mapt.factorization import NormScale, norm_scale
from mapt.geometry import (
    DepthAlongRay,
    FactoredScene,
    FactoredView,
    Intrinsics,
    MetricScale,
    PointMap,
    Pose,
    RayMap,
    local_pointmap,
    world_pointmap,
)
from mapt.losses import (
    DEFAULT_ALPHA_CONF,
    DEFAULT_EXCLUDE_TOP,
    DEFAULT_KERNEL,
    loss_depth,
    loss_gradient_matching,
    loss_local_pointmap,
    loss_mask,
    loss_normal,
    loss_pointmap_conf,
    loss_rays,
    total_loss,
)
from mapt.metrics import evaluate_scene
from mapt.synth import SceneSample, ViewSample

import oracles
from oracles import evaluate_scene_reference, total_loss_reference

K = Intrinsics(1.0, 1.0, 0.0, 0.0)  # read by neither function


def _rays(rng, h, w) -> np.ndarray:
    d = np.concatenate([rng.uniform(-0.6, 0.6, (h, w, 2)), np.ones((h, w, 1))], axis=2)
    return d / np.linalg.norm(d, axis=2, keepdims=True)


def _validity(rng, mode, shape) -> np.ndarray:
    return {"all": np.ones(shape, bool), "none": np.zeros(shape, bool), "some": rng.random(shape) < 0.7}[mode]


def _quat(rng) -> np.ndarray:
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


@st.composite
def scene_pairs(draw):
    """(pred, gt): 1-4 views of 2-6 x 2-6 pixels each, or in one scene out of
    four 1-6 x 1-6. Ground-truth validity per view is full, partial or empty;
    predicted validity is the ground truth's, full or partial; confidence and
    mask heads may be missing. In one scene out of eight one valid
    ground-truth depth is 1e308 and the ground-truth scale 10."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    side = st.integers(1 if draw(st.integers(0, 3)) == 3 else 2, 6)
    overflow = draw(st.integers(0, 7)) == 7
    with_conf, with_mask = draw(st.booleans()), draw(st.booleans())
    gt_views, pred_views = [], []
    for i in range(n):
        h, w = draw(side), draw(side)
        valid = _validity(rng, draw(st.sampled_from(["all", "some", "none"])), (h, w))
        depth = rng.uniform(0.5, 5.0, (h, w))
        if overflow and i == n - 1:
            valid[0, 0] = True
            depth[0, 0] = 1e308
        rays = RayMap(_rays(rng, h, w))
        pose = Pose.identity() if i == 0 else Pose(_quat(rng), rng.normal(size=3))
        gt_views.append(ViewSample(K, rays, DepthAlongRay(depth, valid), rng.random((h, w)) < 0.8, pose))
        mode = draw(st.sampled_from(["gt", "all", "some"]))
        pred_valid = valid if mode == "gt" else _validity(rng, mode, (h, w))
        pred_views.append(
            FactoredView(
                rays=RayMap(_rays(rng, h, w)),
                depth=DepthAlongRay(depth * rng.uniform(0.8, 1.2, (h, w)), pred_valid),
                pose=Pose(_quat(rng), rng.normal(size=3)),
                confidence=rng.uniform(1.0, 3.0, (h, w)) if with_conf else None,
                mask_prob=rng.random((h, w)) if with_mask else None,
            )
        )
    gt = SceneSample(views=gt_views, scale=MetricScale(10.0 if overflow else rng.uniform(0.5, 2.0)))
    pred = FactoredScene(views=pred_views, scale=MetricScale(rng.uniform(0.5, 2.0)))
    return pred, gt


def _outcome(f, *args, **kwargs):
    with np.errstate(all="ignore"):
        try:
            return f(*args, **kwargs)
        except Exception as e:  # compared by class with the reference's
            return type(e)


def _assert_same(got, ref):
    if isinstance(ref, type) or isinstance(got, type):
        assert got is ref
        return
    if not isinstance(ref, dict):
        np.testing.assert_array_equal(got, ref)
        return
    got = got.as_dict()
    assert list(got) == list(ref)
    np.testing.assert_array_equal(np.array(list(got.values())), np.array(list(ref.values())))


class TestPooledPaths:
    @settings(max_examples=300, deadline=None)
    @given(pair=scene_pairs(), synthetic=st.booleans())
    def test_total_loss_matches_reference(self, pair, synthetic):
        pred, gt = pair
        _assert_same(_outcome(total_loss, pred, gt, synthetic), _outcome(total_loss_reference, pred, gt, synthetic))

    @settings(max_examples=300, deadline=None)
    @given(pair=scene_pairs(), align=st.booleans())
    def test_evaluate_scene_matches_reference(self, pair, align):
        pred, gt = pair
        _assert_same(_outcome(evaluate_scene, pred, gt, align), _outcome(evaluate_scene_reference, pred, gt, align))

    @settings(max_examples=200, deadline=None)
    @given(pair=scene_pairs(), low_conf=st.booleans())
    def test_loss_terms_match_reference(self, pair, low_conf):
        """Each public loss term on its own, fed the per-view containers of a
        scene pair; with ``low_conf`` one confidence of view 0 is below 1."""
        pred, gt = pair
        pl = [local_pointmap(v.rays, v.depth) for v in pred.views]
        gl = [local_pointmap(v.rays, v.depth) for v in gt.views]
        pw = [world_pointmap(x, v.pose) for x, v in zip(pl, pred.views)]
        gw = [world_pointmap(x, v.pose) for x, v in zip(gl, gt.views)]
        conf = [v.confidence if v.confidence is not None else np.full(v.depth.values.shape, 1.5) for v in pred.views]
        if low_conf:
            conf[0] = np.where(np.arange(conf[0].size).reshape(conf[0].shape) == 0, 0.9, conf[0])
        prob = [v.mask_prob if v.mask_prob is not None else np.full(v.depth.values.shape, 0.5) for v in pred.views]
        z_pred, z_gt = NormScale(1.3), NormScale(0.7)
        gt_valid = [x.validity for x in gl]
        depths = [v.depth for v in pred.views], [v.depth for v in gt.views]
        # each call, and the fixed weights that only the oracle takes as arguments
        calls = [
            (norm_scale, (gw,), ()),
            (loss_rays, ([v.rays for v in pred.views], [v.rays for v in gt.views], DEFAULT_KERNEL), ()),
            (loss_depth, (*depths, z_pred, z_gt, DEFAULT_KERNEL), (DEFAULT_EXCLUDE_TOP,)),
            (loss_local_pointmap, (pl, gl, z_pred, z_gt, DEFAULT_KERNEL), (DEFAULT_EXCLUDE_TOP,)),
            (loss_pointmap_conf, (pw, gw, conf, z_pred, z_gt, DEFAULT_KERNEL), (DEFAULT_ALPHA_CONF,)),
            (loss_normal, (pl, gl), ()),
            (loss_gradient_matching, ([x.points[:, :, 2] for x in pl], [x.points[:, :, 2] for x in gl], gt_valid), ()),
            (loss_mask, (prob, [v.mask.astype(np.float64) for v in gt.views]), ()),
        ]
        for f, args, fixed in calls:
            got, ref = _outcome(f, *args), _outcome(getattr(oracles, f.__name__ + "_reference"), *args, *fixed)
            if isinstance(ref, NormScale) and isinstance(got, NormScale):
                got, ref = got.value, ref.value
            _assert_same(got, ref)

    def test_real_scene_matches_reference(self, small_scene):
        pred = small_scene.as_factored_scene()
        rng = np.random.default_rng(0)
        for i, v in enumerate(pred.views):
            pred.views[i] = FactoredView(
                rays=v.rays,
                depth=DepthAlongRay(v.depth.values * rng.uniform(0.9, 1.1, v.depth.values.shape), v.depth.validity),
                pose=Pose(v.pose.rotation, v.pose.translation + 0.01),
                confidence=v.confidence + 1.0,
                mask_prob=np.clip(v.mask_prob, 0.2, 0.8),
            )
        _assert_same(total_loss(pred, small_scene, synthetic=True), total_loss_reference(pred, small_scene, True))
        _assert_same(evaluate_scene(pred, small_scene, True), evaluate_scene_reference(pred, small_scene, True))

    def test_single_row_and_column_views_match_reference(self):
        """6x1 and 1x6 views, where composing world points from pooled (N, 3)
        rows in place of the (H, W, 3) grid changes the last bit: numpy's
        (H, 1, 3) @ (3, 3) takes another route than (H, 3) @ (3, 3). The
        reports round most such changes away; 3 of these 40 scenes keep one."""
        for seed in range(40):
            rng = np.random.default_rng(seed)
            gt_views, pred_views = [], []
            for i, (h, w) in enumerate([(6, 1), (1, 6), (6, 1), (6, 1)]):
                depth = rng.uniform(0.5, 5.0, (h, w))
                valid = np.ones((h, w), bool)
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
            gt = SceneSample(views=gt_views, scale=MetricScale(1.3))
            pred = FactoredScene(views=pred_views, scale=MetricScale(0.9))
            _assert_same(total_loss(pred, gt), total_loss_reference(pred, gt))
            for align in (False, True):
                _assert_same(evaluate_scene(pred, gt, align), evaluate_scene_reference(pred, gt, align))

    def test_overflowing_points_raise(self, small_scene):
        """Finite inputs whose composed metric points overflow are rejected."""
        pred = small_scene.as_factored_scene()
        pred.scale = MetricScale(10.0)
        v = pred.views[1]
        depth = np.where(v.depth.validity, 1e308, 0.0)
        pred.views[1] = FactoredView(rays=v.rays, depth=DepthAlongRay(depth, v.depth.validity), pose=v.pose)
        for f in (evaluate_scene, evaluate_scene_reference):
            with np.errstate(all="ignore"), pytest.raises(InvalidValueError, match="valid points must be finite"):
                f(pred, small_scene)

    def test_synthetic_partial_prediction_raises(self, small_scene):
        """Predicted-invalid pixels have z-depth 0, which gradient matching
        rejects where the ground truth is valid."""
        pred = small_scene.as_factored_scene()
        v = pred.views[0]
        partial = v.depth.validity.copy()
        partial[tuple(np.argwhere(partial)[0])] = False
        pred.views[0] = FactoredView(rays=v.rays, depth=DepthAlongRay(v.depth.values, partial), pose=v.pose)
        for f in (total_loss, total_loss_reference):
            with pytest.raises(InvalidValueError, match="gradient matching"):
                f(pred, small_scene, synthetic=True)

    def test_no_intermediate_containers(self, small_scene, monkeypatch):
        """Composition and pooling build no PointMap, FactoredView or
        FactoredScene from the already-validated inputs."""
        pred = small_scene.as_factored_scene()
        built = []

        def counted(init):
            def wrapper(self, *args, **kwargs):
                built.append(type(self).__name__)
                init(self, *args, **kwargs)

            return wrapper

        for cls in (PointMap, FactoredView, FactoredScene):
            monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
        total_loss(pred, small_scene, synthetic=True)
        evaluate_scene(pred, small_scene, align_points=True)
        assert built == []
