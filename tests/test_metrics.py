import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapt.errors import DegenerateError, EmptyDepthError, InvalidValueError, MaptError, ShapeError
from mapt.geometry import (
    DepthAlongRay,
    FactoredScene,
    FactoredView,
    MetricScale,
    Pose,
    local_pointmap,
    pose_compose,
    quat_to_rot,
    world_pointmap,
)
from mapt.metrics import (
    abs_rel,
    ate_rmse,
    auc_at_threshold,
    evaluate_scene,
    inlier_ratio_tau,
    median_align,
    pose_angular_errors,
    scale_rel,
    umeyama,
)
from mapt.losses import total_loss
from mapt.synth import SceneSample, ViewSample, gen_scene
from mapt.viewgraph import covisibility

from conftest import random_pose
from oracles import pose_angular_errors_reference, rotation_angle_deg, umeyama_reference


def _ones(shape):
    return np.ones(shape, dtype=bool)


class TestAbsRel:
    def test_exact(self):
        g = np.full((3, 3), 2.0)
        assert abs_rel(g, g, _ones((3, 3))) == 0.0

    def test_constant_ratio(self):
        g = np.random.default_rng(0).uniform(1, 5, (4, 4))
        np.testing.assert_allclose(abs_rel(1.1 * g, g, _ones((4, 4))), 0.1, rtol=1e-12)

    def test_half_and_half(self):
        g = np.full((1, 4), 2.0)
        p = np.array([[2.0, 2.0, 4.0, 4.0]])
        assert abs_rel(p, g, _ones((1, 4))) == 0.5

    def test_no_valid_raises(self):
        with pytest.raises(EmptyDepthError):
            abs_rel(np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2), dtype=bool))

    @pytest.mark.parametrize("side, bad", [("gt", np.nan), ("gt", np.inf), ("gt", 0.0), ("pred", np.nan)])
    def test_rejects_bad_values(self, side, bad):
        ok, bent = np.full((1, 2), 2.0), np.array([[2.0, bad]])
        pred, gt = (bent, ok) if side == "pred" else (ok, bent)
        with np.errstate(all="ignore"), pytest.raises(InvalidValueError):
            abs_rel(pred, gt, _ones((1, 2)))

    def test_infinite_prediction_is_infinite_error(self):
        assert abs_rel(np.array([[2.0, np.inf]]), np.full((1, 2), 2.0), _ones((1, 2))) == np.inf


class TestInlierRatioTau:
    def test_boundaries(self):
        g = np.full((2, 2), 3.0)
        v = _ones((2, 2))
        assert inlier_ratio_tau(g, g, v) == 1.0
        assert inlier_ratio_tau(1.02 * g, g, v) == 1.0
        assert inlier_ratio_tau(1.04 * g, g, v) == 0.0
        assert inlier_ratio_tau(g / 1.02, g, v) == 1.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        g = rng.uniform(1, 5, (6, 6))
        p = g * rng.uniform(0.9, 1.1, (6, 6))
        v = _ones((6, 6))
        assert inlier_ratio_tau(p, g, v) == inlier_ratio_tau(g, p, v)

    @pytest.mark.parametrize("side", ["pred", "gt"])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf, 0.0])
    def test_rejects_bad_values(self, side, bad):
        ok, bent = np.full((1, 2), 2.0), np.array([[2.0, bad]])
        pred, gt = (bent, ok) if side == "pred" else (ok, bent)
        with pytest.raises(InvalidValueError):
            inlier_ratio_tau(pred, gt, _ones((1, 2)))

    def test_infinite_value_is_outlier(self):
        g = np.full((1, 2), 2.0)
        assert inlier_ratio_tau(np.array([[2.0, np.inf]]), g, _ones((1, 2))) == 0.5
        assert inlier_ratio_tau(g, np.array([[2.0, np.inf]]), _ones((1, 2))) == 0.5


class TestMedianAlign:
    def test_inverse_of_global_scale(self):
        rng = np.random.default_rng(2)
        g = rng.uniform(1, 5, (5, 5))
        v = _ones((5, 5))
        s, aligned = median_align(4.0 * g, g, v)
        np.testing.assert_allclose(s, 0.25, rtol=1e-12)
        np.testing.assert_allclose(aligned, g, rtol=1e-12)

    def test_abs_rel_invariant_after_align(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(1, 5, (5, 5))
        p = g * rng.uniform(0.8, 1.2, (5, 5))
        v = _ones((5, 5))
        base = abs_rel(median_align(p, g, v)[1], g, v)
        for k in (1e-3, 17.0):
            got = abs_rel(median_align(k * p, g, v)[1], g, v)
            np.testing.assert_allclose(got, base, rtol=1e-9)

    def test_median_of_ratios(self):
        g = np.array([[1.0, 1.0, 1.0]])
        p = np.array([[2.0, 1.0, 0.5]])  # ratios 0.5, 1, 2
        s, _ = median_align(p, g, _ones((1, 3)))
        assert s == 1.0

    @pytest.mark.parametrize("side", ["pred", "gt"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_rejects_bad_values(self, side, bad):
        ok, bent = np.full((1, 3), 2.0), np.array([[2.0, bad, 2.0]])
        pred, gt = (bent, ok) if side == "pred" else (ok, bent)
        with pytest.raises(InvalidValueError):
            median_align(pred, gt, _ones((1, 3)))


class TestUmeyama:
    def test_identity(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(10, 3))
        t = umeyama(pts, pts)
        assert abs(t.scale - 1.0) < 1e-12
        np.testing.assert_allclose(t.rotation, [1, 0, 0, 0], atol=1e-9)
        np.testing.assert_allclose(t.translation, 0.0, atol=1e-12)

    def test_exact_recovery(self):
        rng = np.random.default_rng(5)
        src = rng.normal(size=(12, 3))
        q = np.array([np.cos(np.pi / 4), 0.0, 0.0, np.sin(np.pi / 4)])
        rot = quat_to_rot(q)
        dst = 2.0 * src @ rot.T + np.array([1.0, 2.0, 3.0])
        t = umeyama(src, dst)
        assert abs(t.scale - 2.0) < 1e-9
        np.testing.assert_allclose(t.rotation, q, atol=1e-9)
        np.testing.assert_allclose(t.translation, [1.0, 2.0, 3.0], atol=1e-9)
        np.testing.assert_allclose(t.apply(src), dst, atol=1e-9)

    def test_matches_reference(self):
        rng = np.random.default_rng(6)
        src = rng.normal(size=(30, 3))
        dst = rng.normal(size=(30, 3))
        t = umeyama(src, dst)
        s_ref, r_ref, t_ref = umeyama_reference(src, dst)
        assert abs(t.scale - s_ref) < 1e-12
        np.testing.assert_allclose(quat_to_rot(t.rotation), r_ref, atol=1e-12)
        np.testing.assert_allclose(t.translation, t_ref, atol=1e-12)

    def test_collinear_degenerate(self):
        src = np.stack([np.arange(5.0), np.zeros(5), np.zeros(5)], axis=1)
        with pytest.raises(DegenerateError):
            umeyama(src, src)

    @pytest.mark.parametrize("shape", [(4, 2), (3, 4), (12,)])
    def test_rejects_points_that_are_not_n_by_3(self, shape):
        pts = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        with pytest.raises(ShapeError, match=r"must be \(N, 3\)"):
            umeyama(pts, pts)

    def test_too_few_points(self):
        with pytest.raises(DegenerateError):
            umeyama(np.zeros((2, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("side", ["src", "dst"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_point(self, side, bad):
        pts = np.random.default_rng(9).normal(size=(6, 3))
        other = pts.copy()
        other[2, 1] = bad
        args = (other, pts) if side == "src" else (pts, other)
        with pytest.raises(InvalidValueError, match="finite points"):
            umeyama(*args)


class TestAteRmse:
    def _traj(self, rng, n=5):
        return [random_pose(rng, t_scale=3.0) for _ in range(n)]

    def test_zero_at_truth(self):
        rng = np.random.default_rng(8)
        traj = self._traj(rng)
        assert ate_rmse(traj, traj) < 1e-12

    def test_similarity_invariance(self):
        rng = np.random.default_rng(9)
        traj = self._traj(rng, 6)
        g = random_pose(rng)
        s = 2.7
        moved = [
            Pose(pose_compose(g, p).rotation, s * (quat_to_rot(g.rotation) @ p.translation) + g.translation)
            for p in traj
        ]
        assert ate_rmse(moved, traj) < 1e-9

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(10)
        gt = self._traj(rng, 4)
        pred = [Pose(p.rotation, p.translation + rng.normal(scale=0.3, size=3)) for p in gt]
        got = ate_rmse(pred, gt)
        pc = np.stack([p.translation for p in pred])
        gc = np.stack([p.translation for p in gt])
        s_ref, r_ref, t_ref = umeyama_reference(pc, gc)
        res = gc - (s_ref * pc @ r_ref.T + t_ref)
        ref = np.sqrt(np.mean(np.sum(res**2, axis=1)))
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_length_mismatch(self):
        rng = np.random.default_rng(11)
        with pytest.raises(Exception):
            ate_rmse(self._traj(rng, 3), self._traj(rng, 4))


class TestPoseAngularErrors:
    def test_zero_at_truth(self):
        rng = np.random.default_rng(12)
        poses = [random_pose(rng) for _ in range(4)]
        rra, rta = pose_angular_errors(poses, poses)
        assert np.max(rra) < 1e-5
        assert np.nanmax(rta) < 1e-5

    def test_global_premultiply_invariance(self):
        rng = np.random.default_rng(13)
        gt = [random_pose(rng) for _ in range(4)]
        pred = [Pose(p.rotation, p.translation + rng.normal(scale=0.1, size=3)) for p in gt]
        g = random_pose(rng)
        moved = [pose_compose(g, p) for p in pred]
        a = pose_angular_errors(pred, gt)
        b = pose_angular_errors(moved, gt)
        # arccos conditioning near zero angle bounds agreement at ~1e-6 deg
        np.testing.assert_allclose(a[0], b[0], atol=1e-5)
        np.testing.assert_allclose(a[1], b[1], atol=1e-5)

    def test_ten_degree_offset(self):
        rng = np.random.default_rng(14)
        gt = [random_pose(rng) for _ in range(3)]
        ang = np.radians(10.0)
        dq = np.array([np.cos(ang / 2), 0.0, np.sin(ang / 2), 0.0])
        pred = list(gt)
        pred[2] = pose_compose(gt[2], Pose(dq, np.zeros(3)))
        rra, _ = pose_angular_errors(pred, gt)
        # ordered pairs of 3 views: (0,1),(0,2),(1,0),(1,2),(2,0),(2,1)
        expect = np.array([0.0, 10.0, 0.0, 10.0, 10.0, 10.0])
        np.testing.assert_allclose(rra, expect, atol=1e-6)

    def test_near_zero_baselines_skipped(self):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        gt = [Pose(q, np.zeros(3)), Pose(q, np.zeros(3)), Pose(q, np.array([1.0, 0, 0]))]
        rra, rta = pose_angular_errors(gt, gt)
        assert np.isnan(rta[0])  # pair (0,1): zero baseline
        assert not np.isnan(rta[1])  # pair (0,2)

    def test_all_degenerate_raises(self):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        gt = [Pose(q, np.zeros(3)), Pose(q, np.zeros(3))]
        with pytest.raises(DegenerateError):
            pose_angular_errors(gt, gt)

    @staticmethod
    @st.composite
    def _poses(draw, n):
        """n poses with random unit quaternions; translations on a 0.01 grid,
        each view k taking the camera centre of a view <= k, so centres repeat
        (zero baselines) and distinct centres are at least 0.01 apart."""
        quat = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).map(np.array)
        quat = quat.filter(lambda q: np.linalg.norm(q) > 0.1).map(lambda q: q / np.linalg.norm(q))
        centre = st.lists(st.integers(-1000, 1000), min_size=3, max_size=3).map(lambda t: np.array(t) / 100.0)
        centres = [draw(centre) for _ in range(n)]
        same = [draw(st.integers(0, k)) for k in range(n)]
        return [Pose(draw(quat), centres[same[k]]) for k in range(n)]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(2, 8), pred_is_gt=st.booleans())
    def test_matches_per_pair_reference(self, data, n, pred_is_gt):
        gt = data.draw(self._poses(n))
        pred = gt if pred_is_gt else data.draw(self._poses(n))
        outcomes = []
        for f in (pose_angular_errors, pose_angular_errors_reference):
            try:
                outcomes.append(f(pred, gt))
            except MaptError as e:
                outcomes.append(type(e))
        got, ref = outcomes
        if isinstance(ref, type) or isinstance(got, type):
            assert got is ref
            return
        assert got[0].shape == got[1].shape == (n * (n - 1),)
        np.testing.assert_array_equal(np.isnan(got[1]), np.isnan(ref[1]))
        # arccos conditioning near 0 deg bounds the agreement, as above
        np.testing.assert_allclose(got[0], ref[0], rtol=0, atol=1e-5)
        np.testing.assert_allclose(got[1], ref[1], rtol=0, atol=1e-5)


class TestAuc:
    def test_all_zero(self):
        assert auc_at_threshold([0.0, 0.0, 0.0]) == 1.0

    def test_all_beyond(self):
        assert auc_at_threshold([6.0, 8.0]) == 0.0

    def test_single_half(self):
        assert auc_at_threshold([2.5]) == 0.5

    def test_monotone_under_error_increase(self):
        rng = np.random.default_rng(15)
        e = rng.uniform(0, 6, size=20)
        base = auc_at_threshold(e)
        for i in range(20):
            worse = e.copy()
            worse[i] += rng.uniform(0.1, 2.0)
            assert auc_at_threshold(worse) <= base + 1e-15

    def test_empty_raises(self):
        with pytest.raises(InvalidValueError):
            auc_at_threshold([])

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, -1.0])
    def test_rejects_bad_errors(self, bad):
        with pytest.raises(InvalidValueError):
            auc_at_threshold([bad, 1.0])

    def test_infinite_error_counts_as_miss(self):
        assert auc_at_threshold([np.inf, 0.0]) == 0.5


class TestScaleRel:
    def test_cases(self):
        assert scale_rel(MetricScale(2.0), MetricScale(2.0)) == 0.0
        assert scale_rel(MetricScale(3.0), MetricScale(2.0)) == 0.5
        assert scale_rel(MetricScale(1.0), MetricScale(2.0)) == 0.5


class TestEvaluateScene:
    def test_perfect_prediction(self, small_scene):
        rep = evaluate_scene(small_scene.as_factored_scene(), small_scene)
        assert rep.depth_rel == 0.0
        assert rep.depth_tau == 1.0
        assert rep.points_rel == 0.0
        assert rep.points_tau == 1.0
        assert rep.ate_rmse < 1e-9
        assert rep.pose_auc5 > 1.0 - 1e-6
        assert rep.ray_err_deg < 1e-5
        assert rep.scale_rel == 0.0

    @pytest.mark.parametrize(
        "n, undefined", [(1, {"ate_rmse", "pose_auc5", "pose_rra_deg", "pose_rta_deg"}), (2, {"ate_rmse"}), (3, set())]
    )
    def test_metrics_the_view_count_leaves_undefined_are_none(self, small_scene, n, undefined):
        # ate_rmse needs 3 poses and the pose metrics a pair of views; every other field is a finite float
        gt = SceneSample(small_scene.views[:n], small_scene.scale)
        rep = evaluate_scene(gt.as_factored_scene(), gt).as_dict()
        assert {k for k, v in rep.items() if v is None} == undefined
        assert all(type(v) is float and np.isfinite(v) for k, v in rep.items() if k not in undefined)

    def test_halved_scale_with_alignment(self, small_scene):
        pred = small_scene.as_factored_scene()
        pred.scale = MetricScale(small_scene.scale.value / 2.0)
        rep = evaluate_scene(pred, small_scene, align_points=True)
        assert rep.points_rel < 1e-12
        assert rep.points_tau == 1.0
        assert abs(rep.scale_rel - 0.5) < 1e-12
        # depth metrics are metric: the halved scale shows up there
        assert abs(rep.depth_rel - 0.5) < 1e-12

    def test_matches_reference_script(self, small_scene):
        rng = np.random.default_rng(16)
        gt = small_scene
        views = []
        for v in gt.views:
            depth = DepthAlongRay(v.depth.values * (1.0 + 0.04 * np.sin(3.0 * v.depth.values)), v.depth.validity)
            dq = rng.normal(scale=0.01, size=4) + np.array([1.0, 0, 0, 0])
            dq /= np.linalg.norm(dq)
            pose = pose_compose(v.pose, Pose(dq, rng.normal(scale=0.05, size=3)))
            views.append(FactoredView(rays=v.rays, depth=depth, pose=pose))
        pred = FactoredScene(views=views, scale=MetricScale(1.13))
        rep = evaluate_scene(pred, gt, align_points=False)

        # straight-line reference, recomputed from raw arrays
        dp, dg, pw, gw = [], [], [], []
        for pv, gv in zip(pred.views, gt.views):
            m = gv.depth.validity
            dp.append(pred.scale.value * pv.depth.values[m])
            dg.append(gt.scale.value * gv.depth.values[m])
            lp = pv.rays.directions * pv.depth.values[:, :, None]
            wp = lp @ quat_to_rot(pv.pose.rotation).T + pv.pose.translation
            pw.append(pred.scale.value * wp[m])
            lg = gv.rays.directions * gv.depth.values[:, :, None]
            wg = lg @ quat_to_rot(gv.pose.rotation).T + gv.pose.translation
            gw.append(gt.scale.value * wg[m])
        dp, dg = np.concatenate(dp), np.concatenate(dg)
        pw, gw = np.concatenate(pw), np.concatenate(gw)
        assert abs(rep.depth_rel - np.mean(np.abs(dp - dg) / dg)) < 1e-12
        assert abs(rep.depth_tau - np.mean(np.maximum(dp / dg, dg / dp) < 1.03)) < 1e-12
        dist = np.linalg.norm(pw - gw, axis=1) / np.linalg.norm(gw, axis=1)
        assert abs(rep.points_rel - np.mean(dist)) < 1e-12
        assert abs(rep.points_tau - np.mean(dist < 0.03)) < 1e-12

        pc = np.stack([v.pose.translation for v in pred.views])
        gc = np.stack([v.pose.translation for v in gt.views])
        s_ref, r_ref, t_ref = umeyama_reference(pc, gc)
        res = gc - (s_ref * pc @ r_ref.T + t_ref)
        assert abs(rep.ate_rmse - np.sqrt(np.mean(np.sum(res**2, axis=1)))) < 1e-9

        rra, rta = [], []
        n = len(gt.views)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                rp_r = quat_to_rot(pred.views[i].pose.rotation).T @ quat_to_rot(pred.views[j].pose.rotation)
                rg_r = quat_to_rot(gt.views[i].pose.rotation).T @ quat_to_rot(gt.views[j].pose.rotation)
                rra.append(rotation_angle_deg(rg_r.T @ rp_r))
                tp = quat_to_rot(pred.views[i].pose.rotation).T @ (
                    pred.views[j].pose.translation - pred.views[i].pose.translation
                )
                tg = quat_to_rot(gt.views[i].pose.rotation).T @ (
                    gt.views[j].pose.translation - gt.views[i].pose.translation
                )
                cos = np.clip(tp @ tg / (np.linalg.norm(tp) * np.linalg.norm(tg)), -1, 1)
                rta.append(np.degrees(np.arccos(cos)))
        rra, rta = np.array(rra), np.array(rta)
        assert abs(rep.pose_rra_deg - np.mean(rra)) < 1e-6
        assert abs(rep.pose_rta_deg - np.mean(rta)) < 1e-6
        comb = np.maximum(rra, rta)
        auc_ref = np.mean(np.clip(5.0 - comb, 0.0, None)) / 5.0
        assert abs(rep.pose_auc5 - auc_ref) < 1e-6

        errs = []
        for pv, gv in zip(pred.views, gt.views):
            num = np.sum(pv.rays.directions * gv.rays.directions, axis=2)
            den = np.linalg.norm(pv.rays.directions, axis=2) * np.linalg.norm(gv.rays.directions, axis=2)
            errs.append(np.degrees(np.mean(np.arccos(np.clip(num / den, -1, 1)))))
        assert abs(rep.ray_err_deg - np.mean(errs)) < 1e-9
        assert abs(rep.scale_rel - abs(1.13 - gt.scale.value) / gt.scale.value) < 1e-12

    @pytest.mark.parametrize("align_points", [False, True])
    def test_peak_memory(self, align_points):
        """The tracemalloc peak of evaluate_scene in float64s per pooled pixel:
        near 9.5 with the pooled depths scaled in place and gone before the
        points are composed, near 13.5 when the pooled and the metric depths
        (four arrays) were held through the point metrics."""
        _, gt = gen_scene(n_views=4, width=160, height=120, n_spheres=5, seed=3, plane=True)
        pred = gt.as_factored_scene()
        pixels = sum(int(g.depth.validity.sum()) for g in gt.views)
        tracemalloc.start()
        try:
            evaluate_scene(pred, gt, align_points=align_points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11 * 8 * pixels


class TestSceneContainers:
    """FactoredScene and SceneSample check the types of their views and scale."""

    @pytest.mark.parametrize("container", ["factored", "sample"])
    @pytest.mark.parametrize("fault", ["float scale", "non-view", "ground-truth view in a prediction", "view tuple"])
    def test_rejects_wrong_types(self, small_scene, container, fault):
        pred = small_scene.as_factored_scene()
        cls, views = (FactoredScene, pred.views) if container == "factored" else (SceneSample, small_scene.views)
        scale = small_scene.scale
        if fault == "float scale":
            scale = 1.0
        elif fault == "non-view":
            views = [*views[:-1], object()]
        elif fault == "ground-truth view in a prediction":
            views = small_scene.views if cls is FactoredScene else pred.views
        else:
            views = tuple(views)
        with pytest.raises(InvalidValueError, match="scene (views|scale) must be"):
            cls(views, scale)

    @pytest.mark.parametrize(
        "build",
        [
            # each escaped as an AttributeError inside the loss or the metrics
            lambda s: (FactoredScene([*s.as_factored_scene().views[:3], "view"], MetricScale(1.0)), s),
            lambda s: (FactoredScene(s.as_factored_scene().views, 1.0), s),
            lambda s: (s.as_factored_scene(), SceneSample(s.views, 2.0)),
        ],
    )
    def test_escapes_of_the_loss_and_the_metrics(self, small_scene, build):
        with pytest.raises(InvalidValueError):
            pred, gt = build(small_scene)
            total_loss(pred, gt)
            evaluate_scene(pred, gt)

    @pytest.mark.parametrize("bad", [None, 1, "x", "swapped"])
    @pytest.mark.parametrize("fn", [total_loss, evaluate_scene, covisibility])
    def test_scene_level_functions_reject_other_types(self, small_scene, fn, bad):
        # each raised AttributeError: '...' object has no attribute 'views';
        # a SceneSample as the prediction is a wrong type too
        pred, gt = small_scene.as_factored_scene(), small_scene
        if fn is covisibility:
            calls = [(pred,) if bad == "swapped" else (bad,)]
        else:
            calls = [(gt, pred), (gt, gt)] if bad == "swapped" else [(bad, gt), (pred, bad)]
        for args in calls:
            got = " and ".join(type(a).__name__ for a in args)
            with pytest.raises(InvalidValueError, match=f"^{fn.__name__} needs an? [A-Za-z ]+, got {got}$"):
                fn(*args)
