import numpy as np
import pytest

from mapt.errors import InvalidValueError
from mapt.factorization import NormScale, norm_scale
from mapt.geometry import (
    DepthAlongRay,
    FactoredScene,
    FactoredView,
    MetricScale,
    PointMap,
    RayMap,
    local_pointmap,
    world_pointmap,
)
from mapt.losses import (
    DEFAULT_ALPHA_CONF,
    DEFAULT_KERNEL,
    GM_SCALES,
    LossReport,
    RobustKernelParams,
    loss_weights,
    loss_depth,
    loss_gradient_matching,
    loss_local_pointmap,
    loss_mask,
    loss_normal,
    loss_pointmap_conf,
    loss_rays,
    loss_rot,
    loss_scale,
    loss_scale_grad_m,
    loss_translation,
    robust_kernel,
    robust_kernel_grad,
    total_loss,
)
from mapt.synth import SceneSample

from oracles import fd_central, loss_gradient_matching_reference

ONE = NormScale(1.0)


class TestRobustKernel:
    def test_zero_at_zero(self):
        assert robust_kernel(0.0) == 0.0

    def test_stated_value(self):
        # direct evaluation of (|a-2|/a) * (((x/c)^2/|a-2| + 1)^(a/2) - 1)
        expect = (1.5 / 0.5) * ((1.0 / 1.5 + 1.0) ** 0.25 - 1.0)
        got = robust_kernel(0.05, RobustKernelParams(alpha=0.5, c=0.05))
        assert abs(got - expect) < 1e-15
        assert abs(got - 0.4086) < 2e-4

    def test_even_and_monotone(self):
        rng = np.random.default_rng(0)
        for alpha in (-2.0, 0.0, 0.5, 1.0, 2.0):
            p = RobustKernelParams(alpha=alpha, c=0.05)
            x = rng.uniform(-1.0, 1.0, size=64)
            np.testing.assert_array_equal(robust_kernel(x, p), robust_kernel(-x, p))
            xs = np.sort(np.abs(x))
            assert np.all(np.diff(robust_kernel(xs, p)) >= 0.0)

    def test_quadratic_limit(self):
        p = RobustKernelParams(alpha=2.0, c=0.1)
        np.testing.assert_allclose(robust_kernel(0.2, p), 0.5 * (0.2 / 0.1) ** 2)

    def test_cauchy_limit(self):
        p = RobustKernelParams(alpha=0.0, c=0.1)
        np.testing.assert_allclose(robust_kernel(0.2, p), np.log1p(0.5 * 4.0))

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            alpha = rng.choice([-2.0, 0.0, 0.5, 1.0, 2.0])
            p = RobustKernelParams(alpha=float(alpha), c=float(rng.uniform(0.02, 0.5)))
            x = float(rng.uniform(-0.8, 0.8))
            got = robust_kernel_grad(x, p)
            ref = fd_central(lambda v: float(robust_kernel(v, p)), x)
            assert abs(got - ref) <= 1e-4 * max(1.0, abs(ref))

    def test_invalid_params(self):
        with pytest.raises(InvalidValueError):
            RobustKernelParams(alpha=0.5, c=0.0)
        with pytest.raises(InvalidValueError):
            RobustKernelParams(alpha=2.5, c=0.1)


def _const_rays(v, h, w):
    return RayMap(np.tile(np.asarray(v, dtype=np.float64), (h, w, 1)))


def _depth(vals, valid=None):
    vals = np.asarray(vals, dtype=np.float64)
    if valid is None:
        valid = np.ones(vals.shape, dtype=bool)
    return DepthAlongRay(np.where(valid, vals, 0.0), valid)


def _pm(points, valid=None):
    points = np.asarray(points, dtype=np.float64)
    if valid is None:
        valid = np.ones(points.shape[:2], dtype=bool)
    return PointMap(points, valid)


class TestLossRays:
    def test_zero_at_truth(self):
        r = _const_rays([0.0, 0.0, 1.0], 4, 4)
        assert loss_rays([r], [r]) == 0.0

    def test_single_pixel_reduction(self):
        a = _const_rays([0.0, 0.0, 1.0], 1, 1)
        b = _const_rays([np.sin(0.3), 0.0, np.cos(0.3)], 1, 1)
        res = np.linalg.norm(a.directions[0, 0] - b.directions[0, 0])
        np.testing.assert_allclose(loss_rays([b], [a]), robust_kernel(res))

    def test_duplicating_views_invariant(self):
        rng = np.random.default_rng(2)
        d = rng.normal(size=(3, 4, 3))
        d[:, :, 2] = np.abs(d[:, :, 2]) + 1.0
        d /= np.linalg.norm(d, axis=2, keepdims=True)
        a, b = RayMap(d), _const_rays([0.0, 0.0, 1.0], 3, 4)
        # pooled mean; duplication only reassociates the summation
        np.testing.assert_allclose(loss_rays([a], [b]), loss_rays([a, a], [b, b]), rtol=1e-12)


class TestLossRot:
    def test_zero_at_truth_and_double_cover(self):
        q = np.array([[0.5, 0.5, 0.5, 0.5]])
        assert loss_rot(q, q) == 0.0
        assert loss_rot(-q, q) == 0.0

    def test_orthogonal_chord(self):
        gt = np.array([[1.0, 0.0, 0.0, 0.0]])
        pr = np.array([[0.0, 0.0, 0.0, 1.0]])
        np.testing.assert_allclose(loss_rot(pr, gt), robust_kernel(np.sqrt(2.0)))

    def test_sign_invariance_exact(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(6, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        g = rng.normal(size=(6, 4))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        flips = np.where(rng.random((6, 1)) < 0.5, -1.0, 1.0)
        assert loss_rot(q, g) == loss_rot(q * flips, g)

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidValueError):
            loss_rot(np.array([[2.0, 0, 0, 0]]), np.array([[1.0, 0, 0, 0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        q = np.array([[1.0, 0, 0, 0], [bad, 0, 0, 0]])
        with pytest.raises(InvalidValueError):
            loss_rot(q, np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]]))

    def test_rejects_zero_views(self):
        with pytest.raises(InvalidValueError, match="at least one view"):
            loss_rot(np.zeros((0, 4)), np.zeros((0, 4)))


class TestLossTranslation:
    def test_scale_invariant_zero(self):
        gt = np.array([[1.0, 2.0, 3.0], [0.5, 0.0, -1.0]])
        k = 7.5
        assert loss_translation(k * gt, gt, NormScale(k), ONE) < 1e-30

    def test_unit_residual(self):
        np.testing.assert_allclose(
            loss_translation(np.zeros((1, 3)), np.array([[1.0, 0, 0]]), ONE, ONE),
            robust_kernel(1.0),
        )

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        gt = rng.normal(size=(5, 3))
        pr = rng.normal(size=(5, 3))
        perm = rng.permutation(5)
        assert loss_translation(pr, gt, ONE, ONE) == loss_translation(pr[perm], gt[perm], ONE, ONE)

    def test_rejects_zero_views(self):
        with pytest.raises(InvalidValueError, match="at least one view"):
            loss_translation(np.zeros((0, 3)), np.zeros((0, 3)), ONE, ONE)


class TestLossDepth:
    def test_zero_at_truth(self):
        d = _depth(np.full((5, 5), 2.0))
        assert loss_depth([d], [d], ONE, ONE) == 0.0

    def test_quantile_boundary(self):
        # 100 valid pixels: 95 exact, 5 huge -> all excluded, loss 0
        gt = np.full((10, 10), 2.0)
        pr = gt.copy()
        pr.ravel()[:5] = 1e8
        assert loss_depth([_depth(pr)], [_depth(gt)], ONE, ONE) == 0.0

    def test_joint_scaling_invariance(self):
        rng = np.random.default_rng(5)
        gt = _depth(rng.uniform(1.0, 5.0, size=(8, 8)))
        pr_vals = rng.uniform(1.0, 5.0, size=(8, 8))
        base = loss_depth([_depth(pr_vals)], [gt], NormScale(2.0), NormScale(3.0))
        for k in (1e-3, 1.0, 1e3):
            scaled = loss_depth([_depth(pr_vals * k)], [gt], NormScale(2.0 * k), NormScale(3.0))
            assert abs(scaled - base) < 1e-9

    def test_outlier_exclusion_exact(self):
        # constant residual field: corrupting any <=5% leaves the value unchanged
        rng = np.random.default_rng(6)
        gt = _depth(np.full((10, 10), 2.0))
        pr = np.full((10, 10), 2.6)
        base = loss_depth([_depth(pr)], [gt], ONE, ONE)
        for trial in range(5):
            bad = rng.choice(100, size=5, replace=False)
            corrupted = pr.copy()
            corrupted.ravel()[bad] = 1e9
            assert loss_depth([_depth(corrupted)], [gt], ONE, ONE) == base

    def test_outlier_exclusion_top_k(self):
        # corrupting exactly the top-k-residual pixels reproduces the excluded value
        rng = np.random.default_rng(7)
        gt_vals = rng.uniform(1.0, 5.0, size=(10, 10))
        pr_vals = gt_vals * rng.uniform(1.0, 1.5, size=(10, 10))
        base = loss_depth([_depth(pr_vals)], [_depth(gt_vals)], ONE, ONE)
        res = np.abs(np.log1p(gt_vals) - np.log1p(pr_vals)).ravel()
        top = np.argsort(res)[-5:]
        corrupted = pr_vals.copy()
        corrupted.ravel()[top] = 1e9
        assert loss_depth([_depth(corrupted)], [_depth(gt_vals)], ONE, ONE) == base


class TestLossLocalPointmap:
    def test_zero_at_truth(self):
        rng = np.random.default_rng(8)
        pm = _pm(rng.normal(size=(4, 4, 3)))
        assert loss_local_pointmap([pm], [pm], ONE, ONE) == 0.0

    def test_unit_flog_residual(self):
        gt = _pm([[[np.e - 1.0, 0.0, 0.0]]])
        pr = _pm([[[0.0, 0.0, 0.0]]])
        np.testing.assert_allclose(loss_local_pointmap([pr], [gt], ONE, ONE), robust_kernel(1.0))

    def test_joint_scaling_invariance(self):
        rng = np.random.default_rng(9)
        gt = _pm(rng.normal(size=(6, 6, 3)))
        pts = rng.normal(size=(6, 6, 3))
        base = loss_local_pointmap([_pm(pts)], [gt], NormScale(1.7), NormScale(0.9))
        for k in (1e-3, 1.0, 1e3):
            got = loss_local_pointmap([_pm(pts * k)], [gt], NormScale(1.7 * k), NormScale(0.9))
            assert abs(got - base) < 1e-9


class TestLossPointmapConf:
    def test_zero_at_truth_unit_conf(self):
        rng = np.random.default_rng(10)
        pm = _pm(rng.normal(size=(3, 3, 3)))
        ones = np.ones((3, 3))
        assert loss_pointmap_conf([pm], [pm], [ones], ONE, ONE) == 0.0

    def test_unit_conf_reduces_to_plain_kernel(self):
        rng = np.random.default_rng(11)
        gt = _pm(rng.normal(size=(4, 4, 3)))
        pr = _pm(rng.normal(size=(4, 4, 3)))
        ones = np.ones((4, 4))
        got = loss_pointmap_conf([pr], [gt], [ones], ONE, ONE)
        res = np.linalg.norm(
            (gt.points / np.linalg.norm(gt.points, axis=2, keepdims=True) * np.log1p(np.linalg.norm(gt.points, axis=2, keepdims=True)))
            - (pr.points / np.linalg.norm(pr.points, axis=2, keepdims=True) * np.log1p(np.linalg.norm(pr.points, axis=2, keepdims=True))),
            axis=2,
        )
        np.testing.assert_allclose(got, np.mean(robust_kernel(res)), rtol=1e-12)

    def test_confidence_stationary_point(self):
        # minimizing C*rho(r) - a*log(C) over C gives C* = a / rho(r), a = DEFAULT_ALPHA_CONF
        r = 0.01
        k = float(robust_kernel(r))
        c_star = DEFAULT_ALPHA_CONF / k
        assert c_star > 1.0

        def objective(c):
            gt = _pm([[[np.e - 1.0, 0.0, 0.0]]])
            pr_vec = np.array([np.expm1(np.log(np.e) - 0.0), 0.0, 0.0])  # same as gt
            # single pixel with synthetic residual r: move pred along gt direction
            pr = _pm([[[np.expm1(np.log1p(np.e - 1.0) - r), 0.0, 0.0]]])
            return loss_pointmap_conf([pr], [gt], [np.array([[c]])], ONE, ONE)

        assert objective(c_star) < objective(c_star * 1.05)
        assert objective(c_star) < objective(c_star / 1.05)
        # the objective at C* itself, in closed form
        np.testing.assert_allclose(objective(c_star), DEFAULT_ALPHA_CONF * (1.0 - np.log(c_star)), rtol=1e-9)

    def test_rejects_confidence_below_one(self):
        pm = _pm(np.ones((2, 2, 3)))
        with pytest.raises(InvalidValueError):
            loss_pointmap_conf([pm], [pm], [np.full((2, 2), 0.5)], ONE, ONE)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_confidence(self, bad):
        pm = _pm(np.ones((2, 2, 3)))
        with pytest.raises(InvalidValueError):
            loss_pointmap_conf([pm], [pm], [np.array([[1.0, 2.0], [bad, 1.0]])], ONE, ONE)


class TestLossScale:
    def test_zero_when_matched(self):
        assert loss_scale(NormScale(6.0), MetricScale(3.0), NormScale(2.0)) == 0.0

    def test_unit_residual_limit(self):
        got = loss_scale(NormScale(np.e - 1.0), MetricScale(1.0), NormScale(1e-12))
        np.testing.assert_allclose(got, robust_kernel(1.0), rtol=1e-9)

    def test_total_loss_reads_the_ground_truth_scale(self, small_scene):
        """total_loss passes loss_scale the metric ground-truth norm: zero at
        truth for any metric scale, and the term of s * z_gt against z_pred
        when only the ground truth's scale s moves."""
        z = norm_scale([world_pointmap(local_pointmap(v.rays, v.depth), v.pose) for v in small_scene.views])
        for s in (1e-3, 0.5, 1.0, 2.0, 1e3):
            gt = SceneSample(views=small_scene.views, scale=MetricScale(s))
            pred = gt.as_factored_scene()
            assert total_loss(pred, gt).scale == 0.0
            pred.scale = MetricScale(1.0)
            assert total_loss(pred, gt).scale == loss_scale(NormScale(s * z.value), MetricScale(1.0), z)

    def test_grad_m_matches_fd(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            z_gt = NormScale(float(rng.uniform(0.1, 10.0)))
            z_pr = NormScale(float(rng.uniform(0.1, 10.0)))
            m = float(rng.uniform(0.1, 10.0))
            got = loss_scale_grad_m(z_gt, MetricScale(m), z_pr)
            ref = fd_central(lambda v: loss_scale(z_gt, MetricScale(v), z_pr), m)
            assert abs(got - ref) <= 1e-4 * max(1e-6, abs(ref))


class TestLossNormal:
    def _plane_xy(self, h=4, w=4):
        ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
        return _pm(np.stack([xs, ys, np.zeros_like(xs)], axis=2))

    def _plane_yz(self, h=4, w=4):
        ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
        return _pm(np.stack([np.zeros_like(xs), xs, ys], axis=2))

    def test_zero_at_truth(self):
        pm = self._plane_xy()
        assert loss_normal([pm], [pm]) == 0.0

    def test_perpendicular_planes(self):
        np.testing.assert_allclose(loss_normal([self._plane_yz()], [self._plane_xy()]), 1.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(13)
        base = rng.normal(size=(5, 5, 3))
        base[:, :, 2] += 5.0
        a = _pm(base)
        b = _pm(base + np.array([1.0, -2.0, 3.0]))
        gt = self._plane_xy(5, 5)
        assert abs(loss_normal([a], [gt]) - loss_normal([b], [gt])) < 1e-12

    def test_empty_valid_set_is_zero(self):
        pm = _pm(np.zeros((3, 3, 3)), np.zeros((3, 3), dtype=bool))
        assert loss_normal([pm], [pm]) == 0.0


class TestLossGradientMatching:
    def test_zero_at_truth(self):
        rng = np.random.default_rng(14)
        z = rng.uniform(1.0, 4.0, size=(8, 8))
        v = np.ones((8, 8), dtype=bool)
        assert loss_gradient_matching([z], [z], [v]) == 0.0

    def test_constant_factor_is_zero(self):
        rng = np.random.default_rng(15)
        z = rng.uniform(1.0, 4.0, size=(8, 8))
        v = np.ones((8, 8), dtype=bool)
        assert loss_gradient_matching([3.7 * z], [z], [v]) < 1e-12

    def test_ramp_four_scales(self):
        # log-depth ramp of slope s on one 16-pixel row: each factor-2 pooling
        # doubles the step, so the GM_SCALES = 4 scales sum to s * (1 + 2 + 4 + 8)
        s = 0.2
        xs = np.arange(16.0)[None, :]
        gt = np.ones((1, 16))
        pr = np.exp(s * xs)
        v = np.ones((1, 16), dtype=bool)
        got = loss_gradient_matching([pr], [gt], [v])
        assert GM_SCALES == 4
        np.testing.assert_allclose(got, 15.0 * s, rtol=1e-12)
        assert got == loss_gradient_matching_reference([pr], [gt], [v])

    def test_respects_validity(self):
        z = np.ones((4, 4))
        pr = z.copy()
        pr[0, 0] = 100.0  # invalid pixel: must not contribute
        v = np.ones((4, 4), dtype=bool)
        v[0, 0] = False
        assert loss_gradient_matching([np.where(v, pr, 0.0) + ~v * 1.0], [z], [v]) == 0.0

    @pytest.mark.parametrize("side", ["pred", "gt"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_valid_depth(self, side, bad):
        z = np.ones((4, 4))
        bent = z.copy()
        bent[1, 2] = bad
        pred, gt = (bent, z) if side == "pred" else (z, bent)
        with pytest.raises(InvalidValueError):
            loss_gradient_matching([pred], [gt], [np.ones((4, 4), dtype=bool)])


class TestLossMask:
    def test_exact_prediction_tiny(self):
        g = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert loss_mask([g], [g]) <= 1e-6

    def test_uninformative_half(self):
        g = np.array([[1.0, 0.0]])
        np.testing.assert_allclose(loss_mask([np.full((1, 2), 0.5)], [g]), np.log(2.0), rtol=1e-12)

    def test_asymmetry(self):
        a = np.array([[0.3]])
        b = np.array([[1.0]])
        assert loss_mask([a], [b]) != loss_mask([b], [a])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidValueError):
            loss_mask([np.array([[1.5]])], [np.array([[1.0]])])

    @pytest.mark.parametrize("side", ["pred", "gt"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, side, bad):
        ok = np.array([[1.0, 0.0]])
        bent = np.array([[1.0, bad]])
        pred, gt = (bent, ok) if side == "pred" else (ok, bent)
        with pytest.raises(InvalidValueError):
            loss_mask([pred], [gt])


class TestTotalLoss:
    def test_zero_at_truth(self, small_scene):
        rep = total_loss(small_scene.as_factored_scene(), small_scene, synthetic=True)
        assert rep.total < 1e-6
        for name, val in rep.as_dict().items():
            assert val < 1e-6, name

    def test_weighted_identity(self, small_scene):
        pred = small_scene.as_factored_scene()
        # perturb one view's depth to make several terms nonzero
        v0 = pred.views[1]
        pred.views[1] = FactoredView(
            rays=v0.rays,
            depth=DepthAlongRay(v0.depth.values * 1.3, v0.depth.validity),
            pose=v0.pose,
            confidence=v0.confidence * 0.0 + 2.0,
            mask_prob=np.clip(v0.mask_prob, 0.2, 0.8),
        )
        rep = total_loss(pred, small_scene, synthetic=True)
        w = loss_weights()
        recomputed = sum(w[k] * rep.as_dict()[k] for k in w)
        assert abs(rep.total - recomputed) < 1e-9
        assert rep.total > 0.0

    def test_only_pointmap_term(self, small_scene):
        pred = small_scene.as_factored_scene()
        for i, v in enumerate(pred.views):
            pred.views[i] = FactoredView(
                rays=v.rays, depth=v.depth, pose=v.pose,
                confidence=np.full_like(v.confidence, 2.0), mask_prob=v.mask_prob,
            )
        rep = total_loss(pred, small_scene)
        # geometry exact: every term but the confidence regularizer (and the
        # clamped-BCE epsilon) vanishes
        np.testing.assert_allclose(rep.pointmap, -0.2 * np.log(2.0), rtol=1e-12)
        assert abs(rep.total - (10.0 * rep.pointmap + 0.1 * rep.mask)) < 1e-12

    def test_only_mask_term(self, small_scene):
        pred = small_scene.as_factored_scene()
        for i, v in enumerate(pred.views):
            pred.views[i] = FactoredView(
                rays=v.rays, depth=v.depth, pose=v.pose,
                confidence=v.confidence, mask_prob=np.full_like(v.mask_prob, 0.5),
            )
        rep = total_loss(pred, small_scene)
        np.testing.assert_allclose(rep.mask, np.log(2.0), rtol=1e-12)
        assert abs(rep.total - 0.1 * rep.mask) < 1e-12

    def test_synthetic_flag_gates_normal_gm(self, small_scene):
        pred = small_scene.as_factored_scene()
        v1 = pred.views[1]
        pred.views[1] = FactoredView(
            rays=v1.rays,
            depth=DepthAlongRay(v1.depth.values + 0.2 * v1.depth.validity * np.sin(v1.depth.values), v1.depth.validity),
            pose=v1.pose, confidence=v1.confidence, mask_prob=v1.mask_prob,
        )
        off = total_loss(pred, small_scene, synthetic=False)
        on = total_loss(pred, small_scene, synthetic=True)
        assert off.normal == 0.0 and off.gm == 0.0
        assert on.normal > 0.0 and on.gm > 0.0
