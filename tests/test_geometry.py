import numpy as np
import pytest

from mapt.errors import (
    InvalidIntrinsicsError,
    InvalidRotationError,
    InvalidValueError,
    RankDeficientError,
    ShapeError,
)
from mapt.geometry import (
    DepthAlongRay,
    FactoredView,
    Intrinsics,
    MetricScale,
    PointMap,
    Pose,
    RayMap,
    intrinsics_from_rays,
    local_pointmap,
    metric_upgrade,
    pose_compose,
    pose_inverse,
    quat_mul,
    quat_to_rot,
    ray_angular_error,
    rays_from_intrinsics,
    relative_pose,
    rot_to_quat,
    world_pointmap,
)

from conftest import random_pose
from oracles import pose_matrix


class TestRaysFromIntrinsics:
    def test_stated_formula(self):
        r = rays_from_intrinsics(Intrinsics(100.0, 100.0, 2.0, 1.5), 4, 3)
        # pixel (1,1): center (1.5, 1.5) -> offsets (-0.005, 0)
        expect = np.array([-0.005, 0.0, 1.0])
        expect /= np.linalg.norm(expect)
        np.testing.assert_allclose(r.directions[1, 1], expect, atol=1e-15)

    def test_principal_point_ray(self):
        r = rays_from_intrinsics(Intrinsics(50.0, 50.0, 1.5, 0.5), 4, 1)
        np.testing.assert_array_equal(r.directions[0, 1], [0.0, 0.0, 1.0])

    def test_45_degree_ray(self):
        f = 10.0
        r = rays_from_intrinsics(Intrinsics(f, f, 0.5, 0.5), 16, 1)
        # pixel center at (cx + f, cy) is pixel index 10
        np.testing.assert_allclose(r.directions[0, 10], np.array([1.0, 0.0, 1.0]) / np.sqrt(2), atol=1e-15)

    def test_invariants(self):
        r = rays_from_intrinsics(Intrinsics(37.0, 53.0, -4.0, 60.0), 40, 30)
        norms = np.linalg.norm(r.directions, axis=2)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        assert np.min(r.directions[:, :, 2]) > 0.0

    def test_image_sizes_must_be_integers(self):
        # numpy integers pass
        k = Intrinsics(10.0, 10.0, 1.0, 1.0)
        with pytest.raises(InvalidValueError, match=r"image sizes must be integers, got 2.5, 2"):
            rays_from_intrinsics(k, 2.5, 2)
        with pytest.raises(InvalidValueError, match="image sizes must be integers"):
            rays_from_intrinsics(k, 3, 2.0)
        assert rays_from_intrinsics(k, np.int64(3), np.int32(2)).directions.shape == (2, 3, 3)

    def test_invalid_intrinsics(self):
        with pytest.raises(InvalidIntrinsicsError):
            Intrinsics(-1.0, 10.0, 0.0, 0.0)
        with pytest.raises(InvalidIntrinsicsError):
            Intrinsics(float("nan"), 10.0, 0.0, 0.0)


class TestIntrinsicsFromRays:
    def test_round_trip_100_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = Intrinsics(
                fx=rng.uniform(20, 200),
                fy=rng.uniform(20, 200),
                cx=rng.uniform(-5, 40),
                cy=rng.uniform(-5, 30),
            )
            fit, residual = intrinsics_from_rays(rays_from_intrinsics(k, 32, 24))
            assert residual < 1e-6
            for a, b in ((fit.fx, k.fx), (fit.fy, k.fy), (fit.cx, k.cx), (fit.cy, k.cy)):
                assert abs(a - b) <= 1e-6 * max(1.0, abs(b))

    def test_noisy_rays_within_one_percent(self):
        rng = np.random.default_rng(1)
        k = Intrinsics(60.0, 55.0, 16.0, 12.0)
        d = rays_from_intrinsics(k, 48, 36).directions
        d = d + rng.uniform(-1e-3, 1e-3, size=d.shape)
        d /= np.linalg.norm(d, axis=2, keepdims=True)
        fit, residual = intrinsics_from_rays(RayMap(d))
        assert residual > 0.0
        assert abs(fit.fx - k.fx) / k.fx < 0.01
        assert abs(fit.fy - k.fy) / k.fy < 0.01
        assert abs(fit.cx - k.cx) / k.fx < 0.01
        assert abs(fit.cy - k.cy) / k.fy < 0.01

    def test_degenerate_constant_map(self):
        d = np.zeros((4, 4, 3))
        d[:, :, 2] = 1.0
        with pytest.raises(RankDeficientError):
            intrinsics_from_rays(RayMap(d))


class TestPointmapComposition:
    def test_axis_ray(self):
        r = RayMap(np.tile(np.array([0.0, 0.0, 1.0]), (1, 1, 1)))
        d = DepthAlongRay(np.array([[5.0]]), np.array([[True]]))
        np.testing.assert_array_equal(local_pointmap(r, d).points[0, 0], [0.0, 0.0, 5.0])

    def test_scalar_multiply(self):
        v = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
        r = RayMap(v.reshape(1, 1, 3))
        d = DepthAlongRay(np.array([[np.sqrt(2)]]), np.array([[True]]))
        np.testing.assert_allclose(local_pointmap(r, d).points[0, 0], [1.0, 0.0, 1.0], atol=1e-15)

    def test_invalid_pixel_convention(self):
        r = RayMap(np.tile(np.array([0.0, 0.0, 1.0]), (1, 2, 1)))
        d = DepthAlongRay(np.array([[5.0, 0.0]]), np.array([[True, False]]))
        pm = local_pointmap(r, d)
        np.testing.assert_array_equal(pm.points[0, 1], [0.0, 0.0, 0.0])
        assert not pm.validity[0, 1]

    def test_resolution_mismatch(self):
        r = RayMap(np.tile(np.array([0.0, 0.0, 1.0]), (2, 2, 1)))
        d = DepthAlongRay(np.ones((3, 3)), np.ones((3, 3), dtype=bool))
        with pytest.raises(ShapeError):
            local_pointmap(r, d)

    def test_world_identity(self):
        pm = PointMap(np.arange(12.0).reshape(2, 2, 3), np.ones((2, 2), dtype=bool))
        out = world_pointmap(pm, Pose.identity())
        np.testing.assert_array_equal(out.points, pm.points)

    def test_world_rz90(self):
        q = np.array([np.cos(np.pi / 4), 0.0, 0.0, np.sin(np.pi / 4)])
        pm = PointMap(np.array([[[1.0, 0.0, 0.0]]]), np.array([[True]]))
        out = world_pointmap(pm, Pose(q, np.zeros(3)))
        np.testing.assert_allclose(out.points[0, 0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_world_pure_translation(self):
        pm = PointMap(np.zeros((1, 1, 3)), np.array([[True]]))
        out = world_pointmap(pm, Pose(np.array([1.0, 0, 0, 0]), np.array([1.0, 2.0, 3.0])))
        np.testing.assert_array_equal(out.points[0, 0], [1.0, 2.0, 3.0])

    def test_metric_upgrade(self):
        pm = PointMap(np.ones((1, 1, 3)), np.array([[True]]))
        np.testing.assert_array_equal(metric_upgrade(pm, MetricScale(1.0)).points, pm.points)
        np.testing.assert_array_equal(metric_upgrade(pm, MetricScale(2.0)).points[0, 0], [2.0, 2.0, 2.0])

    def test_composition_consistency_random(self):
        # metric(world(local)) must equal the directly expanded m*(R(r*d)+t)
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = Intrinsics(rng.uniform(20, 80), rng.uniform(20, 80), rng.uniform(0, 16), rng.uniform(0, 12))
            rays = rays_from_intrinsics(k, 16, 12)
            vals = rng.uniform(0.5, 10.0, size=(12, 16))
            valid = rng.random((12, 16)) < 0.8
            depth = DepthAlongRay(np.where(valid, vals, 0.0), valid)
            pose = random_pose(rng)
            m = MetricScale(rng.uniform(0.1, 10.0))
            got = metric_upgrade(world_pointmap(local_pointmap(rays, depth), pose), m)
            rot = quat_to_rot(pose.rotation)
            direct = m.value * (
                (rays.directions * depth.values[:, :, None]) @ rot.T + pose.translation
            )
            assert np.max(np.abs(got.points[valid] - direct[valid])) < 1e-6


class TestPoseOps:
    def test_inverse_identity(self):
        p = pose_inverse(Pose.identity())
        np.testing.assert_array_equal(p.rotation, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(p.translation, [0.0, 0.0, 0.0])

    def test_compose_with_inverse(self):
        q = np.array([np.cos(np.pi / 4), 0.0, 0.0, np.sin(np.pi / 4)])
        p = Pose(q, np.array([1.0, 0.0, 0.0]))
        ident = pose_compose(p, pose_inverse(p))
        np.testing.assert_allclose(ident.rotation, [1.0, 0.0, 0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(ident.translation, [0.0, 0.0, 0.0], atol=1e-9)

    def test_relative_pose_vs_matrix_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = random_pose(rng), random_pose(rng)
            rel = relative_pose(a, b)
            expect = np.linalg.inv(pose_matrix(a)) @ pose_matrix(b)
            np.testing.assert_allclose(pose_matrix(rel), expect, atol=1e-9)

    def test_group_laws_1000(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            a, b, c = random_pose(rng), random_pose(rng), random_pose(rng)
            left = pose_compose(pose_compose(a, b), c)
            right = pose_compose(a, pose_compose(b, c))
            np.testing.assert_allclose(left.rotation, right.rotation, atol=1e-9)
            np.testing.assert_allclose(left.translation, right.translation, atol=1e-9)
            ident = pose_compose(a, pose_inverse(a))
            np.testing.assert_allclose(ident.rotation, [1, 0, 0, 0], atol=1e-9)
            np.testing.assert_allclose(ident.translation, [0, 0, 0], atol=1e-9)

    def test_canonical_sign(self):
        p = Pose(np.array([-1.0, 0.0, 0.0, 0.0]), np.zeros(3))
        assert p.rotation[0] == 1.0
        p = Pose(np.array([0.0, -1.0, 0.0, 0.0]), np.zeros(3))
        np.testing.assert_array_equal(p.rotation, [0.0, 1.0, 0.0, 0.0])


class TestQuatRot:
    def test_identity(self):
        np.testing.assert_array_equal(quat_to_rot([1.0, 0, 0, 0]), np.eye(3))

    def test_z_half_turn(self):
        np.testing.assert_allclose(quat_to_rot([0.0, 0, 0, 1.0]), np.diag([-1.0, -1.0, 1.0]), atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            q_canon = q if q[0] > 0 else -q
            got = rot_to_quat(quat_to_rot(q))
            np.testing.assert_allclose(got, q_canon, atol=1e-9)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvalidRotationError):
            rot_to_quat(np.eye(3) * 1.1)
        with pytest.raises(InvalidRotationError):
            quat_to_rot([0.5, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rot_to_quat_rejects_non_finite(self, bad):
        rot = np.eye(3)
        rot[1, 2] = bad
        with np.errstate(invalid="ignore"), pytest.raises(InvalidRotationError):
            rot_to_quat(rot)

    @staticmethod
    def _unit_stack(rng, shape):
        q = rng.normal(size=(*shape, 4))
        return q / np.linalg.norm(q, axis=-1, keepdims=True)

    def test_stacked_matches_single(self):
        rng = np.random.default_rng(6)
        a, b = self._unit_stack(rng, (5, 3)), self._unit_stack(rng, (5, 3))
        prod, rot = quat_mul(a, b), quat_to_rot(a)
        assert prod.shape == (5, 3, 4) and rot.shape == (5, 3, 3, 3)
        for idx in np.ndindex(5, 3):
            np.testing.assert_array_equal(prod[idx], quat_mul(a[idx], b[idx]))
            np.testing.assert_array_equal(rot[idx], quat_to_rot(a[idx]))

    def test_single_broadcasts_against_stack(self):
        rng = np.random.default_rng(7)
        a, b = self._unit_stack(rng, ()), self._unit_stack(rng, (6,))
        prod = quat_mul(a, b)
        assert prod.shape == (6, 4)
        for k in range(6):
            np.testing.assert_array_equal(prod[k], quat_mul(a, b[k]))

    def test_single_shapes(self):
        assert quat_mul([1.0, 0, 0, 0], [0.0, 1.0, 0, 0]).shape == (4,)
        assert quat_to_rot(np.array([1.0, 0, 0, 0])).shape == (3, 3)

    def test_stack_with_one_non_unit_row_raises(self):
        q = self._unit_stack(np.random.default_rng(8), (4,))
        quat_to_rot(q)
        q[2] *= 1.01
        with pytest.raises(InvalidRotationError):
            quat_to_rot(q)
        q[2] = np.nan
        with pytest.raises(InvalidRotationError):
            quat_to_rot(q)

    def test_rejects_wrong_last_axis(self):
        with pytest.raises(ShapeError):
            quat_to_rot(np.eye(3))


class TestRayAngularError:
    def _const_map(self, v, h=2, w=3):
        return RayMap(np.tile(np.asarray(v, dtype=np.float64), (h, w, 1)))

    def test_identical_zero(self):
        r = self._const_map([0.0, 0.0, 1.0])
        assert ray_angular_error(r, r) == 0.0

    def test_ninety_degrees(self):
        a = self._const_map([np.sin(np.radians(55)), 0.0, np.cos(np.radians(55))])
        b = self._const_map([-np.sin(np.radians(35)), 0.0, np.cos(np.radians(35))])
        assert abs(ray_angular_error(a, b) - 90.0) < 1e-9

    def test_mean_of_mixed(self):
        gt = np.tile(np.array([0.0, 0.0, 1.0]), (2, 1, 1))
        pr = gt.copy()
        pr[1, 0] = [np.sin(np.radians(10)), 0.0, np.cos(np.radians(10))]
        assert abs(ray_angular_error(RayMap(pr), RayMap(gt)) - 5.0) < 1e-9

    def test_symmetry_and_zero_iff_equal(self):
        rng = np.random.default_rng(6)
        d = rng.normal(size=(4, 5, 3))
        d[:, :, 2] = np.abs(d[:, :, 2]) + 1.0
        d /= np.linalg.norm(d, axis=2, keepdims=True)
        e = d.copy()
        e[0, 0] = [0.0, 0.0, 1.0]
        a, b = RayMap(d), RayMap(e)
        assert ray_angular_error(a, b) == ray_angular_error(b, a)
        assert ray_angular_error(a, b) > 0.0
        # arccos near 1 resolves to ~1e-7 degrees; "zero" up to the clamp tolerance
        assert ray_angular_error(a, a) < 1e-5

    def test_resolution_mismatch(self):
        with pytest.raises(ShapeError):
            ray_angular_error(self._const_map([0, 0, 1.0], 2, 2), self._const_map([0, 0, 1.0], 2, 3))

    def test_bare_arrays_raise_invalid_value(self):
        r = self._const_map([0.0, 0.0, 1.0])
        for args in ((r.directions, r.directions), (r, r.directions), (r.directions, r)):
            with pytest.raises(InvalidValueError, match="ray_angular_error needs two RayMaps, got "):
                ray_angular_error(*args)


class TestTypeInvariants:
    def test_raymap_rejects_non_unit(self):
        with pytest.raises(InvalidValueError):
            RayMap(np.ones((1, 1, 3)))

    def test_raymap_rejects_backward(self):
        with pytest.raises(InvalidValueError):
            RayMap(np.tile(np.array([0.0, 0.0, -1.0]), (1, 1, 1)))

    def test_depth_rejects_negative_valid(self):
        with pytest.raises(InvalidValueError):
            DepthAlongRay(np.array([[-1.0]]), np.array([[True]]))

    def test_depth_zeroes_invalid(self):
        d = DepthAlongRay(np.array([[3.0, 7.0]]), np.array([[True, False]]))
        assert d.values[0, 1] == 0.0

    def test_metric_scale_positive(self):
        with pytest.raises(InvalidValueError):
            MetricScale(0.0)
        with pytest.raises(InvalidValueError):
            MetricScale(float("inf"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_raymap_rejects_non_finite(self, bad):
        d = np.tile(np.array([0.0, 0.0, 1.0]), (2, 2, 1))
        d[1, 0, 0] = bad
        with np.errstate(invalid="ignore"), pytest.raises(InvalidValueError):
            RayMap(d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_depth_rejects_non_finite_valid(self, bad):
        with pytest.raises(InvalidValueError):
            DepthAlongRay(np.array([[2.0, bad]]), np.array([[True, True]]))

    @pytest.mark.parametrize(
        "rotation, translation", [(np.array([1.0, 0.0, 0.0, 0.0, 0.0]), np.zeros(3)), (np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(2))]
    )
    def test_pose_rejects_wrong_component_counts(self, rotation, translation):
        with pytest.raises(ShapeError, match="4 quaternion and 3 translation components"):
            Pose(rotation, translation)

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: RayMap("x"), "ray directions"),
            (lambda: DepthAlongRay("x", np.ones((1, 1), bool)), "depth values"),
            (lambda: MetricScale("a"), "metric scale"),
            (lambda: MetricScale(None), "metric scale"),
            (lambda: Pose("abcd", [0.0, 0.0, 0.0]), "pose components"),
            (lambda: Pose([1.0, 0.0, 0.0, 0.0], [0.0, "y", 0.0]), "pose components"),
            (lambda: PointMap("x", np.ones((1, 1), bool)), "pointmap points"),
            (lambda: TestTypeInvariants._view(confidence="c"), "confidence"),
            (lambda: TestTypeInvariants._view(mask_prob=[[0.5, "p"]]), "mask probabilities"),
        ],
    )
    def test_wrong_python_types_are_invalid_values(self, make, field):
        with pytest.raises(InvalidValueError, match=f"{field}.* must be real numbers"):
            make()

    @pytest.mark.parametrize("fx", ["a", None, 1 + 2j, "1.5"])
    def test_wrong_python_type_intrinsics_are_invalid(self, fx):
        with pytest.raises(InvalidIntrinsicsError, match="intrinsics must be real numbers"):
            Intrinsics(fx, 1.0, 0.0, 0.0)

    def test_accepted_types_store_the_same_values(self):
        # what the constructors accepted before the type checks, they store as before
        assert MetricScale("2.5").value == 2.5 and MetricScale(np.float32(0.5)).value == 0.5
        assert Intrinsics(np.float32(2.0), 3, 0, True).fx == np.float32(2.0)
        assert Pose([1, 0, 0, 0], (1, 2, 3)).translation.tolist() == [1.0, 2.0, 3.0]
        np.testing.assert_array_equal(RayMap([[[0, 0, 1]]]).directions, [[[0.0, 0.0, 1.0]]])
        d = DepthAlongRay([[1, 2]], [[1, 0]])
        assert d.values.tolist() == [[1.0, 0.0]] and d.validity.tolist() == [[True, False]]

    @staticmethod
    def _view(confidence=None, mask_prob=None):
        rays = RayMap(np.tile(np.array([0.0, 0.0, 1.0]), (1, 2, 1)))
        depth = DepthAlongRay(np.ones((1, 2)), np.ones((1, 2), bool))
        return FactoredView(rays, depth, Pose.identity(), confidence, mask_prob)

    @pytest.mark.parametrize("bad", [0.5, np.nan, np.inf, -np.inf])
    def test_view_rejects_bad_confidence(self, bad):
        with pytest.raises(InvalidValueError, match="confidence"):
            self._view(confidence=np.array([[1.0, bad]]))

    @pytest.mark.parametrize("bad", [-0.1, 1.1, np.nan, np.inf, -np.inf])
    def test_view_rejects_bad_mask(self, bad):
        with pytest.raises(InvalidValueError, match="mask"):
            self._view(mask_prob=np.array([[0.5, bad]]))

    def test_view_accepts_edge_values(self):
        v = self._view(confidence=np.array([[1.0, 1e300]]), mask_prob=np.array([[0.0, 1.0]]))
        assert v.confidence[0, 1] == 1e300

    @pytest.mark.parametrize("h, w", [(0, 0), (0, 3), (2, 0)])
    def test_empty_containers_are_well_defined(self, h, w):
        rays = RayMap(np.zeros((h, w, 3)))
        depth = DepthAlongRay(np.zeros((h, w)), np.zeros((h, w), bool))
        view = FactoredView(rays, depth, Pose.identity(), np.ones((h, w)), np.zeros((h, w)))
        assert (rays.height, rays.width) == (h, w) and view.confidence.shape == (h, w)
        pm = local_pointmap(rays, depth)
        assert pm.points.shape == (h, w, 3) and not pm.validity.any()
        with pytest.raises(RankDeficientError):
            intrinsics_from_rays(rays)
