import dataclasses

import numpy as np
import pytest

from mapt.errors import InvalidValueError, ShapeError
from mapt.geometry import (
    DepthAlongRay,
    Intrinsics,
    Pose,
    RayMap,
    local_pointmap,
    metric_upgrade,
    quat_to_rot,
    world_pointmap,
)
from mapt.losses import total_loss
from mapt.synth import AnalyticScene, gen_scene, raycast, render_view, shade_view


def _single_sphere(center=(0.0, 0.0, 5.0), radius=1.0, plane=None):
    return AnalyticScene(centers=np.array([center]), radii=np.array([radius]), ground_plane=plane)


class TestRaycast:
    def test_head_on_hit(self):
        t = raycast(_single_sphere(), [0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        assert t == 4.0

    def test_miss(self):
        assert raycast(_single_sphere(), [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]) is None

    def test_tangent(self):
        # sphere center (0,1,5), r=1: the +z ray from the origin grazes at (0,0,5)
        scene = _single_sphere(center=(0.0, 1.0, 5.0), radius=1.0)
        t = raycast(scene, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        assert t == 5.0

    def test_plane_hit(self):
        scene = AnalyticScene(centers=np.zeros((0, 3)), radii=np.zeros(0), ground_plane=3.0)
        assert raycast(scene, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]) == 3.0

    def test_requires_unit_direction(self):
        with pytest.raises(InvalidValueError):
            raycast(_single_sphere(), [0.0, 0.0, 0.0], [0.0, 0.0, 2.0])

    def test_rejects_nan_direction(self):
        with pytest.raises(InvalidValueError):
            raycast(_single_sphere(), [0.0, 0.0, 0.0], [np.nan, 0.0, 1.0])

    def test_inside_origin_epsilon(self):
        # origin on the sphere surface: the near root is at t=0, filtered by epsilon
        t = raycast(_single_sphere(center=(0.0, 0.0, 1.0), radius=1.0), [0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        assert t == 2.0


class TestRenderView:
    def test_center_pixel_depth(self):
        # principal point on the center pixel's center: that ray is exactly +z
        k = Intrinsics(fx=30.0, fy=30.0, cx=10.5, cy=8.5)
        rays, depth, validity, mask = render_view(_single_sphere(), k, Pose.identity(), 21, 17)
        np.testing.assert_array_equal(rays.directions[8, 10], [0.0, 0.0, 1.0])
        assert depth.values[8, 10] == 4.0
        assert validity[8, 10]

    def test_empty_half_space_all_invalid(self):
        back = Pose(np.array([0.0, 0.0, 1.0, 0.0]), np.zeros(3))  # 180 deg about y
        k = Intrinsics(fx=20.0, fy=20.0, cx=8.0, cy=8.0)
        _, depth, validity, mask = render_view(_single_sphere(), k, back, 16, 16)
        assert not validity.any()
        assert not mask.any()
        assert np.all(depth.values == 0.0)

    def test_rays_are_float32_quantized(self):
        k = Intrinsics(fx=33.0, fy=31.0, cx=9.1, cy=7.3)
        rays, _, _, _ = render_view(_single_sphere(), k, Pose.identity(), 16, 12)
        np.testing.assert_array_equal(rays.directions, rays.directions.astype(np.float32).astype(np.float64))

    def test_mask_equals_validity(self):
        _, sample = gen_scene(n_views=2, width=16, height=12, n_spheres=3, seed=5, plane=False)
        for v in sample.views:
            np.testing.assert_array_equal(v.mask, v.depth.validity)


class TestGenScene:
    def test_deterministic_bit_identical(self):
        _, a = gen_scene(n_views=3, width=24, height=16, n_spheres=4, seed=77)
        _, b = gen_scene(n_views=3, width=24, height=16, n_spheres=4, seed=77)
        assert a.scale.value == b.scale.value
        for va, vb in zip(a.views, b.views):
            np.testing.assert_array_equal(va.rays.directions, vb.rays.directions)
            np.testing.assert_array_equal(va.depth.values, vb.depth.values)
            np.testing.assert_array_equal(va.depth.validity, vb.depth.validity)
            np.testing.assert_array_equal(va.pose.rotation, vb.pose.rotation)
            np.testing.assert_array_equal(va.pose.translation, vb.pose.translation)
            np.testing.assert_array_equal(va.image, vb.image)
            assert va.intrinsics == vb.intrinsics

    def test_single_view_identity_pose(self):
        _, s = gen_scene(n_views=1, width=16, height=16, n_spheres=3, seed=3)
        np.testing.assert_array_equal(s.views[0].pose.rotation, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(s.views[0].pose.translation, [0.0, 0.0, 0.0])

    def test_validity_floor_over_seeds(self):
        for seed in range(100):
            _, s = gen_scene(n_views=2, width=16, height=12, n_spheres=3, seed=seed, with_images=False)
            for v in s.views:
                assert v.depth.validity.mean() >= 0.1

    def test_composition_matches_raycast(self, small_scene):
        scene_params, sample = gen_scene(n_views=4, width=32, height=24, n_spheres=4, seed=101, plane=True)
        for v in sample.views:
            lpm = local_pointmap(v.rays, v.depth)
            wpm = metric_upgrade(world_pointmap(lpm, v.pose), sample.scale)
            rot = quat_to_rot(v.pose.rotation)
            world_dirs = v.rays.directions @ rot.T
            expect = v.pose.translation + world_dirs * v.depth.values[:, :, None]
            m = v.depth.validity
            assert np.max(np.abs(wpm.points[m] - expect[m])) < 1e-6

    def test_cross_view_consistency(self):
        scene, sample = gen_scene(n_views=3, width=24, height=18, n_spheres=4, seed=9, plane=True)
        rng = np.random.default_rng(0)
        for i, vi in enumerate(sample.views):
            rot_i = quat_to_rot(vi.pose.rotation)
            valid = np.argwhere(vi.depth.validity)
            picks = valid[rng.choice(len(valid), size=min(40, len(valid)), replace=False)]
            for j, vj in enumerate(sample.views):
                if i == j:
                    continue
                origin_j = vj.pose.translation
                for py, px in picks:
                    d = vi.rays.directions[py, px]
                    world = vi.pose.translation + rot_i @ d * vi.depth.values[py, px]
                    delta = world - origin_j
                    dist = np.linalg.norm(delta)
                    if dist < 1e-9:
                        continue
                    t = raycast(scene, origin_j, delta / dist)
                    assert t is not None
                    # either occluded by nearer geometry or consistent
                    assert t <= dist * (1.0 + 1e-4)
                    if t >= dist * (1.0 - 1e-4):
                        assert abs(t - dist) / dist <= 1e-4

    def test_ground_truth_loss_is_zero(self):
        _, s = gen_scene(n_views=3, width=24, height=18, n_spheres=4, seed=21, plane=False)
        rep = total_loss(s.as_factored_scene(), s, synthetic=True)
        assert rep.total < 1e-6

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidValueError):
            gen_scene(n_views=0, width=16, height=16, n_spheres=2, seed=0)
        with pytest.raises(InvalidValueError):
            gen_scene(n_views=1, width=4, height=16, n_spheres=2, seed=0)


class TestViewSample:
    """A ground-truth view is checked at construction: before this check, each
    of these views reached evaluate_scene, total_loss or write_scene and
    failed there with a numpy broadcast error, a TypeError or a directory
    that the readers reject."""

    @pytest.mark.parametrize(
        "change, error, message",
        [
            (lambda v: {"rays": RayMap(v.rays.directions[:14, :14])}, ShapeError, "ray map and depth resolutions differ"),
            (lambda v: {"depth": DepthAlongRay(v.depth.values[:, :14], v.depth.validity[:, :14])}, ShapeError, "ray map and depth"),
            (lambda v: {"mask": v.mask[:14, :14]}, ShapeError, "mask resolution differs from depth"),
            (lambda v: {"mask": v.mask[:, :, None]}, ShapeError, "mask resolution differs from depth"),
            (lambda v: {"intrinsics": None}, InvalidValueError, "need Intrinsics, got NoneType"),
            (lambda v: {"intrinsics": (20.0, 20.0, 14.0, 14.0)}, InvalidValueError, "need Intrinsics, got tuple"),
        ],
    )
    def test_parts_must_agree(self, change, error, message):
        _, s = gen_scene(n_views=2, width=28, height=28, n_spheres=3, seed=14)
        with pytest.raises(error, match=message):
            dataclasses.replace(s.views[1], **change(s.views[1]))


class TestShadeView:
    def test_range_shape_and_determinism(self):
        _, s = gen_scene(n_views=1, width=20, height=14, n_spheres=3, seed=8)
        v = s.views[0]
        a = shade_view(v.rays, v.depth)
        b = shade_view(v.rays, v.depth)
        assert a.shape == (14, 20, 3)
        assert a.dtype == np.float32
        assert a.min() >= 0.0 and a.max() <= 1.0
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, v.image)

    def test_maps_thinner_than_two_pixels(self):
        """A map one pixel high or wide has no forward-difference normals, so
        it shades like the same pixels beside an invalid row or column."""
        _, s = gen_scene(n_views=1, width=20, height=14, n_spheres=3, seed=8)
        dirs, depth, valid = s.views[0].rays.directions, s.views[0].depth.values, s.views[0].depth.validity
        row_beside = np.stack([valid[0], np.zeros(20, dtype=bool)])
        col_beside = np.stack([valid[:, 0], np.zeros(14, dtype=bool)], axis=1)
        for one, two, beside in (
            ((slice(0, 1), slice(None)), (slice(0, 2), slice(None)), row_beside),
            ((slice(None), slice(0, 1)), (slice(None), slice(0, 2)), col_beside),
        ):
            a = shade_view(RayMap(dirs[one]), DepthAlongRay(depth[one], valid[one]))
            b = shade_view(RayMap(dirs[two]), DepthAlongRay(depth[two], beside))
            np.testing.assert_array_equal(a, b[one])
