import warnings

import numpy as np
import pytest

from mapt.errors import EmptyDepthError, InvalidValueError
from mapt.factorization import (
    decode_log_scale,
    encode_log_scale,
    f_log,
    f_log_jacobian,
    factor_depth,
    factor_pose_scale,
    metric_norm_scale,
    norm_scale,
    NormScale,
)
from mapt.geometry import DepthAlongRay, MetricScale, PointMap

from oracles import fd_jacobian


class TestFactorDepth:
    def test_mean_and_normalized(self):
        d = DepthAlongRay(np.array([[2.0, 4.0]]), np.array([[True, True]]))
        f = factor_depth(d)
        assert f.z_d == 3.0
        np.testing.assert_allclose(f.normalized.values, [[2.0 / 3.0, 4.0 / 3.0]])

    def test_constant_depth(self):
        d = DepthAlongRay(np.full((3, 3), 7.0), np.ones((3, 3), dtype=bool))
        f = factor_depth(d)
        assert f.z_d == 7.0
        np.testing.assert_allclose(f.normalized.values, 1.0)

    def test_all_invalid_raises(self):
        d = DepthAlongRay(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))
        with pytest.raises(EmptyDepthError):
            factor_depth(d)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0.5, 9.0, size=(6, 8))
        valid = rng.random((6, 8)) < 0.7
        d = DepthAlongRay(np.where(valid, vals, 0.0), valid)
        f = factor_depth(d)
        assert abs(factor_depth(f.normalized).z_d - 1.0) < 1e-12


class TestFactorPoseScale:
    def test_mean_of_norms(self):
        f = factor_pose_scale([[1.0, 0, 0], [0, 3.0, 0]])
        assert f.z_p == 2.0
        np.testing.assert_allclose(f.normalized_translations, [[0.5, 0, 0], [0, 1.5, 0]])
        assert not f.degenerate

    def test_all_zero_degenerate(self):
        f = factor_pose_scale(np.zeros((3, 3)))
        assert f.degenerate
        assert f.z_p == 0.0
        np.testing.assert_array_equal(f.normalized_translations, np.zeros((3, 3)))

    def test_single_translation(self):
        f = factor_pose_scale([[0.0, 0.0, 5.0]])
        assert f.z_p == 5.0
        np.testing.assert_allclose(f.normalized_translations, [[0.0, 0.0, 1.0]])

    def test_empty_raises(self):
        with pytest.raises(InvalidValueError):
            factor_pose_scale(np.zeros((0, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_translation(self, bad):
        with pytest.raises(InvalidValueError, match="finite translations"):
            factor_pose_scale([[1.0, 0.0, 0.0], [0.0, bad, 2.0]])

    def test_unit_mean_norm(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=(7, 3)) * 4.0
        f = factor_pose_scale(t)
        assert abs(np.mean(np.linalg.norm(f.normalized_translations, axis=1)) - 1.0) < 1e-6


class TestLogScale:
    def test_examples(self):
        assert encode_log_scale(1.0) == 0.0
        assert abs(encode_log_scale(np.e) - 1.0) < 1e-15
        assert encode_log_scale(1e9) == encode_log_scale(1e6)

    def test_round_trip_clamps(self):
        for s in (1e-9, 1e-3, 1.0, 42.0, 1e7):
            expect = min(max(s, 1e-6), 1e6)
            assert abs(decode_log_scale(encode_log_scale(s)) - expect) <= 1e-9 * expect

    def test_non_finite(self):
        with pytest.raises(InvalidValueError):
            encode_log_scale(float("nan"))

    def test_decode_clips_without_overflow_warning(self):
        # the same bits as the clipped exp for every input; exp's overflow to inf clips to 1e6
        ys = [-1e308, -1e6, -745.2, -13.8, -1.0, 0.0, 0.5, 13.8, 13.9, 709.7, 709.8, 1e6, 1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [decode_log_scale(y) for y in ys]
        with np.errstate(over="ignore"):
            want = [float(np.clip(np.exp(y), 1e-6, 1e6)) for y in ys]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert decode_log_scale(1e6) == 1e6


class TestFLog:
    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(f_log(np.zeros(3), axis=0), np.zeros(3))
        assert f_log(0.0) == 0.0

    def test_scalar_evaluation(self):
        np.testing.assert_allclose(f_log(np.array([3.0, 0.0, 0.0]), axis=0), [np.log(4.0), 0.0, 0.0])

    def test_norm_and_direction(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3)
            y = f_log(x, axis=0)
            n = np.linalg.norm(x)
            assert abs(np.linalg.norm(y) - np.log1p(n)) < 1e-9 * max(1.0, np.log1p(n))
            np.testing.assert_allclose(y / np.linalg.norm(y), x / n, atol=1e-12)

    def test_jacobian_matches_fd(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.normal(size=3)
            x *= 10.0 ** rng.uniform(-3, 3) / np.linalg.norm(x)
            jac = f_log_jacobian(x)
            jac_fd = fd_jacobian(lambda v: f_log(v, axis=0), x)
            np.testing.assert_allclose(jac, jac_fd, rtol=1e-4, atol=1e-7)

    def test_elementwise_grid(self):
        g = np.array([[0.0, np.e - 1.0]])
        np.testing.assert_allclose(f_log(g), [[0.0, 1.0]])


def _pm(points, valid=None):
    points = np.asarray(points, dtype=np.float64)
    if valid is None:
        valid = np.ones(points.shape[:2], dtype=bool)
    return PointMap(points, valid)


class TestNormScale:
    def test_mean_norm(self):
        pm = _pm([[[3.0, 0, 0], [0, 4.0, 0]]])
        assert norm_scale([pm]).value == 3.5

    def test_unit_sphere(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(4, 4, 3))
        pts /= np.linalg.norm(pts, axis=2, keepdims=True)
        assert abs(norm_scale([_pm(pts)]).value - 1.0) < 1e-12

    def test_pooled_mean_over_views(self):
        a = _pm([[[2.0, 0, 0], [2.0, 0, 0]]])
        b = _pm([[[4.0, 0, 0], [4.0, 0, 0]]])
        assert norm_scale([a, b]).value == 3.0

    def test_no_valid_points_raises(self):
        pm = _pm(np.ones((2, 2, 3)), np.zeros((2, 2), dtype=bool))
        with pytest.raises(EmptyDepthError):
            norm_scale([pm])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(5, 6, 3))
        valid = rng.random((5, 6)) < 0.8
        a = _pm(np.where(valid[:, :, None], pts, 0.0), valid)
        perm = rng.permutation(30).reshape(5, 6)
        pts_p = pts.reshape(30, 3)[perm.ravel()].reshape(5, 6, 3)
        valid_p = valid.ravel()[perm.ravel()].reshape(5, 6)
        b = _pm(np.where(valid_p[:, :, None], pts_p, 0.0), valid_p)
        assert abs(norm_scale([a, b]).value - norm_scale([b, a]).value) < 1e-15
        assert abs(norm_scale([a]).value - norm_scale([b]).value) < 1e-12

    def test_homogeneity(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(3, 3, 3))
        for k in (1e-3, 0.5, 1e3):
            a = norm_scale([_pm(pts * k)]).value
            b = k * norm_scale([_pm(pts)]).value
            assert abs(a - b) < 1e-9 * b


class TestMetricNormScale:
    def test_products(self):
        assert metric_norm_scale(MetricScale(1.0), NormScale(2.0)).value == 2.0
        assert metric_norm_scale(MetricScale(3.0), NormScale(0.5)).value == 1.5
