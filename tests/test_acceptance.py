"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines.
"""

import time

import numpy as np
import pytest

from mapt.factorization import NormScale
from mapt.geometry import (
    DepthAlongRay,
    FactoredScene,
    FactoredView,
    MetricScale,
    PointMap,
    Pose,
    local_pointmap,
    metric_upgrade,
    pose_compose,
    quat_to_rot,
    world_pointmap,
)
from mapt.losses import (
    RobustKernelParams,
    loss_weights,
    loss_depth,
    loss_local_pointmap,
    loss_pointmap_conf,
    loss_rot,
    loss_scale,
    loss_scale_grad_m,
    loss_translation,
    robust_kernel,
    robust_kernel_grad,
    total_loss,
)
from mapt.factorization import f_log, f_log_jacobian
from mapt.io import read_scene, read_tensor, write_ply, write_scene, write_tensor
from mapt.metrics import ate_rmse, auc_at_threshold, inlier_ratio_tau, umeyama
from mapt.network import ModelConfig, forward, init_weights
from mapt.synth import gen_scene
from mapt.viewgraph import (
    InputConfig,
    build_adjacency,
    covisibility,
    random_walk_sample,
    sample_input_config,
)

from conftest import random_pose
from oracles import brute_force_covisibility, fd_central, fd_jacobian, is_connected, parse_ply


def _report(criterion: int, name: str, t0: float):
    print(f"\nACCEPTANCE {criterion} PASS: {name} ({time.perf_counter() - t0:.1f}s)")


def test_criterion_1_oracle_composition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    for seed in range(100):
        n = int(rng.integers(1, 9))
        _, sample = gen_scene(n_views=n, width=64, height=64, n_spheres=4, seed=seed, with_images=False)
        for v in sample.views:
            composed = metric_upgrade(
                world_pointmap(local_pointmap(v.rays, v.depth), v.pose), sample.scale
            )
            rot = quat_to_rot(v.pose.rotation)
            raycast_pts = v.pose.translation + (v.rays.directions @ rot.T) * v.depth.values[:, :, None]
            m = v.depth.validity
            assert np.max(np.abs(composed.points[m] - sample.scale.value * raycast_pts[m])) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(1, "100-scene factored composition matches raycast within 1e-6", t0)


def test_criterion_2_zero_at_truth():
    t0 = time.perf_counter()
    w = loss_weights()
    # 50 scenes at the default metric scale 1 and 10 at each of five others
    cases = [(seed, 1.0) for seed in range(50)] + [(seed, s) for s in (1e-3, 0.5, 2.0, 10.0, 1e3) for seed in range(10)]
    for seed, scale in cases:
        _, sample = gen_scene(
            n_views=3, width=32, height=24, n_spheres=4, seed=2000 + seed, metric_scale=scale, with_images=False
        )
        rep = total_loss(sample.as_factored_scene(), sample, synthetic=True)
        assert rep.total < 1e-6
        recomputed = sum(w[k] * rep.as_dict()[k] for k in w)
        assert abs(rep.total - recomputed) < 1e-9
    _report(2, "total loss at ground truth is 0 within 1e-6 with the 10/1/0.1 identity, metric scales 1e-3 to 1e3", t0)


def test_criterion_3_gradient_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3001)
    p = RobustKernelParams(alpha=0.5, c=0.05)
    for _ in range(100):
        x = float(rng.uniform(-1.0, 1.0))
        got = robust_kernel_grad(x, p)
        ref = fd_central(lambda v: float(robust_kernel(v, p)), x)
        assert abs(got - ref) <= 1e-4 * max(1.0, abs(ref))
    for _ in range(100):
        v = rng.normal(size=3)
        v *= 10.0 ** rng.uniform(-3, 3) / np.linalg.norm(v)
        np.testing.assert_allclose(
            f_log_jacobian(v), fd_jacobian(lambda q: f_log(q, axis=0), v), rtol=1e-4, atol=1e-7
        )
    for _ in range(100):
        z_gt = NormScale(float(rng.uniform(0.1, 10.0)))
        z_pr = NormScale(float(rng.uniform(0.1, 10.0)))
        m = float(rng.uniform(0.1, 10.0))
        got = loss_scale_grad_m(z_gt, MetricScale(m), z_pr)
        ref = fd_central(lambda q: loss_scale(z_gt, MetricScale(q), z_pr), m)
        assert abs(got - ref) <= 1e-4 * max(1e-6, abs(ref))
    _report(3, "kernel / f_log / scale-loss gradients match finite differences (rel 1e-4)", t0)


def test_criterion_4_scale_invariance_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4001)
    gt_d = DepthAlongRay(rng.uniform(1, 5, (12, 12)), np.ones((12, 12), dtype=bool))
    pr_d = rng.uniform(1, 5, (12, 12))
    gt_p = PointMap(rng.normal(size=(12, 12, 3)), np.ones((12, 12), dtype=bool))
    pr_p = rng.normal(size=(12, 12, 3))
    conf = 1.0 + rng.random((12, 12))
    gt_t = rng.normal(size=(4, 3))
    pr_t = rng.normal(size=(4, 3))
    z_gt = NormScale(1.7)
    base_depth = loss_depth([DepthAlongRay(pr_d, gt_d.validity)], [gt_d], NormScale(2.2), z_gt)
    base_lpm = loss_local_pointmap([PointMap(pr_p, gt_p.validity)], [gt_p], NormScale(2.2), z_gt)
    base_pm = loss_pointmap_conf([PointMap(pr_p, gt_p.validity)], [gt_p], [conf], NormScale(2.2), z_gt)
    base_tr = loss_translation(pr_t, gt_t, NormScale(2.2), z_gt)
    for k in (1e-3, 1.0, 1e3):
        zs = NormScale(2.2 * k)
        assert abs(loss_depth([DepthAlongRay(pr_d * k, gt_d.validity)], [gt_d], zs, z_gt) - base_depth) < 1e-9
        assert abs(loss_local_pointmap([PointMap(pr_p * k, gt_p.validity)], [gt_p], zs, z_gt) - base_lpm) < 1e-9
        assert abs(loss_pointmap_conf([PointMap(pr_p * k, gt_p.validity)], [gt_p], [conf], zs, z_gt) - base_pm) < 1e-9
        assert abs(loss_translation(pr_t * k, gt_t, zs, z_gt) - base_tr) < 1e-9
    q = rng.normal(size=(6, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    g = rng.normal(size=(6, 4))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    assert loss_rot(q, g) == loss_rot(-q, g)
    _report(4, "depth/lpm/pointmap/translation invariant to joint scaling; rot sign-invariant", t0)


def test_criterion_5_covisibility_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5001)
    for seed in range(20):
        n = int(rng.integers(2, 5))
        _, sample = gen_scene(n_views=n, width=32, height=24, n_spheres=4, seed=5000 + seed, with_images=False)
        got = covisibility(sample).fraction
        ref = brute_force_covisibility(sample)
        np.testing.assert_array_equal(got, ref)

    trials = 0
    scene_pool = []
    for seed in range(10):
        _, sample = gen_scene(n_views=8, width=24, height=18, n_spheres=4, seed=5100 + seed, with_images=False)
        adj = build_adjacency(covisibility(sample), threshold=0.25)
        comp = _largest_component(adj)
        scene_pool.append((adj, comp))
    while trials < 1000:
        adj, comp = scene_pool[trials % len(scene_pool)]
        k = min(len(comp), 2 + trials % 4)
        out = random_walk_sample(adj, k, rng_seed=trials)
        assert len(out) == k and len(set(out)) == k
        assert is_connected(adj, out)
        trials += 1
    _report(5, "covisibility equals brute force bit-for-bit; 1000/1000 connected samples", t0)


def _largest_component(adj):
    n = adj.shape[0]
    seen = [False] * n
    best = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in np.flatnonzero(adj[u]):
                if not seen[w]:
                    seen[int(w)] = True
                    stack.append(int(w))
        if len(comp) > len(best):
            best = comp
    return best


def test_criterion_6_sampler_statistics():
    t0 = time.perf_counter()
    n = 100_000
    draws = [sample_input_config(4, metric_gt_available=True, rng_seed=s) for s in range(n)]
    geo = [c for c in draws if c.geometric_enabled]
    assert abs(len(geo) / n - 0.9) < 0.01
    for attr in ("rays_selected", "pose_selected", "depth_selected"):
        assert abs(sum(getattr(c, attr) for c in geo) / len(geo) - 0.5) < 0.01
    pv_n = pv_k = 0
    for c in geo:
        for attr, flags in (
            ("rays_selected", c.rays_given),
            ("pose_selected", c.pose_given),
            ("depth_selected", c.depth_given),
        ):
            if getattr(c, attr):
                pv_n += len(flags)
                pv_k += sum(flags)
    assert abs(pv_k / pv_n - 0.95) < 0.01
    assert abs(sum(c.metric_withheld for c in draws) / n - 0.05) < 0.01
    depth_sel = [c for c in geo if c.depth_selected]
    assert abs(sum(c.depth_sparse_mode for c in depth_sel) / len(depth_sel) - 0.5) < 0.01
    _report(6, "input sampler marginals match 0.9 / 0.5 / 0.95 / 0.05 / 0.5 within 0.01", t0)


def test_criterion_7_metric_correctness():
    t0 = time.perf_counter()
    g = np.full((4, 4), 2.0)
    v = np.ones((4, 4), dtype=bool)
    assert inlier_ratio_tau(1.02 * g, g, v) == 1.0
    assert inlier_ratio_tau(1.04 * g, g, v) == 0.0

    rng = np.random.default_rng(7001)
    traj = [random_pose(rng, t_scale=3.0) for _ in range(6)]
    anchor = random_pose(rng)
    s = 3.3
    moved = [
        Pose(
            pose_compose(anchor, p).rotation,
            s * (quat_to_rot(anchor.rotation) @ p.translation) + anchor.translation,
        )
        for p in traj
    ]
    assert ate_rmse(moved, traj) < 1e-9

    assert auc_at_threshold([0.0, 0.0]) == 1.0
    assert auc_at_threshold([7.0, 9.0]) == 0.0
    assert auc_at_threshold([2.5]) == 0.5

    src = rng.normal(size=(15, 3))
    q = np.array([np.cos(0.4), 0.3, 0.1, 0.2])
    q /= np.linalg.norm(q)
    rot = quat_to_rot(q)
    dst = 2.0 * src @ rot.T + np.array([1.0, 2.0, 3.0])
    sim = umeyama(src, dst)
    assert abs(sim.scale - 2.0) < 1e-9
    np.testing.assert_allclose(quat_to_rot(sim.rotation), rot, atol=1e-9)
    np.testing.assert_allclose(sim.translation, [1.0, 2.0, 3.0], atol=1e-9)
    _report(7, "tau boundary, similarity-invariant ATE, AUC cases, exact Umeyama recovery", t0)


def test_criterion_8_neural_ref_invariants():
    t0 = time.perf_counter()
    cfg = ModelConfig(depth=4, dim=64, heads=4, mlp_ratio=4.0, patch=14)
    _, sample = gen_scene(n_views=3, width=28, height=28, n_spheres=4, seed=8001, plane=True)
    images = [v.image.astype(np.float64) for v in sample.views]
    icfg = InputConfig.images_only(3)
    perm = [0, 2, 1]
    for seed in range(100):
        w = init_weights(cfg, seed)
        out = forward(images, icfg, w)
        out2 = forward(images, icfg, w)
        for a, b in zip(out.depths, out2.depths):
            np.testing.assert_array_equal(a.values, b.values)
        assert out.scale.value == out2.scale.value
        out_p = forward([images[i] for i in perm], icfg, w)
        for slot, src_idx in enumerate(perm):
            np.testing.assert_allclose(
                out_p.rays[slot].directions, out.rays[src_idx].directions, atol=1e-5
            )
            np.testing.assert_allclose(out_p.depths[slot].values, out.depths[src_idx].values, atol=1e-5)
        assert abs(out_p.scale.value - out.scale.value) < 1e-5
        for r in out.rays:
            assert np.max(np.abs(np.linalg.norm(r.directions, axis=2) - 1.0)) < 1e-6
            assert np.min(r.directions[:, :, 2]) > 0.0
        assert all(d.values.min() > 0 for d in out.depths)
        assert all(c.min() >= 1.0 for c in out.confidences)
        assert all(m.min() >= 0.0 and m.max() <= 1.0 for m in out.mask_probs)
        for p in out.poses:
            assert abs(np.linalg.norm(p.rotation) - 1.0) < 1e-9 and p.rotation[0] >= 0.0
        assert out.scale.value > 0.0
    _report(8, "100 weight draws: equivariance 1e-5, output constraints, bit-identical repeats", t0)


def test_criterion_9_performance_floor():
    t0 = time.perf_counter()
    _, big = gen_scene(n_views=100, width=64, height=64, n_spheres=5, seed=9001, plane=True, with_images=False)
    t_cov = time.perf_counter()
    covisibility(big)
    cov_elapsed = time.perf_counter() - t_cov
    assert cov_elapsed < 60.0

    cfg = ModelConfig()
    w = init_weights(cfg, 0)
    _, sample = gen_scene(n_views=10, width=56, height=56, n_spheres=4, seed=9002, plane=True)
    images = [v.image.astype(np.float64) for v in sample.views]
    t_fwd = time.perf_counter()
    forward(images, InputConfig.images_only(10), w)
    fwd_elapsed = time.perf_counter() - t_fwd
    assert fwd_elapsed < 5.0
    _report(9, f"100-view covisibility {cov_elapsed:.1f}s < 60s; 10-view forward {fwd_elapsed:.2f}s < 5s", t0)


def test_criterion_10_format_round_trips(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(10001)
    arr = rng.normal(size=(5, 7, 3)).astype(np.float32)
    write_tensor(tmp_path / "t.mapt", arr)
    np.testing.assert_array_equal(read_tensor(tmp_path / "t.mapt"), arr)
    flags = rng.random((9, 4)) < 0.5
    write_tensor(tmp_path / "b.mapt", flags)
    np.testing.assert_array_equal(read_tensor(tmp_path / "b.mapt") != 0, flags)

    _, sample = gen_scene(n_views=3, width=24, height=18, n_spheres=4, seed=10002, with_images=False)
    write_scene(tmp_path / "scene", sample)
    back = read_scene(tmp_path / "scene")
    for va, vb in zip(sample.views, back.views):
        np.testing.assert_array_equal(va.rays.directions, vb.rays.directions)
        np.testing.assert_array_equal(
            vb.depth.values, va.depth.values.astype(np.float32).astype(np.float64)
        )
        np.testing.assert_array_equal(va.pose.rotation, vb.pose.rotation)
        np.testing.assert_array_equal(va.pose.translation, vb.pose.translation)

    views = [
        FactoredView(rays=v.rays, depth=v.depth, pose=v.pose)
        for v in back.views
    ]
    scene = FactoredScene(views=views, scale=back.scale)
    pts, cols = [], []
    for v in scene.views:
        pm = metric_upgrade(world_pointmap(local_pointmap(v.rays, v.depth), v.pose), scene.scale)
        pts.append(pm.points[pm.validity])
        cols.append(np.full((int(pm.validity.sum()), 3), 128, dtype=np.uint8))
    pts = np.concatenate(pts)
    cols = np.concatenate(cols)
    write_ply(tmp_path / "scene.ply", pts, cols)
    got_pts, got_cols = parse_ply(tmp_path / "scene.ply")
    assert got_pts.shape[0] == sum(int(v.depth.validity.sum()) for v in scene.views)
    np.testing.assert_array_equal(got_pts, pts.astype(np.float32))
    np.testing.assert_array_equal(got_cols, cols)
    _report(10, "tensor/manifest round trips bit-exact; PLY reparse matches composed points", t0)
