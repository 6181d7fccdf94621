import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from mapt.errors import InsufficientComponentError, InvalidValueError, ShapeError
from mapt.geometry import DepthAlongRay, Intrinsics, MetricScale, Pose, quat_to_rot
from mapt.synth import AnalyticScene, SceneSample, ViewSample, gen_scene, render_view
from mapt import geometry, viewgraph
from mapt.viewgraph import (
    SPARSE_KEEP_FRACTION,
    CovisGraph,
    InputConfig,
    build_adjacency,
    covisibility,
    random_walk_sample,
    sample_input_config,
    sparsify_depth,
)

from oracles import brute_force_covisibility, is_connected


def _scene_from_poses(poses, width=24, height=18, plane=False):
    scene = AnalyticScene(
        centers=np.array([[0.0, 0.0, 3.5], [0.6, -0.3, 3.2]]),
        radii=np.array([0.8, 0.5]),
        ground_plane=5.0 if plane else None,
    )
    views = []
    for pose in poses:
        k = Intrinsics(fx=20.0, fy=20.0, cx=width / 2, cy=height / 2)
        rays, depth, validity, mask = render_view(scene, k, pose, width, height)
        views.append(ViewSample(intrinsics=k, rays=rays, depth=depth, mask=mask, pose=pose))
    return SceneSample(views=views, scale=MetricScale(1.0))


def _opposite_facing_scene():
    """Two cameras back to back: view 1 sees nothing, view 0 nothing of view 1."""
    back = Pose(np.array([0.0, 0.0, 1.0, 0.0]), np.zeros(3))  # 180 deg about y
    return _scene_from_poses([Pose.identity(), back])


def _mixed_resolution_scene():
    """Five views at two resolutions, interleaved so each row meets both stacks."""
    _, a = gen_scene(3, 32, 24, 4, seed=21, plane=True)
    _, b = gen_scene(3, 20, 30, 4, seed=21, plane=True)
    return SceneSample(views=[a.views[0], b.views[1], a.views[1], b.views[2], a.views[2]], scale=a.scale)


# a _COVIS_BLOCK that gives the 4-view 24x18 scenes below many blocks of pairs,
# so that covisibility with jobs > 1 runs them on a pool
_SMALL_BLOCK = 64


class TestCovisibility:
    def test_identical_cameras_full_overlap(self):
        scene = _scene_from_poses([Pose.identity(), Pose.identity()])
        g = covisibility(scene)
        np.testing.assert_array_equal(g.fraction, np.ones((2, 2)))

    def test_opposite_facing_zero(self):
        scene = _opposite_facing_scene()
        g = covisibility(scene)
        assert g.fraction[0, 1] == 0.0
        assert not np.any(scene.views[1].depth.validity)
        assert g.fraction[1, 0] == 0.0

    def test_matches_brute_force_two_view(self):
        _, scene = gen_scene(n_views=2, width=32, height=24, n_spheres=4, seed=11)
        got = covisibility(scene).fraction
        ref = brute_force_covisibility(scene)
        np.testing.assert_array_equal(got, ref)

    def test_matches_brute_force_eight_view_64(self):
        _, scene = gen_scene(n_views=8, width=64, height=64, n_spheres=5, seed=12, plane=True)
        got = covisibility(scene).fraction
        ref = brute_force_covisibility(scene)
        np.testing.assert_array_equal(got, ref)

    def test_relabeling_conjugates_matrix(self):
        _, scene = gen_scene(n_views=4, width=24, height=18, n_spheres=4, seed=13)
        perm = [2, 0, 3, 1]
        permuted = SceneSample(views=[scene.views[i] for i in perm], scale=scene.scale)
        a = covisibility(scene).fraction
        b = covisibility(permuted).fraction
        np.testing.assert_array_equal(b, a[np.ix_(perm, perm)])

    def test_matches_brute_force_across_resolutions(self):
        scene = _mixed_resolution_scene()
        got = covisibility(scene).fraction
        np.testing.assert_array_equal(got, brute_force_covisibility(scene))
        assert np.all(got[~np.eye(5, dtype=bool)] > 0.0)

    def test_degenerate_and_far_off_projections_match_brute_force(self, monkeypatch):
        """Pairs whose u, v are 0/0, far beyond int64 or far off the image
        count as the per-pixel reference counts them, with no warning.

        View 0 sits at the identity, so its world points are its local points
        bit for bit, and view 1's camera centre is one of them: that pair has
        cx = cy = cz = 0. View 2's focal length of 1e300 sends every pair
        whose cx is not 0 far beyond int64, and view 3's principal point puts
        every pair a million pixels off the image."""
        scene = AnalyticScene(centers=np.array([[0.0, 0.0, 3.5], [0.6, -0.3, 3.2]]), radii=np.array([0.8, 0.5]))
        k = Intrinsics(fx=20.0, fy=20.0, cx=12.0, cy=9.0)
        rays, depth, _, _ = render_view(scene, k, Pose.identity(), 24, 18)
        py, px = np.argwhere(depth.validity)[40]
        assert np.array_equal(quat_to_rot(Pose.identity().rotation), np.eye(3))
        on_surface = rays.directions[py, px] * depth.values[py, px]
        turned = Pose(np.array([np.cos(0.2), 0.0, np.sin(0.2), 0.0]), on_surface)
        targets = [
            (k, Pose.identity()),
            (k, turned),
            (Intrinsics(fx=1e300, fy=1e300, cx=12.0, cy=9.0), Pose(turned.rotation, np.array([0.1, 0.0, 0.0]))),
            (Intrinsics(fx=20.0, fy=20.0, cx=-1e6, cy=1e6), Pose.identity()),
        ]
        views = []
        for intrinsics, pose in targets:
            rays, depth, _, mask = render_view(scene, intrinsics, pose, 24, 18)
            views.append(ViewSample(intrinsics=intrinsics, rays=rays, depth=depth, mask=mask, pose=pose))
        sample = SceneSample(views=views, scale=MetricScale(1.0))
        assert np.array_equal(sample.views[1].pose.translation, on_surface)
        monkeypatch.setattr(viewgraph, "_COVIS_BLOCK", _SMALL_BLOCK)  # so that jobs=2 runs on a pool
        for jobs in (1, 2):
            np.testing.assert_array_equal(covisibility(sample, jobs=jobs).fraction, brute_force_covisibility(sample))

    def test_serial_equals_parallel(self, monkeypatch):
        _, scene = gen_scene(n_views=4, width=24, height=18, n_spheres=4, seed=14)
        monkeypatch.setattr(viewgraph, "_COVIS_BLOCK", _SMALL_BLOCK)  # so that jobs > 1 runs on a pool
        serial = covisibility(scene, jobs=1).fraction
        for jobs in (2, 4, None):
            np.testing.assert_array_equal(covisibility(scene, jobs=jobs).fraction, serial)

    @pytest.mark.parametrize("affinity", [True, False])
    def test_default_jobs_is_one_thread_per_usable_cpu(self, monkeypatch, affinity):
        # 3 usable CPUs of 64, or 5 CPUs without os.sched_getaffinity; not the
        # executor's own default of min(32, cpus + 4)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 7, 9}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 64)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 5)
        sizes = []

        class Spy(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(geometry, "ThreadPoolExecutor", Spy)
        monkeypatch.setattr(viewgraph, "_COVIS_BLOCK", _SMALL_BLOCK)  # enough blocks for a thread per CPU
        _, scene = gen_scene(n_views=4, width=24, height=18, n_spheres=4, seed=14)
        got = covisibility(scene).fraction
        assert sizes == [3 if affinity else 5]
        np.testing.assert_array_equal(got, covisibility(scene, jobs=1).fraction)

    def test_one_job_runs_in_the_calling_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            pytest.fail("covisibility(jobs=1) started a pool")

        monkeypatch.setattr(geometry, "ThreadPoolExecutor", no_pool)
        _, scene = gen_scene(n_views=4, width=24, height=18, n_spheres=4, seed=14)
        np.testing.assert_array_equal(covisibility(scene, jobs=1).fraction, brute_force_covisibility(scene))

    def test_less_than_a_block_runs_in_the_calling_thread(self, monkeypatch):
        _, scene = gen_scene(n_views=4, width=56, height=56, n_spheres=4, seed=0)
        pairs = 3 * sum(int(v.depth.validity.sum()) for v in scene.views)
        assert 0 < pairs < viewgraph._COVIS_BLOCK
        serial = covisibility(scene, jobs=1).fraction

        def no_pool(*args, **kwargs):
            pytest.fail("covisibility of less than one block of pairs started a pool")

        monkeypatch.setattr(geometry, "ThreadPoolExecutor", no_pool)
        np.testing.assert_array_equal(covisibility(scene, jobs=2).fraction, serial)
        np.testing.assert_array_equal(covisibility(scene).fraction, serial)

    @pytest.mark.parametrize("blocks, workers", [(1, None), (2, 2), (3, 3), (9, 4)])
    def test_one_thread_per_block_of_pairs_at_most(self, monkeypatch, blocks, workers):
        _, scene = gen_scene(n_views=4, width=24, height=18, n_spheres=4, seed=14)
        pairs = 3 * sum(int(v.depth.validity.sum()) for v in scene.views)
        monkeypatch.setattr(viewgraph, "_COVIS_BLOCK", pairs // blocks)
        sizes = []

        class Spy(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(geometry, "ThreadPoolExecutor", Spy)
        got = covisibility(scene, jobs=4).fraction
        assert sizes == ([] if workers is None else [workers])
        np.testing.assert_array_equal(got, brute_force_covisibility(scene))

    def test_diagonal_exactly_one(self, small_scene):
        g = covisibility(small_scene)
        np.testing.assert_array_equal(np.diag(g.fraction), 1.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, -1e-300])
    def test_rejects_bad_tolerance(self, small_scene, tol):
        with pytest.raises(InvalidValueError, match="rel_depth_tol"):
            covisibility(small_scene, rel_depth_tol=tol)

    def test_zero_tolerance_is_valid(self, small_scene):
        g = covisibility(small_scene, rel_depth_tol=0.0)
        assert np.all(g.fraction <= covisibility(small_scene).fraction)


class TestCovisBlocks:
    """Each row runs its (target, pixel) pairs in blocks of at most
    viewgraph._COVIS_BLOCK; the block size never changes a bit of the result."""

    SCENES = {
        "eight_view_64": lambda: gen_scene(n_views=8, width=64, height=64, n_spheres=5, seed=12, plane=True)[1],
        "mixed_resolution": _mixed_resolution_scene,
        "opposite_facing": _opposite_facing_scene,
    }

    @pytest.fixture(scope="class")
    def cases(self):
        scenes = {name: make() for name, make in self.SCENES.items()}
        return {name: (s, brute_force_covisibility(s), covisibility(s).fraction) for name, s in scenes.items()}

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("block", [1, 7, 100, viewgraph._COVIS_BLOCK])
    @pytest.mark.parametrize("name", list(SCENES))
    def test_block_size_never_changes_result(self, cases, monkeypatch, name, block, jobs):
        scene, brute, default = cases[name]
        monkeypatch.setattr(viewgraph, "_COVIS_BLOCK", block)
        got = covisibility(scene, jobs=jobs).fraction
        np.testing.assert_array_equal(got, brute)
        np.testing.assert_array_equal(got, default)

    def test_peak_memory_below_a_few_dense_pair_arrays(self):
        _, scene = gen_scene(n_views=24, width=168, height=168, n_spheres=5, seed=3, plane=True)
        dense = 24 * max(int(v.depth.validity.sum()) for v in scene.views) * 8
        tracemalloc.start()
        try:
            covisibility(scene, jobs=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Each row gathers only its own view's pixels. The stacked target
        # depth maps take 1 of these, the block buffers of _COVIS_BLOCK pairs
        # (seven float64, two int64) about 0.9, and the row's gathered pixels
        # the rest: the peak is near 2.4.
        assert peak < 4 * dense


class TestAdjacency:
    def _graph(self, f01, f10):
        f = np.eye(2)
        f[0, 1] = f01
        f[1, 0] = f10
        return CovisGraph(f)

    def test_max_rule(self):
        adj = build_adjacency(self._graph(0.3, 0.1))
        assert adj[0, 1] and adj[1, 0]

    def test_below_threshold(self):
        adj = build_adjacency(self._graph(0.2, 0.2))
        assert not adj.any()

    def test_threshold_zero_complete(self):
        rng = np.random.default_rng(0)
        f = rng.random((5, 5)) * 0.5
        np.fill_diagonal(f, 1.0)
        adj = build_adjacency(CovisGraph(f), threshold=0.0)
        assert adj.sum() == 20  # complete minus self loops
        assert not adj.diagonal().any()

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_threshold(self, threshold):
        with pytest.raises(InvalidValueError, match="threshold"):
            build_adjacency(self._graph(0.3, 0.1), threshold=threshold)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.5])
    def test_graph_rejects_fraction_out_of_range(self, bad):
        f = np.eye(3)
        f[2, 0] = bad
        with pytest.raises(InvalidValueError, match="fractions"):
            CovisGraph(f)

    def test_empty_graph(self):
        assert CovisGraph(np.zeros((0, 0))).n == 0


class TestRandomWalk:
    def _path_graph(self, n):
        adj = np.zeros((n, n), dtype=bool)
        for i in range(n - 1):
            adj[i, i + 1] = adj[i + 1, i] = True
        return adj

    def test_single_view(self):
        out = random_walk_sample(self._path_graph(3), 1, rng_seed=0)
        assert len(out) == 1

    def test_path_graph_full(self):
        out = random_walk_sample(self._path_graph(3), 3, rng_seed=5)
        assert sorted(out) == [0, 1, 2]

    def test_insufficient_component(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        adj[2, 3] = adj[3, 2] = True
        with pytest.raises(InsufficientComponentError):
            random_walk_sample(adj, 3, rng_seed=0)

    @pytest.mark.parametrize("adj", [np.ones((1, 3), dtype=bool), np.ones(3, dtype=bool)])
    def test_non_square_adjacency(self, adj):
        with pytest.raises(ShapeError, match="square"):
            random_walk_sample(adj, 2, rng_seed=0)

    def test_asymmetric_adjacency(self):
        # a directed edge: a walk from node 1 would find no way on
        for seed in range(4):
            with pytest.raises(InvalidValueError, match="symmetric"):
                random_walk_sample(np.array([[0, 1], [0, 0]]), 2, rng_seed=seed)

    def test_negative_seed(self):
        with pytest.raises(InvalidValueError, match="non-negative integer"):
            random_walk_sample(self._path_graph(3), 2, rng_seed=-1)

    def test_view_count_must_be_an_integer(self):
        # numpy integers pass
        with pytest.raises(InvalidValueError, match="view counts must be integers, got 2.5"):
            random_walk_sample(self._path_graph(3), 2.5, rng_seed=0)
        assert len(random_walk_sample(self._path_graph(3), np.int64(2), rng_seed=0)) == 2

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(1)
        adj = rng.random((12, 12)) < 0.25
        adj = adj | adj.T
        np.fill_diagonal(adj, False)
        a = random_walk_sample(adj, 5, rng_seed=42)
        b = random_walk_sample(adj, 5, rng_seed=42)
        assert a == b

    def test_connected_1000_random_graphs(self):
        rng = np.random.default_rng(2)
        for trial in range(1000):
            n = int(rng.integers(4, 16))
            adj = rng.random((n, n)) < rng.uniform(0.15, 0.6)
            adj = adj | adj.T
            np.fill_diagonal(adj, False)
            comps = max(
                len(c) for c in _components_ref(adj)
            )
            k = int(rng.integers(1, comps + 1))
            out = random_walk_sample(adj, k, rng_seed=trial)
            assert len(out) == k
            assert len(set(out)) == k
            assert is_connected(adj, out)


def _components_ref(adj):
    n = adj.shape[0]
    seen = [False] * n
    comps = []
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
        comps.append(comp)
    return comps


class TestInputConfigSampler:
    def test_conditional_structure(self):
        hits = 0
        for seed in range(300):
            cfg = sample_input_config(4, metric_gt_available=True, rng_seed=seed)
            if not cfg.geometric_enabled:
                assert not any(cfg.rays_given + cfg.pose_given + cfg.depth_given)
                assert not (cfg.rays_selected or cfg.pose_selected or cfg.depth_selected)
                hits += 1
            for s, g in zip(cfg.depth_sparse, cfg.depth_given):
                assert not (s and not g)
        assert hits > 0

    def test_view_count_must_be_an_integer(self):
        # numpy integers pass
        with pytest.raises(InvalidValueError, match="view counts must be integers, got 2.5"):
            sample_input_config(2.5, True, 0)
        assert sample_input_config(np.int64(2), True, 0).n_views == 2

    def test_modalities_view_count_must_be_an_integer(self):
        with pytest.raises(InvalidValueError, match="view counts must be integers, got 2.5"):
            InputConfig.from_modalities(2.5)
        assert InputConfig.from_modalities(np.int64(2), rays=True).n_views == 2

    def test_metric_flags_require_availability(self):
        for seed in range(50):
            cfg = sample_input_config(3, metric_gt_available=False, rng_seed=seed)
            assert not cfg.metric_pose_scale_given
            assert not cfg.metric_depth_scale_given

    def test_marginals_20k(self):
        n = 20_000
        draws = [sample_input_config(4, metric_gt_available=True, rng_seed=s) for s in range(n)]
        geo = sum(c.geometric_enabled for c in draws)
        assert abs(geo / n - 0.9) < 0.02
        among = [c for c in draws if c.geometric_enabled]
        for attr in ("rays_selected", "pose_selected", "depth_selected"):
            k = sum(getattr(c, attr) for c in among)
            assert abs(k / len(among) - 0.5) < 0.02
        per_view_n = per_view_k = 0
        for c in among:
            if c.rays_selected:
                per_view_n += c.n_views
                per_view_k += sum(c.rays_given)
        assert abs(per_view_k / per_view_n - 0.95) < 0.02
        withheld = sum(c.metric_withheld for c in draws)
        assert abs(withheld / n - 0.05) < 0.02
        depth_sel = [c for c in among if c.depth_selected]
        sparse = sum(c.depth_sparse_mode for c in depth_sel)
        assert abs(sparse / len(depth_sel) - 0.5) < 0.02
        # chi-square sanity on the master draw
        p = stats.chisquare([geo, n - geo], f_exp=[0.9 * n, 0.1 * n]).pvalue
        assert p > 0.001


class TestSparsifyDepth:
    def _depth(self, seed=0, shape=(25, 40)):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(1.0, 9.0, size=shape)
        valid = rng.random(shape) < 0.8
        return DepthAlongRay(np.where(valid, vals, 0.0), valid)

    def test_under_ten_valid_pixels_keep_none(self):
        # floor(SPARSE_KEEP_FRACTION * 9) = 0
        valid = np.zeros((25, 40), dtype=bool)
        valid[3, :9] = True
        out = sparsify_depth(DepthAlongRay(np.where(valid, 2.0, 0.0), valid), rng_seed=3)
        assert not out.validity.any()
        assert np.all(out.values == 0.0)

    def test_floor_count(self):
        assert SPARSE_KEEP_FRACTION == 0.1
        for n_valid, kept in ((1000, 100), (999, 99), (10, 1)):
            valid = (np.arange(1000) < n_valid).reshape(25, 40)
            out = sparsify_depth(DepthAlongRay(np.where(valid, 1.0, 0.0), valid), rng_seed=0)
            assert out.validity.sum() == kept
            assert np.all(out.validity <= valid)

    def test_retained_bit_equal_and_deterministic(self):
        d = self._depth(seed=5)
        a = sparsify_depth(d, rng_seed=9)
        b = sparsify_depth(d, rng_seed=9)
        np.testing.assert_array_equal(a.values, b.values)
        assert np.all(a.validity <= d.validity)
        kept = a.validity
        np.testing.assert_array_equal(a.values[kept], d.values[kept])
        assert np.all(a.values[~kept] == 0.0)
