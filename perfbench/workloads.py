"""The benchmark workloads: one closed-loop scene of each, with output checks.

Each workload drives the mapt pipeline from outside the package through its
public functions (or, for ``cli-small``, through in-process ``mapt.cli.main``).
A scene's inputs come from the benchmark seed and the scene index only. Every
public call goes through ``Ops``, which opens a span around it (when tracing)
and counts it as attempted, and as failed when it raises or its output fails a
check.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import shutil
import types
from collections import Counter
from pathlib import Path

import numpy as np

from mapt import cli
from mapt import io as mio
from mapt.errors import MaptError
from mapt.geometry import (
    DepthAlongRay,
    FactoredScene,
    FactoredView,
    MetricScale,
    Pose,
    RayMap,
    compose_scene_points,
    local_pointmap,
)
from mapt.losses import loss_gradient_matching, loss_normal, total_loss
from mapt.metrics import evaluate_scene, pose_angular_errors
from mapt.network import ModelConfig, alternating_attention, decode_heads, encode_inputs, init_weights
from mapt.synth import gen_scene, shade_view
from mapt.viewgraph import InputConfig, build_adjacency, covisibility, random_walk_sample

# Covisibility runs on 2 worker threads, the CPU count of the machine the
# workloads were sized on; fixed so that results compare across machines.
JOBS = 2
WEIGHTS_SEED = 1
# The untimed warm-up scene uses this fixed seed, so its outputs can be
# compared with values recorded in reference.json.
WARMUP_SEED = 7
# Relative tolerance of that comparison; integer outputs must match exactly.
REF_RTOL = 1e-9
REF_ATOL = 1e-12
UNIT_TOL = 1e-9
# cli-small samples 3 of 4 views at this covisibility threshold. At the
# default 0.25 about 0.7% of scenes have no 3-view component, and sample
# correctly fails with insufficient-component; at 0.1 none of 1500 seeds did.
SAMPLE_THRESHOLD = 0.1
PLY_RECORD_BYTES = 15  # 3 x float32 + 3 x uint8


def scene_seed(seed: int, index: int) -> int:
    """Generator seed of scene ``index`` of a run started with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def path_bytes(path) -> tuple[int, int]:
    """(bytes, files) of a file, or of the files directly inside a directory."""
    p = Path(path)
    files = [f for f in p.iterdir() if f.is_file()] if p.is_dir() else [p]
    return sum(f.stat().st_size for f in files), len(files)


class Ops:
    """Calls into mapt with spans and failure accounting.

    ``problems`` collects output-check failures and errors that are not a
    verified correct answer; any entry makes the run incorrect.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.categories: Counter = Counter()
        self.problems: list[str] = []

    def _fail(self, name: str, category: str, problem: str | None) -> None:
        self.failed += 1
        self.categories[category] += 1
        if problem is not None:
            self.problems.append(f"{name}: {problem}")

    def check(self, name: str, problem: str | None) -> None:
        """Count the output of the last ``name`` call as failed when ``problem`` is set."""
        if problem:
            self._fail(name, "check", problem)

    def call(self, name, fn, *args, check=None, expected=None, io_path=None, **kwargs):
        """Run ``fn`` under a span named ``name``.

        ``check(out)`` returns None or a description of what is wrong.
        ``expected(category)`` returns True when a raised MaptError is the
        correct answer for the input (it still counts as failed). ``io_path`` names the
        file or directory the call reads or writes, for the byte counts.
        """
        self.attempted += 1
        try:
            with self.tracer.span(name) as rec:
                out = fn(*args, **kwargs)
        except MaptError as exc:
            ok = expected is not None and expected(exc.category)
            self._fail(name, exc.category, None if ok else f"{exc.category}: {exc}")
            raise
        if rec is not None and io_path is not None:
            rec["bytes"], rec["files"] = path_bytes(io_path)
        if check is not None:
            self.check(name, check(out))
        return out

    def scene(self, workload, seed: int, workdir: Path):
        """One scene of ``workload``: (summary, state), or (None, None) when it stopped early."""
        try:
            return workload.scene(self, seed, workdir)
        except MaptError:  # already counted by call()
            return None, None
        except Exception as exc:  # the loop goes on, and reports the crash as a failure
            self._fail("scene", type(exc).__name__, repr(exc))
            return None, None

    def cli(self, argv, check=None, expected=None) -> int:
        """Run one ``mapt`` command in-process; a failure must be one ``error:`` line."""
        name = f"cli.{argv[0]}"
        self.attempted += 1
        out, err = stdio.StringIO(), stdio.StringIO()
        with self.tracer.span(name), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
        lines = err.getvalue().splitlines()
        if code == 0:
            if lines:
                self._fail(name, "check", f"exit 0 but stderr {lines!r}")
            elif check is not None:
                self.check(name, check(out.getvalue()))
            return code
        parts = lines[0].split(": ", 2) if len(lines) == 1 else []
        if len(parts) != 3 or parts[0] != "error":
            self._fail(name, "check", f"exit {code} without one 'error: <category>: <message>' line: {lines!r}")
        else:
            ok = expected is not None and expected(parts[1])
            self._fail(name, parts[1], None if ok else lines[0])
        return code


# ---------------------------------------------------------------------------
# output checks (each returns None or what is wrong)


def _largest_component(adj: np.ndarray) -> int:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    best = 0
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack, size = [s], 0
        while stack:
            u = stack.pop()
            size += 1
            for w in np.flatnonzero(adj[u] & ~seen):
                seen[w] = True
                stack.append(int(w))
        best = max(best, size)
    return best


def check_covis(frac: np.ndarray):
    if not np.all(np.diag(frac) == 1.0):
        return "covisibility diagonal is not 1"
    if np.min(frac) < 0.0 or np.max(frac) > 1.0:
        return "covisibility entry outside [0, 1]"
    return None


def check_sample(adj: np.ndarray, views, n: int):
    views = [int(v) for v in views]
    if len(views) != n or len(set(views)) != n:
        return f"sample is not {n} distinct views: {views}"
    if _largest_component(adj[np.ix_(views, views)]) != n:
        return f"sampled views {views} are not connected"
    return None


def no_component_of(adj: np.ndarray, n: int):
    """``expected`` predicate: insufficient-component is right when no component has n views."""
    return lambda category: category == "insufficient-component" and _largest_component(adj) < n


def check_prediction(views, scale: float):
    """Parameterization constraints of a predicted scene."""
    for i, v in enumerate(views):
        d = v.rays.directions
        if np.max(np.abs(np.linalg.norm(d, axis=2) - 1.0)) > UNIT_TOL or np.min(d[:, :, 2]) <= 0.0:
            return f"view {i}: rays not unit and front-facing"
        if np.min(v.depth.values[v.depth.validity]) <= 0.0:
            return f"view {i}: non-positive depth"
        q = v.pose.rotation
        if abs(np.linalg.norm(q) - 1.0) > UNIT_TOL or q[0] < 0.0:
            return f"view {i}: quaternion not unit with w >= 0"
        if v.confidence is not None and np.min(v.confidence) < 1.0:
            return f"view {i}: confidence below 1"
        if v.mask_prob is not None and (np.min(v.mask_prob) < 0.0 or np.max(v.mask_prob) > 1.0):
            return f"view {i}: mask probability outside [0, 1]"
    if not scale > 0.0:
        return "scale not positive"
    return None


def check_loss(terms: dict):
    # the confidence-weighted pointmap term, and so the total, can be negative
    bad = [k for k, v in terms.items() if v is None or not np.isfinite(v) or (v < 0.0 and k not in ("pointmap", "total"))]
    return f"loss terms not finite and >= 0: {bad}" if bad else None


def check_metrics(m: dict):
    bad = [k for k, v in m.items() if v is None or not np.isfinite(v) or v < 0.0]
    bad += [k for k in ("depth_tau", "points_tau", "pose_auc5") if m.get(k) is not None and m[k] > 1.0]
    return f"metrics out of range: {bad}" if bad else None


def check_ply(path, n_points: int):
    with open(path, "rb") as f:
        head = f.read(512)
    header_end = head.find(b"end_header\n") + len(b"end_header\n")
    if f"element vertex {n_points}\n".encode() not in head[:header_end]:
        return "PLY vertex count differs from the valid pixels exported"
    if Path(path).stat().st_size - header_end != PLY_RECORD_BYTES * n_points:
        return "PLY payload size differs from the vertex count"
    return None


def compare_reference(got, want, where: str = "") -> list[str]:
    """Differences between a warm-up summary and its recorded reference."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ"]
        return [d for k in want for d in compare_reference(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, float) or isinstance(got, float):
        if want is None or got is None:
            return [] if want is got else [f"{where}: {got} != {want}"]
        ok = np.isclose(got, want, rtol=REF_RTOL, atol=REF_ATOL) or (np.isnan(got) and np.isnan(want))
        return [] if ok else [f"{where}: {got!r} != {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


# ---------------------------------------------------------------------------
# shared steps


def _floats(d: dict) -> dict:
    return {k: float(v) for k, v in d.items()}


def export_ply(ops: Ops, scene: FactoredScene, path: Path) -> int:
    """compose_scene_points + shade_view + write_ply, as the export-ply command does."""
    pointmaps = ops.call("geometry.compose_scene_points", compose_scene_points, scene)
    pts, cols = [], []
    for view, pm in zip(scene.views, pointmaps):
        img = ops.call("synth.shade_view", shade_view, view.rays, view.depth)
        pts.append(pm.points[pm.validity])
        cols.append(np.round(img[pm.validity] * 255.0).astype(np.uint8))
    n = sum(p.shape[0] for p in pts)
    ops.call(
        "io.write_ply", mio.write_ply, path, np.concatenate(pts), np.concatenate(cols),
        check=lambda _: check_ply(path, n), io_path=path,
    )
    return n


def loss_and_eval(ops: Ops, pred: FactoredScene, gt, align_points: bool) -> dict:
    rep = ops.call("losses.total_loss", total_loss, pred, gt, synthetic=True, check=lambda r: check_loss(r.as_dict()))
    met = ops.call(
        "metrics.evaluate_scene", evaluate_scene, pred, gt, align_points=align_points,
        check=lambda m: check_metrics(m.as_dict()),
    )
    return {"loss": _floats(rep.as_dict()), "metrics": _floats(met.as_dict())}


def probe_losses_metrics(ops: Ops, pred: FactoredScene, gt) -> None:
    """Extra calls for the loss terms and the pose loop that total_loss and
    evaluate_scene make internally."""
    pr_local = [local_pointmap(v.rays, v.depth) for v in pred.views]
    gt_local = [local_pointmap(v.rays, v.depth) for v in gt.views]
    ops.call("losses.loss_normal", loss_normal, pr_local, gt_local)
    ops.call(
        "losses.loss_gradient_matching", loss_gradient_matching,
        [pm.points[:, :, 2] for pm in pr_local], [pm.points[:, :, 2] for pm in gt_local],
        [v.depth.validity for v in gt.views],
    )
    ops.call("metrics.pose_angular_errors", pose_angular_errors, [v.pose for v in pred.views], [v.pose for v in gt.views])


def scene_counts(gt, pred_valid_px: int, covis, network_shape, config: ModelConfig) -> dict:
    """Work counts of one scene; attention bytes and flops are computed, not measured.

    ``covis`` is the covisibility matrix or None, ``network_shape`` the
    (views, patches per view) of the forward pass or None.
    """
    n = len(gt.views)
    valid = int(sum(int(v.depth.validity.sum()) for v in gt.views))
    out = {"synth.valid_px": valid, "losses.valid_px": pred_valid_px, "metrics.pose_pairs": n * (n - 1)}
    if covis is not None:
        pairs = n * (n - 1)
        out["viewgraph.pairs"] = pairs
        out["viewgraph.lifted_px"] = valid * (n - 1)
        out["viewgraph.covis_nonzero_frac"] = (int(np.count_nonzero(covis)) - n) / pairs
    if network_shape is not None:
        v, p = network_shape
        d, layers = config.dim, config.depth // 2
        t = v * p + 1
        out["network.tokens"] = t
        out["network.global_score_mb"] = config.heads * t * t * 8 / 1e6
        # per attention block over sequences of length s: q/k/v/out projections
        # 8 s d^2, scores and probs @ v 4 s^2 d
        frame = v * (8 * p * d * d + 4 * p * p * d)
        glob = 8 * t * d * d + 4 * t * t * d
        out["network.attn_gflop"] = layers * (frame + glob) / 1e9
    return out


def _pred_valid_px(pred, gt) -> int:
    return int(sum(int((p.depth.validity & g.depth.validity).sum()) for p, g in zip(pred.views, gt.views)))


# ---------------------------------------------------------------------------
# workloads


class NetworkWorkload:
    """gen_scene -> covisibility -> [adjacency + random walk] -> encode_inputs ->
    alternating_attention -> decode_heads -> total_loss -> evaluate_scene -> export."""

    def __init__(self, views, size, n_sample, inputs, align_points):
        self.views = views
        self.size = size  # (width, height)
        self.n_sample = n_sample
        self.inputs = inputs  # "" (images only) or "rays,pose"
        self.align_points = align_points
        self.weights = None

    def setup(self, ops: Ops) -> None:
        self.weights = ops.call("network.init_weights", init_weights, ModelConfig(), WEIGHTS_SEED)

    def scene(self, ops: Ops, seed: int, workdir: Path):
        w, h = self.size
        _, gt = ops.call(
            "synth.gen_scene", gen_scene, n_views=self.views, width=w, height=h, n_spheres=5, seed=seed, plane=True
        )
        graph = ops.call("viewgraph.covisibility", covisibility, gt, jobs=JOBS, check=lambda g: check_covis(g.fraction))
        summary = {
            "valid_px": int(sum(v.depth.validity.sum() for v in gt.views)),
            "covis_sum": float(graph.fraction.sum()),
            "covis_nonzero": int(np.count_nonzero(graph.fraction)),
        }
        if self.n_sample:
            adj = ops.call("viewgraph.build_adjacency", build_adjacency, graph)
            summary["sample"] = ops.call(
                "viewgraph.random_walk_sample", random_walk_sample, adj, self.n_sample, seed,
                check=lambda s: check_sample(adj, s, self.n_sample), expected=no_component_of(adj, self.n_sample),
            )
        given = self.inputs == "rays,pose"
        config = InputConfig.from_modalities(self.views, rays=given, pose=given)
        images = [v.image.astype(np.float64) for v in gt.views]
        tokens = ops.call(
            "network.encode_inputs", encode_inputs, images, config, self.weights,
            rays=[v.rays for v in gt.views] if given else None,
            poses=[v.pose for v in gt.views] if given else None,
        )
        attended = ops.call("network.alternating_attention", alternating_attention, tokens, self.weights)
        out = ops.call("network.decode_heads", decode_heads, attended, self.weights)
        pred = out.as_factored_scene()
        ops.check("network.decode_heads", check_prediction(pred.views, pred.scale.value))
        summary.update(loss_and_eval(ops, pred, gt, self.align_points))
        summary["ply_points"] = export_ply(ops, pred, workdir / "scene.ply")
        return summary, {"gt": gt, "pred": pred, "tokens": tokens, "covis": graph.fraction}

    def probe(self, ops: Ops, state: dict) -> None:
        gt, tokens = state["gt"], state["tokens"]
        depth = self.weights.config.depth
        ops.call("viewgraph.covisibility_jobs2", covisibility, gt, jobs=JOBS)
        ops.call("viewgraph.covisibility_jobs1", covisibility, gt, jobs=1)
        ops.call("network.attn_frame_layers", alternating_attention, tokens, self.weights, layer_types=("frame",) * depth)
        ops.call("network.attn_global_layers", alternating_attention, tokens, self.weights, layer_types=("global",) * depth)
        probe_losses_metrics(ops, state["pred"], gt)

    def counts(self, state: dict, workdir: Path) -> dict:
        gt, tokens = state["gt"], state["tokens"]
        return scene_counts(
            gt, _pred_valid_px(state["pred"], gt), state["covis"], tokens.tokens.shape[:2], self.weights.config
        )


class Hires4:
    """Ground truth at the paper's largest image size, a seeded perturbation of
    it as the prediction, then loss, eval, a factored round trip and export."""

    views, size = 4, (518, 388)

    def setup(self, ops: Ops) -> None:
        ops.call("network.init_weights", init_weights, ModelConfig(), WEIGHTS_SEED)

    def _prediction(self, ops: Ops, gt, rng) -> FactoredScene:
        arrays = []
        for v in gt.views:
            shape = v.depth.values.shape
            d = v.rays.directions + rng.normal(0.0, 1e-3, v.rays.directions.shape)
            d /= np.linalg.norm(d, axis=2, keepdims=True)
            depth = np.where(
                v.depth.validity, v.depth.values * np.exp(rng.normal(0.0, 0.02, shape)), rng.uniform(8.0, 12.0, shape)
            )
            q = v.pose.rotation + rng.normal(0.0, 0.01, 4)
            t = v.pose.translation + rng.normal(0.0, 0.02, 3)
            conf = 1.0 + np.exp(rng.normal(0.0, 0.5, shape))
            mask = np.clip(np.where(v.mask, 0.9, 0.1) + rng.normal(0.0, 0.05, shape), 0.0, 1.0)
            arrays.append((d, depth, q / np.linalg.norm(q), t, conf, mask))

        def build():
            views = [
                FactoredView(
                    rays=RayMap(d), depth=DepthAlongRay(depth, np.ones(depth.shape, dtype=bool)),
                    pose=Pose(q, t), confidence=conf, mask_prob=mask,
                )
                for d, depth, q, t, conf, mask in arrays
            ]
            return FactoredScene(views=views, scale=MetricScale(gt.scale.value * 1.1))

        return ops.call(
            "geometry.constructors", build, check=lambda p: check_prediction(p.views, p.scale.value)
        )

    def scene(self, ops: Ops, seed: int, workdir: Path):
        w, h = self.size
        _, gt = ops.call(
            "synth.gen_scene", gen_scene, n_views=self.views, width=w, height=h, n_spheres=5, seed=seed,
            plane=True, with_images=False,
        )
        pred = self._prediction(ops, gt, np.random.default_rng([seed, 1]))
        summary = {"valid_px": int(sum(v.depth.validity.sum() for v in gt.views))}
        summary.update(loss_and_eval(ops, pred, gt, align_points=True))
        want = abs(1.1 * gt.scale.value - gt.scale.value) / gt.scale.value
        if abs(summary["metrics"]["scale_rel"] - want) > 1e-12:
            ops.check("metrics.evaluate_scene", "scale_rel does not report the 10% scale error")
        path = workdir / "pred"
        ops.call("io.write_factored", mio.write_factored, path, pred, io_path=path)
        ops.call(
            "io.read_factored", mio.read_factored, path, check=lambda back: check_round_trip(pred, back), io_path=path
        )
        summary["ply_points"] = export_ply(ops, pred, workdir / "scene.ply")
        return summary, {"gt": gt, "pred": pred}

    def probe(self, ops: Ops, state: dict) -> None:
        probe_losses_metrics(ops, state["pred"], state["gt"])

    def counts(self, state: dict, workdir: Path) -> dict:
        gt = state["gt"]
        return scene_counts(gt, _pred_valid_px(state["pred"], gt), None, None, ModelConfig())


def check_round_trip(pred: FactoredScene, back: FactoredScene):
    """The container stores float32: a read must return exactly the float32-rounded writes."""

    def f32(a):
        return np.asarray(a, dtype=np.float32).astype(np.float64)

    for i, (a, b) in enumerate(zip(pred.views, back.views)):
        pairs = [
            (a.rays.directions, b.rays.directions), (a.depth.values, b.depth.values),
            (a.confidence, b.confidence), (a.mask_prob, b.mask_prob),
        ]
        if not all(np.array_equal(f32(x), y) for x, y in pairs) or not np.array_equal(a.depth.validity, b.depth.validity):
            return f"view {i} changed in the write_factored/read_factored round trip"
        if not np.allclose(a.pose.rotation, b.pose.rotation, rtol=0, atol=1e-12):
            return f"view {i} pose changed in the round trip"
    if back.scale.value != pred.scale.value:
        return "scale changed in the round trip"
    return None


class CliSmall:
    """The README CLI walkthrough, in-process, in one directory that each scene overwrites."""

    # calls mapt.cli makes into the other modules, spanned in traced runs
    SPANNED = {
        "gen_scene": "synth.gen_scene", "shade_view": "synth.shade_view",
        "covisibility": "viewgraph.covisibility", "build_adjacency": "viewgraph.build_adjacency",
        "random_walk_sample": "viewgraph.random_walk_sample", "init_weights": "network.init_weights",
        "forward": "network.forward", "total_loss": "losses.total_loss",
        "evaluate_scene": "metrics.evaluate_scene", "compose_scene_points": "geometry.compose_scene_points",
    }
    SPANNED_IO = ("write_scene", "write_factored", "read_scene", "read_factored", "write_ply")

    def setup(self, ops: Ops) -> None:
        ops.call("network.init_weights", init_weights, ModelConfig(), WEIGHTS_SEED)

    @contextlib.contextmanager
    def instrumented(self, ops: Ops):
        """Span the calls mapt.cli makes into the other modules, and its JSON
        file reads and writes, by swapping the names it imported for wrappers
        while the block runs."""

        def wrap(name, fn, io_arg=False):
            def inner(*args, **kwargs):
                with ops.tracer.span(name) as rec:
                    out = fn(*args, **kwargs)
                if rec is not None and io_arg:
                    rec["bytes"], rec["files"] = path_bytes(args[0])
                return out

            return inner

        class SpannedPath(type(Path())):
            """The CLI's JSON reads and writes, as io spans."""

            def read_text(self, *args, **kwargs):
                with ops.tracer.span("io.read_json") as rec:
                    text = super().read_text(*args, **kwargs)
                if rec is not None:
                    rec["bytes"], rec["files"] = path_bytes(self)
                return text

            def write_text(self, *args, **kwargs):
                with ops.tracer.span("io.write_json") as rec:
                    n = super().write_text(*args, **kwargs)
                if rec is not None:
                    rec["bytes"], rec["files"] = path_bytes(self)
                return n

        saved = {attr: getattr(cli, attr) for attr in [*self.SPANNED, "mio", "Path"]}
        try:
            for attr, name in self.SPANNED.items():
                setattr(cli, attr, wrap(name, saved[attr]))
            cli.mio = types.SimpleNamespace(
                **{fn: wrap(f"io.{fn}", getattr(mio, fn), io_arg=True) for fn in self.SPANNED_IO}
            )
            cli.Path = SpannedPath
            yield
        finally:
            for attr, fn in saved.items():
                setattr(cli, attr, fn)

    def scene(self, ops: Ops, seed: int, workdir: Path):
        d = workdir / "walkthrough"
        scene, pred = d / "scene", d / "pred"
        files = {k: d / f"{k}.json" for k in ("covis", "sample", "loss", "eval")}
        ply = d / "scene.ply"
        summary = {}
        ops.cli(["synth", "--seed", seed, "--views", 4, "--size", "56x56", "--spheres", 4, "--out", scene])
        if ops.cli(["covis", "--scene", scene, "--jobs", JOBS, "--out", files["covis"]]) != 0:
            return summary, {}
        frac = np.array(json.loads(files["covis"].read_text())["fraction"], dtype=np.float64)
        summary["covis_sum"] = float(frac.sum())
        ops.check("cli.covis", check_covis(frac))
        adj = np.maximum(frac, frac.T) >= SAMPLE_THRESHOLD
        np.fill_diagonal(adj, False)

        def sample_ok(_):
            summary["sample"] = json.loads(files["sample"].read_text())["views"]
            return check_sample(adj, summary["sample"], 3)

        code = ops.cli(
            ["sample", "--covis", files["covis"], "--threshold", SAMPLE_THRESHOLD, "--n", 3, "--seed", seed,
             "--out", files["sample"]],
            check=sample_ok, expected=no_component_of(adj, 3),
        )
        if code != 0:
            summary["sample"] = "insufficient-component"
        ops.cli(["forward", "--scene", scene, "--seed", WEIGHTS_SEED, "--inputs", "rays,pose", "--out", pred],
                check=lambda _: check_manifest_poses(pred))
        ops.cli(["loss", "--gt", scene, "--pred", pred, "--synthetic", "--out", files["loss"]],
                check=lambda _: self._read(files["loss"], "terms", summary, "loss", check_loss))
        ops.cli(["eval", "--gt", scene, "--pred", pred, "--align-points", "--out", files["eval"]],
                check=lambda _: self._read(files["eval"], "metrics", summary, "metrics", check_metrics))

        def ply_ok(stdout):
            summary["ply_points"] = int(stdout.split()[1])
            return check_ply(ply, summary["ply_points"])

        ops.cli(["export-ply", "--scene", scene, "--out", ply], check=ply_ok)
        return summary, {}

    @staticmethod
    def _read(path: Path, key: str, summary: dict, as_key: str, check):
        values = json.loads(path.read_text())[key]
        summary[as_key] = {k: None if v is None else float(v) for k, v in values.items()}
        return check(summary[as_key])

    def probe(self, ops: Ops, state: dict) -> None:
        pass

    def counts(self, state: dict, workdir: Path) -> dict:
        d = workdir / "walkthrough"
        gt = mio.read_scene(d / "scene")
        pred = mio.read_factored(d / "pred")
        covis = np.array(json.loads((d / "covis.json").read_text())["fraction"])
        config = ModelConfig()
        patches = (gt.views[0].rays.height // config.patch) * (gt.views[0].rays.width // config.patch)
        return scene_counts(gt, _pred_valid_px(pred, gt), covis, (len(gt.views), patches), config)


def check_manifest_poses(pred_dir: Path):
    manifest = json.loads((pred_dir / mio.MANIFEST_NAME).read_text())
    for i, view in enumerate(manifest["views"]):
        q = np.array(view["pose"][:4])
        if abs(np.linalg.norm(q) - 1.0) > 1e-6 or q[0] < 0.0:
            return f"view {i}: stored quaternion not unit with w >= 0"
    if not manifest["metric_scale"] > 0.0:
        return "stored scale not positive"
    return None


WORKLOADS = {
    "views100": lambda: NetworkWorkload(100, (56, 56), 24, "", align_points=True),
    "wide24": lambda: NetworkWorkload(24, (168, 168), 0, "rays,pose", align_points=False),
    "hires4": Hires4,
    "cli-small": CliSmall,
}


def clean(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
