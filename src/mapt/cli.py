"""Command-line surface tying the library into reproducible pipelines."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import io as mio
from .errors import FormatError, InvalidModalityError, InvalidValueError, MaptError
from .geometry import _pool, compose_scene_points
from .losses import (
    DEFAULT_ALPHA_CONF,
    DEFAULT_EXCLUDE_TOP,
    DEFAULT_KERNEL,
    loss_weights,
    total_loss,
)
from .metrics import AUC_DEFAULT_DEG, TAU_DEFAULT, evaluate_scene
from .network import ModelConfig, forward, init_weights
from .synth import gen_scene, shade_view
from .viewgraph import (
    DEFAULT_COVIS_THRESHOLD,
    DEFAULT_REL_DEPTH_TOL,
    CovisGraph,
    InputConfig,
    build_adjacency,
    covisibility,
    random_walk_sample,
    sparsify_depth,
)

VALID_MODALITIES = ("rays", "pose", "depth", "depth_sparse")


def _jsonable(x):
    if isinstance(x, float) and math.isnan(x):
        return None
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(obj, out: str | None) -> None:
    text = json.dumps(_jsonable(obj), indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc


def _model_config(path: str) -> ModelConfig:
    """ModelConfig from a JSON object whose keys override the defaults."""
    overrides = _read_json(path)
    fields = [f.name for f in dataclasses.fields(ModelConfig)]
    valid = f"valid fields: {', '.join(fields)}"
    if not isinstance(overrides, dict):
        raise InvalidValueError(f"{path}: model config must be a JSON object; {valid}")
    unknown = [k for k in overrides if k not in fields]
    if unknown:
        raise InvalidValueError(f"{path}: unknown model config field(s) {', '.join(map(repr, unknown))}; {valid}")
    return ModelConfig(**overrides)


def _parse_size(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError as exc:
        raise InvalidValueError(f"--size must look like 64x48, got {text!r}") from exc


def cmd_synth(args) -> int:
    w, h = _parse_size(args.size)
    _, sample = gen_scene(
        n_views=args.views,
        width=w,
        height=h,
        n_spheres=args.spheres,
        seed=args.seed,
        metric_scale=args.metric_scale,
        with_images=False,
    )
    mio.write_scene(args.out, sample)
    print(f"wrote {args.views}-view scene to {args.out}")
    return 0


def cmd_covis(args) -> int:
    scene = mio.read_scene(args.scene)
    graph = covisibility(scene, rel_depth_tol=args.tol, jobs=args.jobs)
    _emit(
        {
            "version": 1,
            "n_views": graph.n,
            "rel_depth_tol": float(args.tol),
            "fraction": [[float(x) for x in row] for row in graph.fraction],
        },
        args.out,
    )
    return 0


def cmd_sample(args) -> int:
    data = _read_json(args.covis)
    if not isinstance(data, dict) or "fraction" not in data:
        raise FormatError(f"{args.covis}: covisibility file lacks 'fraction'")
    try:
        fraction = np.array(data["fraction"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer beyond float64
        raise FormatError(f"{args.covis}: 'fraction' is not a numeric matrix ({exc})") from exc
    graph = CovisGraph(fraction)
    adj = build_adjacency(graph, threshold=args.threshold)
    views = random_walk_sample(adj, args.n, args.seed)
    _emit(
        {
            "version": 1,
            "threshold": float(args.threshold),
            "seed": args.seed,
            "n_views": len(views),
            "views": views,
        },
        args.out,
    )
    return 0


def cmd_loss(args) -> int:
    gt = mio.read_scene(args.gt)
    pred = mio.read_factored(args.pred)
    report = total_loss(pred, gt, synthetic=args.synthetic)
    _emit(
        {
            "version": 1,
            "config": {
                "kernel_alpha": DEFAULT_KERNEL.alpha,
                "kernel_c": DEFAULT_KERNEL.c,
                "alpha_conf": DEFAULT_ALPHA_CONF,
                "exclude_top": DEFAULT_EXCLUDE_TOP,
                "synthetic": bool(args.synthetic),
            },
            "weights": loss_weights(),
            "terms": report.as_dict(),
            "total": report.total,
        },
        args.out,
    )
    return 0


def cmd_eval(args) -> int:
    gt = mio.read_scene(args.gt)
    pred = mio.read_factored(args.pred)
    report = evaluate_scene(pred, gt, align_points=args.align_points)
    _emit(
        {
            "version": 1,
            "config": {
                "align_points": bool(args.align_points),
                "tau_threshold": TAU_DEFAULT,
                "auc_threshold_deg": AUC_DEFAULT_DEG,
            },
            "metrics": report.as_dict(),
        },
        args.out,
    )
    return 0


def cmd_forward(args) -> int:
    scene = mio.read_scene(args.scene)
    n = scene.n_views
    wanted = [t for t in args.inputs.split(",") if t]
    for t in wanted:
        if t not in VALID_MODALITIES:
            raise InvalidModalityError(f"unknown input modality {t!r}; valid: {', '.join(VALID_MODALITIES)}")
    use_rays = "rays" in wanted
    use_pose = "pose" in wanted
    use_sparse = "depth_sparse" in wanted
    use_depth = "depth" in wanted or use_sparse

    model_cfg = _model_config(args.config) if args.config else ModelConfig()
    weights = init_weights(model_cfg, args.seed)
    config = InputConfig.from_modalities(
        n, rays=use_rays, pose=use_pose, depth=use_depth, depth_sparse=use_sparse
    )
    images = [shade_view(v.rays, v.depth).astype(np.float64) for v in scene.views]
    rays = [v.rays for v in scene.views] if use_rays else None
    poses = [v.pose for v in scene.views] if use_pose else None
    depths = None
    if use_depth:
        depths = [
            sparsify_depth(v.depth, args.seed + i) if use_sparse else v.depth
            for i, v in enumerate(scene.views)
        ]
    out = forward(images, config, weights, rays=rays, depths=depths, poses=poses)
    mio.write_factored(args.out, out.as_factored_scene())
    print(f"wrote predicted scene to {args.out}")
    return 0


def cmd_export_ply(args) -> int:
    scene = mio.read_factored(args.scene)
    pointmaps = compose_scene_points(scene)
    points = colors = np.zeros((0, 3))
    if pointmaps:  # _pool rejects a scene without views; its PLY is empty
        images = [shade_view(v.rays, v.depth) for v in scene.views]
        _, points, colors = _pool("export-ply", [pm.validity for pm in pointmaps], [pm.points for pm in pointmaps], images)
    mio.write_ply(args.out, points, np.round(colors * 255.0).astype(np.uint8))
    print(f"wrote {points.shape[0]} points to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is main's one invalid-value line; --help still exits 0
        raise InvalidValueError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="mapt", description="factored multi-view metric 3D toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic ground-truth scene")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--views", type=int, default=4)
    p.add_argument("--size", default="64x48", help="image size as WxH")
    p.add_argument("--spheres", type=int, default=4)
    p.add_argument("--metric-scale", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("covis", help="pairwise covisibility of a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_REL_DEPTH_TOL)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_covis)

    p = sub.add_parser("sample", help="random-walk view sampling from a covisibility matrix")
    p.add_argument("--covis", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_COVIS_THRESHOLD)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("loss", help="training losses of a prediction against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("eval", help="benchmark metrics of a prediction against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--align-points", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("forward", help="run the toy network on a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--config", default=None, help="JSON file with model config overrides")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inputs", default="", help="comma list of rays,pose,depth,depth_sparse")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("export-ply", help="export composed metric points as binary PLY")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_ply)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if any(isinstance(v, list) for v in vars(args).values()):  # argparse before 3.12 reads "--x=--" as []
            raise InvalidValueError("an option value cannot be '--'")
        return args.func(args)
    except MaptError as e:
        print(f"error: {e.category}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: io: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out-of-memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
