"""Command-line surface tying the library into reproducible pipelines."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import io as mio
from .errors import InvalidModalityError, InvalidValueError, MaptError
# perfbench's cli-small workload swaps mio, Path and compose_scene_points for spanned stand-ins, so
# these names stay; its mio has only the scene readers and writers and write_ply, which export-ply calls
from .geometry import _pool_bands, _pool_composed, compose_scene_points
from .io import _json_text, covis_document, read_covis, read_model_config
from .losses import (
    DEFAULT_ALPHA_CONF,
    DEFAULT_EXCLUDE_TOP,
    DEFAULT_KERNEL,
    loss_weights,
    total_loss,
)
from .metrics import AUC_DEFAULT_DEG, TAU_DEFAULT, evaluate_scene
from .network import ModelConfig, forward, init_weights
from .synth import _shade_rows, gen_scene, shade_view
from .viewgraph import (
    DEFAULT_COVIS_THRESHOLD,
    DEFAULT_REL_DEPTH_TOL,
    InputConfig,
    build_adjacency,
    covisibility,
    random_walk_sample,
    sparsify_depth,
)

VALID_MODALITIES = ("rays", "pose", "depth", "depth_sparse")


def _emit(obj, out: str | None) -> None:
    text = _json_text(obj)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


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
    _emit(covis_document(graph, args.tol), args.out)
    return 0


def cmd_sample(args) -> int:
    adj = build_adjacency(read_covis(Path(args.covis)), threshold=args.threshold)
    views = random_walk_sample(adj, args.n, args.seed)
    doc = {"version": 1, "threshold": float(args.threshold), "seed": args.seed, "n_views": len(views), "views": views}
    _emit(doc, args.out)
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
    config = {"align_points": bool(args.align_points), "tau_threshold": TAU_DEFAULT, "auc_threshold_deg": AUC_DEFAULT_DEG}
    _emit({"version": 1, "config": config, "metrics": report.as_dict()}, args.out)
    return 0


def cmd_forward(args) -> int:
    scene = mio.read_scene(args.scene)
    wanted = [t for t in args.inputs.split(",") if t]
    for t in wanted:
        if t not in VALID_MODALITIES:
            raise InvalidModalityError(f"unknown input modality {t!r}; valid: {', '.join(VALID_MODALITIES)}")

    model_cfg = read_model_config(Path(args.config)) if args.config else ModelConfig()
    weights = init_weights(model_cfg, args.seed)
    # the modality names are from_modalities' switches; depth_sparse implies depth
    config = InputConfig.from_modalities(scene.n_views, **{t: t in wanted for t in VALID_MODALITIES})
    images = [shade_view(v.rays, v.depth).astype(np.float64) for v in scene.views]
    rays = [v.rays for v in scene.views] if config.rays_selected else None
    poses = [v.pose for v in scene.views] if config.pose_selected else None
    depths = None
    if config.depth_selected:
        depths = [
            sparsify_depth(v.depth, args.seed + i) if config.depth_sparse_mode else v.depth
            for i, v in enumerate(scene.views)
        ]
    out = forward(images, config, weights, rays=rays, depths=depths, poses=poses)
    mio.write_factored(args.out, out.as_factored_scene())
    print(f"wrote predicted scene to {args.out}")
    return 0


def cmd_export_ply(args) -> int:
    scene = mio.read_factored(args.scene)
    views, masks = scene.views, [v.depth.validity for v in scene.views]
    # the metric points and the colors of shade_view's float32 image are made
    # and gathered one row band at a time: no whole grid, image or float color array
    composed = [(v.rays.directions, v.depth.validity, v.depth.values, v.pose, scene.scale.value) for v in views]
    points = _pool_composed(masks, composed)

    def colors(i, s):
        return np.round(_shade_rows(views[i].rays, views[i].depth, s).astype(np.float32) * 255.0).astype(np.uint8)

    mio.write_ply(args.out, points, _pool_bands(masks, (colors, np.uint8, (3,)))[1])
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built once per process (about 1 ms): a parse leaves nothing in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
