"""Benchmark of the mapt pipeline: synth -> covis -> sample -> forward -> loss -> eval -> export.

Run from the repository root, for example:

    python3 perfbench/run.py --workload views100 --seed 3 --seconds 10 --trace 0

Workloads (see workloads.py and BENCHMARK.json): views100, wide24, hires4,
cli-small. Each run is one process and a closed loop with one client: a scene
is processed end to end, then the next one starts, until ``--seconds`` have
passed. The program under test is imported from ``src/`` of the checkout.

``--trace 0`` reports the end-to-end metrics with tracing and tracemalloc off.
``--trace 1`` reports the per-layer metrics: spans around every public call
on alternate scenes of the timed loop, extra probe calls, and a separate
tracemalloc pass for the peaks. Every metric is printed on its own line with
its unit; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The environment, the
per-scene times and (with ``--trace 1``) the spans are written to
``.perfbench_out/BENCH_<workload>_seed<seed>_trace<t>.json``. The exit code is
1 when an output check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

from tracer import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s is the median of this many set-ups: fresh interpreters, then the run itself
SETUP_SAMPLES = 3
# a scene percentile is reported only with at least this many scenes beyond it
TAIL_SAMPLES = 10
CHILD_TIMEOUT_S = 60
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCH["workloads"])
# metric -> unit, as BENCHMARK.json lists them
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
# "_s" per-layer metrics are busy (self) seconds per scene, except probes and
# init_weights, which are seconds per call.
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
LAYERS = ("synth", "viewgraph", "network", "losses", "metrics", "geometry", "io", "cli")
# timed-loop spans reported as "<span>_s"
TIMED_SPANS = (
    "synth.gen_scene", "synth.shade_view", "viewgraph.covisibility", "network.encode_inputs",
    "network.alternating_attention", "network.decode_heads", "losses.total_loss", "metrics.evaluate_scene",
    "geometry.compose_scene_points", "geometry.constructors", "cli.synth", "cli.covis", "cli.sample",
    "cli.forward", "cli.loss", "cli.eval", "cli.export-ply",
)
# probe spans reported as "<span>_s", seconds per call
PROBE_SPANS = (
    "viewgraph.covisibility_jobs1", "losses.loss_normal", "losses.loss_gradient_matching", "metrics.pose_angular_errors"
)
PROBE_METRICS = (
    *(f"{name}_s" for name in PROBE_SPANS),
    "viewgraph.covis_parallel_eff", "network.attn_frame_layer_s", "network.attn_global_layer_s",
)
NETWORK_SPANS = ("network.forward", "network.encode_inputs", "network.alternating_attention", "network.decode_heads")


def pin_threads() -> None:
    """Cap BLAS/OpenMP threads at the CPU count; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)


def git_commit():
    """Commit of the checkout, or None when it is not a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for f in sorted((ROOT / "src" / "mapt").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": NPROC,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def import_workloads():
    """Import the workloads, and mapt with them, from the checkout's src/ only."""
    sys.path.insert(0, str(ROOT / "src"))
    import mapt
    import workloads

    if Path(mapt.__file__).resolve().parent != ROOT / "src" / "mapt":
        raise SystemExit(f"mapt imported from {mapt.__file__}, not from {ROOT / 'src'}")
    return workloads


def set_up(name: str, tracer: Tracer):
    """import mapt + init_weights + one warm-up scene (fixed seed, checked against the reference)."""
    t0 = time.perf_counter()
    wl = import_workloads()
    ops = wl.Ops(tracer)
    workload = wl.WORKLOADS[name]()
    workdir = OUT / "work" / f"{name}-{os.getpid()}"
    wl.clean(workdir)
    tracer.scene = "setup"
    workload.setup(ops)
    summary, _ = ops.scene(workload, wl.WARMUP_SEED, workdir)
    seconds = time.perf_counter() - t0
    reference = json.loads((HERE / "reference.json").read_text()).get(name)
    if reference is None:
        ops.problems.append(f"reference.json has no entry for {name}")
    elif summary is not None:
        ops.problems.extend(f"reference{d}" for d in wl.compare_reference(summary, reference))
    return seconds, wl, workload, ops, workdir, summary


def child_setup_seconds(name: str) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up in a fresh interpreter failed:\n{proc.stdout}{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def timed_loop(wl, workload, ops, tracer: Tracer, seed: int, seconds: float, workdir: Path, alternate: bool):
    """Closed loop until ``seconds`` pass; with ``alternate`` every other scene is traced.

    Returns (scene times of untraced scenes, of traced scenes, loop wall time).
    """
    plain, traced = [], []
    start = end = time.perf_counter()
    k = 0
    while end - start < seconds:
        tracer.enabled = alternate and k % 2 == 0
        tracer.scene = k
        s0 = time.perf_counter()
        ops.scene(workload, wl.scene_seed(seed, k), workdir)
        end = time.perf_counter()
        (traced if tracer.enabled else plain).append(end - s0)
        k += 1
    tracer.enabled = False
    return plain, traced, end - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def layer_metrics(wl, timed: Tracer, memory: Tracer, probe: Tracer, counts: dict, n_traced: int) -> dict:
    m = dict.fromkeys(PER_LAYER, 0.0)
    scene_spans = [s for s in timed.spans if s["scene"] != "setup"]
    st = self_times(scene_spans)
    busy = defaultdict(float)
    for s in scene_spans:
        busy[s["name"]] += st[s["id"]] / n_traced
    for name in TIMED_SPANS:
        m[f"{name}_s"] = busy[name]
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = sum(v for k, v in busy.items() if k.startswith(layer + "."))
    for kind in ("write", "read"):
        io_spans = [s for s in scene_spans if s["name"].startswith(f"io.{kind}")]
        secs = sum(st[s["id"]] for s in io_spans)
        m[f"io.{kind}_s"] = secs / n_traced
        m[f"io.{kind}_mb_per_s"] = sum(s["bytes"] for s in io_spans) / 1e6 / secs if secs else 0.0
    inits = [s["end"] - s["start"] for s in timed.spans if s["name"] == "network.init_weights"]
    m["network.init_weights_s"] = statistics.mean(inits) if inits else 0.0

    dur = {s["name"]: s["end"] - s["start"] for s in probe.spans}
    for name in PROBE_SPANS:
        m[f"{name}_s"] = dur.get(name, 0.0)
    if "viewgraph.covisibility_jobs2" in dur:
        m["viewgraph.covis_parallel_eff"] = dur["viewgraph.covisibility_jobs1"] / (
            wl.JOBS * dur["viewgraph.covisibility_jobs2"]
        )
    for kind in ("frame", "global"):
        m[f"network.attn_{kind}_layer_s"] = dur.get(f"network.attn_{kind}_layers", 0.0) / wl.ModelConfig().depth

    def peak(names):
        spans = [s for s in memory.spans if s["name"] in names]
        return (max(s["peak_b"] for s in spans) - min(s["base_b"] for s in spans)) / 1e6 if spans else 0.0

    m["viewgraph.covisibility_peak_mb"] = peak({"viewgraph.covisibility"})
    m["network.forward_peak_mb"] = peak(set(NETWORK_SPANS))
    m["losses.total_loss_peak_mb"] = peak({"losses.total_loss"})
    m["metrics.evaluate_scene_peak_mb"] = peak({"metrics.evaluate_scene"})
    io_spans = [s for s in memory.spans if s["name"].startswith("io.")]
    m["io.bytes_written"] = sum(s["bytes"] for s in io_spans if s["name"].startswith("io.write"))
    m["io.bytes_read"] = sum(s["bytes"] for s in io_spans if s["name"].startswith("io.read"))
    m["io.files_written"] = sum(s["files"] for s in io_spans if s["name"].startswith("io.write"))
    m.update(counts)
    return m


def end_to_end(args, record: dict):
    """Timed loop with tracing and tracemalloc off; set-up measured several times."""
    setup_samples = [child_setup_seconds(args.workload) for _ in range(SETUP_SAMPLES - 1)]
    timed = Tracer()
    seconds, wl, workload, ops, workdir, _ = set_up(args.workload, timed)
    setup_samples.append(seconds)
    plain, _, wall = timed_loop(wl, workload, ops, timed, args.seed, args.seconds, workdir, alternate=False)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "scenes_per_s": len(plain) / wall,
        "scene_s_p50": statistics.median(plain),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} set-ups",
        "scenes_per_s": f"{len(plain)} scenes in {wall:.3f} s",
        "scene_s_p50": f"median of {len(plain)} scenes",
        "peak_rss_mb": "maximum resident set size of this process",
    }
    lines = []
    if len(plain) * 0.1 >= TAIL_SAMPLES:
        p90 = statistics.quantiles(plain, n=10)[-1]
        lines.append(f"scene_s_p90 = {p90:.6g} s (of {len(plain)} scenes)")
    else:
        lines.append(f"scene_s_p90 not reported: {len(plain)} scenes leave fewer than {TAIL_SAMPLES} beyond it")
    record.update(setup_samples_s=setup_samples, scene_times_s=plain)
    return ops, workdir, metrics, END_TO_END, notes, lines


def per_layer(args, record: dict):
    """Alternately traced timed loop, then a tracemalloc pass and probe calls on scene 0."""
    timed, memory, probe = Tracer(), Tracer(memory=True), Tracer()
    timed.enabled = True
    _, wl, workload, ops, workdir, _ = set_up(args.workload, timed)
    instrumented = getattr(workload, "instrumented", None)
    with instrumented(ops) if instrumented else contextlib.nullcontext():
        plain, traced, _ = timed_loop(wl, workload, ops, timed, args.seed, args.seconds, workdir, alternate=True)
        ops.tracer = memory
        memory.enabled, memory.scene = True, 0
        tracemalloc.start()
        try:
            _, state = ops.scene(workload, wl.scene_seed(args.seed, 0), workdir)
        finally:
            tracemalloc.stop()
            memory.enabled = False
    ops.tracer = probe
    probe.enabled, probe.scene = True, 0
    if state is not None:
        workload.probe(ops, state)
    counts = workload.counts(state, workdir) if state is not None else {}
    metrics = layer_metrics(wl, timed, memory, probe, counts, max(len(traced), 1))
    untraced = len(plain) / sum(plain) if plain else 0.0
    traced_rate = len(traced) / sum(traced)
    metrics["trace.untraced_scenes_per_s"] = untraced
    metrics["trace.traced_scenes_per_s"] = traced_rate
    metrics["trace.overhead_frac"] = 1.0 - traced_rate / untraced if untraced else 0.0

    notes = {k: f"self time over {len(traced)} traced scenes" for k in metrics}
    notes.update(dict.fromkeys(counts, "scene 0"))
    notes.update(dict.fromkeys(("io.bytes_written", "io.bytes_read", "io.files_written"), "scene 0"))
    notes.update({k: "tracemalloc pass on scene 0" for k in metrics if k.endswith("_peak_mb")})
    notes.update(dict.fromkeys(PROBE_METRICS, "probe calls on scene 0"))
    notes["viewgraph.covis_nonzero_frac"] = "share of the viewgraph.pairs ordered pairs of scene 0"
    notes["network.global_score_mb"] = "computed as heads * tokens^2 * 8 B, scene 0"
    notes["network.attn_gflop"] = "computed from the attention shapes, scene 0"
    notes["network.init_weights_s"] = "per call"
    notes["trace.untraced_scenes_per_s"] = f"{len(plain)} untraced scenes"
    notes["trace.traced_scenes_per_s"] = f"{len(traced)} traced scenes"
    notes["trace.overhead_frac"] = "1 - traced / untraced scenes_per_s"
    record.update(
        scene_times_s={"untraced": plain, "traced": traced},
        spans={"timed": timed.spans, "memory": memory.spans, "probe": probe.spans},
    )
    return ops, workdir, metrics, PER_LAYER, notes, []


def run_all(args) -> int:
    """Every workload, each in its own process; the last line combines their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), proc.stderr, sep="", end="\n", flush=True)
        code = max(code, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    combined["correct"] &= code == 0
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="print the set-up time of this interpreter and exit")
    args = ap.parse_args(argv)
    pin_threads()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        seconds, _, _, ops, workdir, _ = set_up(args.workload, Tracer())
        shutil.rmtree(workdir, ignore_errors=True)
        if ops.problems:
            print("\n".join(ops.problems), file=sys.stderr)
            return 1
        print(seconds)
        return 0

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    ops, workdir, metrics, units, notes, lines = (per_layer if args.trace else end_to_end)(args, record)
    record["env"] = environment()
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]} ({notes[name]})")
    for line in lines:
        print(f"{args.workload} {line}")
    print(f"{args.workload} failed_ops_frac = {ops.failed / ops.attempted:.6g} ratio ({ops.failed} of "
          f"{ops.attempted} calls; by category {dict(ops.categories)})")
    for problem in ops.problems:
        print(f"{args.workload} CHECK FAILED {problem}")

    result = {
        "correct": not ops.problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    record.update(result=result, failed_by_category=dict(ops.categories), problems=ops.problems)
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(record) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
