"""Benchmark workloads run against the current mapt, as perfbench/run.py runs them.

perfbench/workloads.py spans the CLI by swapping names that mapt.cli imports
(``CliSmall.SPANNED``, ``mio`` and ``Path``); its ``mio`` stand-in has only
the ``SPANNED_IO`` functions. A change to mapt.cli that drops one of those
imports, or calls another mapt.io function, breaks that workload. The
cli-small test runs its warm-up scene the way ``perfbench/run.py --trace 1``
does; the other workloads' warm-up scenes are checked against the same
reference file.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_small_warmup_scene_instrumented(tmp_path):
    wl, tracer = _load("workloads"), _load("tracer").Tracer()
    tracer.enabled = True
    ops = wl.Ops(tracer)
    workload = wl.CliSmall()
    workload.setup(ops)
    with workload.instrumented(ops):
        summary, _ = ops.scene(workload, wl.WARMUP_SEED, tmp_path)
    assert ops.failed == 0, ops.categories
    assert ops.problems == []
    reference = json.loads((PERFBENCH / "reference.json").read_text())["cli-small"]
    assert wl.compare_reference(summary, reference) == []
    spanned = {s["name"] for s in tracer.spans}
    assert {f"io.{fn}" for fn in workload.SPANNED_IO} <= spanned
    assert {"viewgraph.covisibility", "io.write_json", "io.read_json"} <= spanned


@pytest.mark.parametrize("name", ["wide24", "hires4", "views100"])
def test_warmup_scene_matches_reference(tmp_path, name):
    # wide24 has 24 views of 144 patches: the global layers attend over 3457
    # tokens in several query blocks. Every workload's outputs must stay
    # within the reference gate.
    wl = _load("workloads")
    ops = wl.Ops(_load("tracer").Tracer())
    workload = wl.WORKLOADS[name]()
    workload.setup(ops)
    summary, _ = ops.scene(workload, wl.WARMUP_SEED, tmp_path)
    assert ops.failed == 0, ops.categories
    assert ops.problems == []
    reference = json.loads((PERFBENCH / "reference.json").read_text())[name]
    assert wl.compare_reference(summary, reference) == []
