"""Steadiness check of the benchmark: two sets of runs of one commit must agree.

Run from the repository root:

    python3 perfbench/check_steady.py

For each workload in BENCHMARK.json it makes one ``--trace 1`` run, then two
sets of ten runs with ``--trace 0``, each run with another seed (1-10, then
11-20). Per set and end-to-end metric it takes the median and the spread, the
distance between the first and third quartile as a share of the median. It
fails when any spread exceeds the metric's bound, when the second set's median
differs from the first set's by more than the bound (better or worse), or when
a run fails or reports incorrect outputs. The runs are written to
``.perfbench_out/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out" / "steady.json"
RUN_TIMEOUT_S = 180
SEEDS = 10
SETS = 2
FIRST_SEED = 1


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    result["wall_s"] = wall
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    record = {}
    for workload in (w["name"] for w in bench["workloads"]):
        run_once(bench, workload, FIRST_SEED, trace=1)
        sets = []
        for k in range(SETS):
            seeds = range(FIRST_SEED + k * SEEDS, FIRST_SEED + (k + 1) * SEEDS)
            sets.append([run_once(bench, workload, s, trace=0) for s in seeds])
        record[workload] = sets
        walls = [r["wall_s"] for runs in sets for r in runs]
        print(f"{workload}: {len(walls)} runs, wall per run median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            drift = max(abs(m - medians[0]) / medians[0] for m in medians[1:])
            bad_spread = max(spreads) > bound
            bad_drift = drift > bound
            ok &= not (bad_spread or bad_drift)
            print(
                f"  {name:14s} medians {' '.join(f'{m:.5g}' for m in medians)} {metric['unit']}; "
                f"spreads {' '.join(f'{s:.4f}' for s in spreads)}; drift {drift:.4f}; bound {bound}"
                + ("  SPREAD TOO WIDE" if bad_spread else "") + ("  MEDIAN DRIFT" if bad_drift else "")
            )
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(record) + "\n")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
