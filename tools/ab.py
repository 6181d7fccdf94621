"""Paired A/B runs of one benchmark workload: a base tree against this checkout.

    python tools/ab.py --base REV_OR_DIR --workload W [--pairs N] [--seed S] [--seconds T]

The change is this checkout's working tree. The base is a directory holding
another tree, or a git revision of this repository, which is exported with
``git archive`` into ``.perfbench_out/ab/<commit>/`` (and reused from there).
Each pair runs ``perfbench/run.py --trace 0`` once in each tree, in a fresh
process with the tree as working directory; which tree runs first alternates
from pair to pair, so that drift of the host's speed does not favour one side.

For every end-to-end metric in this checkout's ``BENCHMARK.json`` the script
prints the base median and interquartile range, the change median, and in
how many pairs the change was better, "better" following the metric's
``better`` field. Every run's result goes to
``.perfbench_out/BENCH_ab_<workload>.json``. The exit code is 1 when a run
fails, is not ``correct``, or has failed operations.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def base_tree(base: str) -> Path:
    """The directory ``base``, or the export of the git revision ``base``."""
    if Path(base).is_dir():
        return Path(base).resolve()
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{base}^{{commit}}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    tree = OUT / "ab" / sha
    if not tree.is_dir():
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha], capture_output=True, check=True).stdout
        part = tree.with_name(f"{sha}.part")
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(part, filter="data")
        part.rename(tree)
    return tree


def run(tree: Path, args) -> dict:
    """The result line of one untraced run.py in ``tree``, or a failed result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["returncode"] = proc.returncode
    if proc.returncode or not result["correct"] or result["failed"]:
        print(f"{tree}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}", file=sys.stderr)
    return result


def summary(runs: list[dict]) -> dict:
    """Per end-to-end metric: base median and IQR, change median, change wins."""
    table = {}
    for m in BENCH["end_to_end"]:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        pairs = [(r["base"]["metrics"][name]["value"], r["change"]["metrics"][name]["value"])
                 for r in runs if name in r["base"]["metrics"] and name in r["change"]["metrics"]]
        if not pairs:
            continue
        base, change = zip(*pairs)
        q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive") if len(base) > 1 else (base[0],) * 3
        table[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"], "pairs": len(pairs),
            "base_median": statistics.median(base), "base_iqr": q3 - q1, "change_median": statistics.median(change),
            "change_wins": sum(sign * (c - b) > 0 for b, c in pairs),
        }
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="a git revision of this repository, or a directory holding a tree")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in BENCH["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    args = ap.parse_args(argv)
    trees = {"base": base_tree(args.base), "change": ROOT}
    runs = []
    for k in range(args.pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        runs.append({"order": order, **{side: run(trees[side], args) for side in order}})
    ok = all(r[side]["returncode"] == 0 and r[side]["correct"] and not r[side]["failed"]
             for r in runs for side in trees)
    table = summary(runs)
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s a run, {args.pairs} pairs; base {trees['base']}")
    for name, t in table.items():
        print(f"{args.workload} {name} ({t['unit']}, {t['better']} is better): base {t['base_median']:.6g} "
              f"(IQR {t['base_iqr']:.3g}) -> change {t['change_median']:.6g}, change better in {t['change_wins']}/{t['pairs']}")
    print(f"every run correct with no failed operations: {ok}")
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "base": str(trees["base"]),
              "correct": ok, "metrics": table, "runs": runs}
    (OUT / f"BENCH_ab_{args.workload}.json").write_text(json.dumps(record) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
