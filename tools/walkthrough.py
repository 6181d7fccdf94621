"""Run the extended CLI walkthrough, one ``python -m mapt.cli`` process per
command, and record what each command did.

    python tools/walkthrough.py OUT_DIR [SRC_DIR]

OUT_DIR must not exist yet. Every command runs with OUT_DIR as its working
directory and relative paths, so the outputs of two runs compare with
``diff -r``. SRC_DIR is the ``src`` directory whose ``mapt`` runs; it defaults
to the ``src`` next to this script, so the walkthrough of another tree (a
parent commit, say) runs with ``python tools/walkthrough.py out_a <tree>/src``.

Next to the files the commands write, OUT_DIR gets one ``NN_<command>.log``
per command: its argument list, its exit code, its stdout and its stderr.
The script exits 1 when a command's exit code is not the expected one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

# input files the failing commands read
INPUTS = {
    "config.json": json.dumps({"depth": 2, "dim": 32}),
    "config_unknown.json": json.dumps({"bogus": 1}),
    "not_json.json": "{depth: 2}",
    "covis_no_fraction.json": json.dumps({"n_views": 2}),
}

# (expected exit code, arguments): the README walkthrough, then stdout output,
# the other forward inputs, a 2-view scene whose eval has null metrics, a
# 3-view 518x392 scene whose exports span many row bands, and files that
# fail to parse
COMMANDS = [
    (0, "synth --seed 5 --views 4 --size 56x56 --spheres 4 --out scene/"),
    (0, "covis --scene scene/ --tol 0.05 --jobs 4 --out covis.json"),
    (0, "covis --scene scene/ --jobs 1 --out covis_jobs1.json"),
    (0, "covis --scene scene/"),
    (0, "sample --covis covis.json --threshold 0.25 --n 3 --seed 2"),
    (0, "sample --covis covis.json --n 3 --seed 2 --out sample.json"),
    (0, "forward --scene scene/ --seed 1 --inputs rays,pose --out pred/"),
    (0, "forward --scene scene/ --seed 1 --out pred_images/"),
    (0, "forward --scene scene/ --seed 1 --inputs depth_sparse --out pred_sparse/"),
    (0, "forward --scene scene/ --seed 1 --inputs rays --config config.json --out pred_config/"),
    (0, "loss --gt scene/ --pred pred/ --out loss.json"),
    (0, "loss --gt scene/ --pred pred/ --synthetic --out loss_synthetic.json"),
    (0, "loss --gt scene/ --pred pred_images/"),
    (0, "eval --gt scene/ --pred pred/ --align-points --out eval.json"),
    (0, "eval --gt scene/ --pred pred_images/ --out eval_images.json"),
    (0, "eval --gt scene/ --pred pred_sparse/"),
    (0, "export-ply --scene pred/ --out pred.ply"),
    (0, "export-ply --scene scene/ --out scene.ply"),
    (0, "synth --seed 3 --views 2 --size 28x28 --out scene2/"),
    (0, "forward --scene scene2/ --out pred2/"),
    (0, "eval --gt scene2/ --pred pred2/"),
    (0, "synth --seed 5 --views 3 --size 518x392 --out scene_large/"),
    (0, "forward --scene scene_large/ --seed 1 --inputs rays,pose --out pred_large/"),
    (0, "export-ply --scene scene_large/ --out scene_large.ply"),
    (0, "export-ply --scene pred_large/ --out pred_large.ply"),
    (1, "forward --scene scene/ --config config_unknown.json --out bad/"),
    (1, "forward --scene scene/ --config not_json.json --out bad/"),
    (1, "sample --covis not_json.json --n 2"),
    (1, "sample --covis covis_no_fraction.json --n 2"),
]


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[1])
    src = Path(argv[2]) if len(argv) == 3 else Path(__file__).resolve().parent.parent / "src"
    out.mkdir(parents=True)
    for name, text in INPUTS.items():
        (out / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    wrong = 0
    for k, (want, args) in enumerate(COMMANDS):
        args = args.split()
        run = subprocess.run([sys.executable, "-m", "mapt.cli", *args], cwd=out, env=env, capture_output=True, text=True)
        log = f"$ mapt {' '.join(args)}\nexit {run.returncode}\n--- stdout\n{run.stdout}--- stderr\n{run.stderr}"
        (out / f"{k:02d}_{args[0]}.log").write_text(log)
        if run.returncode != want:
            wrong += 1
            print(f"exit {run.returncode}, expected {want}: mapt {' '.join(args)}\n{run.stderr}", file=sys.stderr)
    print(f"{len(COMMANDS)} commands, {wrong} with an unexpected exit code")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
