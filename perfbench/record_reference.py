"""Record the warm-up scene outputs of every workload into reference.json.

Run from the repository root only at a commit whose outputs are known good:

    python3 perfbench/record_reference.py

Later runs of run.py compare their warm-up scene with these values (integers
exactly, floats to workloads.REF_RTOL).
"""

import json
import os
import shutil
import sys

from run import HERE, OUT, import_workloads, pin_threads
from tracer import Tracer


def main() -> int:
    pin_threads()
    wl = import_workloads()
    reference = {}
    for name, make in wl.WORKLOADS.items():
        ops = wl.Ops(Tracer())
        workload = make()
        workdir = OUT / "work" / f"reference-{os.getpid()}"
        wl.clean(workdir)
        workload.setup(ops)
        summary, _ = workload.scene(ops, wl.WARMUP_SEED, workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        if ops.problems:
            print("\n".join(ops.problems), file=sys.stderr)
            return 1
        reference[name] = summary
        print(name, json.dumps(summary)[:200])
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
