"""Record the output digest of each (workload, seed) into digests.json.

    PYTHONPATH=src python3 perfbench/record_digests.py --seeds 128

A run whose seed is recorded fails unless its outputs hash to the recorded
digest, so re-record only when outputs are meant to change.  The digest
covers the first ladder pass of the seed's input pool, run and checked as
the benchmark runs it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import budget_ops, first_pass_digest  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=128, help="record seeds 0 .. N-1")
    args = ap.parse_args()
    work = os.path.join(os.path.dirname(HERE), ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    budget_ops()
    out = {}
    for name, w in sorted(workloads.WORKLOADS.items()):
        out[name] = {}
        for seed in range(args.seeds):
            workdir = tempfile.mkdtemp(dir=work)
            try:
                pool = w.inputs(seed, workdir, passes=1)
                out[name][str(seed)] = first_pass_digest(w, pool)
            finally:
                shutil.rmtree(workdir)
        print(name, "recorded", args.seeds, "seeds", flush=True)
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
