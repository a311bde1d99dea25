"""braidmono benchmark: one seeded workload, closed loop, one op at a time.

    python3 perfbench/run.py --workload fan_roundtrip --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a fresh interpreter
(perfbench/worker.py) with PYTHONPATH=src, so the library under test is the
checkout's own source.  Set-up time is measured in several fresh
interpreters and reported as the median.  With --trace 0 the last stdout
line carries the end-to-end metrics of --seconds of ops; with --trace 1 a
separate, traced run of a fixed number of ladder passes (the workload's
trace_passes, whatever --seconds says) carries the per-layer metrics, per
pass.  The line before it holds the run details (machine, timestamps, op
counts, failures by type, output digest and whether the seed's digest is
recorded, and the end-to-end times before normalisation).

Times are normalised to the machine's speed.  Around every quarter second
of ops the worker times a fixed pure-Python kernel, and reports each op
time as measured * REF_S / kernel time, i.e. in seconds of a reference host
on which the kernel takes REF_S.  --seconds is counted in the same units, so
the number of ladder passes a run makes follows the code's speed and not
the machine's (a host more than 1.5 times slower than the reference stops
at 1.5 * --seconds of wall time).  Each set-up time is normalised the same
way, by the kernel timed just before the interpreter starts and just after
its set-up ends.  On a 2-vCPU host whose speed swung by 1.7x within
minutes, ten-run spreads (IQR over median) of raw op times reached 0.44;
normalised, they stayed at 0.16 or less.

Exit code 0 when every op's output checked out, 1 when an output check or
the recorded output digest failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from reference import REF_S, reference_s  # noqa: E402

SETUP_RUNS = 5  # fresh interpreters timed for setup_s, the measured one included
DEADLINE_S = 170  # the whole command ends within this many seconds

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "ops/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MiB",
}


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def worker(args, mode, workdir, timeout, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--workdir", workdir, *extra]
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), PYTHONHASHSEED="0")
    ref_before = reference_s()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        die(f"{mode} worker for {args.workload} ran past {timeout:.0f} s")
    if proc.returncode != 0:
        die(f"{mode} worker for {args.workload} exited {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if os.path.realpath(out["braidmono"]) != os.path.realpath("src/braidmono"):
        die(f"imported braidmono from {out['braidmono']}, not from ./src")
    out["setup_s"] = out["ready"] - t0
    out["setup_ref"] = (ref_before + out["ready_ref_s"]) / 2
    return out


def load_digests():
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-test")
    args = ap.parse_args()

    started = time.monotonic()
    if not os.path.isfile(os.path.join("src", "braidmono", "__init__.py")):
        die("run from the root of a braidmono checkout: src/braidmono is missing")
    digests = load_digests()
    if args.workload not in digests:
        die(f"unknown workload {args.workload!r}; known: {', '.join(sorted(digests))}")
    stamp_start = datetime.datetime.now(datetime.timezone.utc).isoformat()

    root = os.path.abspath(".perfbench_work")
    workdir = os.path.join(root, f"{args.workload}-{args.seed}-{os.getpid()}")
    extra = ["--tiny"] if args.tiny else []

    def left():
        return DEADLINE_S - (time.monotonic() - started)

    try:
        setups = [
            worker(args, "setup", f"{workdir}/setup{i}", left(), extra)
            for i in range(SETUP_RUNS - 1)
        ]
        mode = "trace" if args.trace else "run"
        if args.trace:
            extra = extra + ["--spans", os.path.join(root, f"spans-{args.workload}.bin")]
        res = worker(args, mode, f"{workdir}/run", left(), extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res)

    lat = res["latencies"]
    expected = digests[args.workload].get(str(args.seed)) if not args.tiny else None
    digest_ok = expected is None or expected == res["digest"]
    if not digest_ok:
        print(f"perfbench: output digest {res['digest']} != recorded {expected}", file=sys.stderr)
    if expected is None and not args.tiny:
        print(f"perfbench: no digest recorded for seed {args.seed}; outputs checked by "
              "their identities only", file=sys.stderr)
    failed = res["attempted"] - res["completed"] + res["check_failures"] + (0 if digest_ok else 1)
    failed = min(failed, res["attempted"])

    def end_to_end(lat, wall, setup):
        tail_s, tail_pct = _tail(lat)
        values = {
            "setup_s": statistics.median(setup),
            "op_p50_ms": 1000 * statistics.median(lat) if lat else 0.0,
            "op_tail_ms": 1000 * tail_s,
            "ops_per_s": res["completed"] / wall,
            "ok_ratio": 1 - failed / res["attempted"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, tail_pct

    raw, tail_pct = end_to_end(lat, res["wall_s"], [r["setup_s"] for r in setups])
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "started": stamp_start,
        "ended": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "attempted": res["attempted"], "completed": res["completed"],
        "fail_ratio": failed / res["attempted"], "failures": res["failures"],
        "op_tail_percentile": tail_pct, "ops_beyond_tail": min(10, len(lat) - 1),
        "ops_by_class": res["classes"], "class_p50_ms": _class_p50(res),
        "setup_runs_s": [r["setup_s"] for r in setups],
        "setup_reference_ms": [1000 * r["setup_ref"] for r in setups],
        "digest": res["digest"],
        "digest_status": ("unrecorded" if expected is None
                          else "match" if digest_ok else "mismatch"),
        "unnormalised": raw,
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in res["per_layer"].items()}
        detail["class_shares"] = res["class_shares"]
        detail["spans"] = res["spans"]
    else:
        norm = [t * REF_S / r for t, r in zip(lat, res["lat_ref_s"])]
        setup = [r["setup_s"] * REF_S / r["setup_ref"] for r in setups]
        metrics, _ = end_to_end(norm, res["wall_ref"] * REF_S, setup)
        detail["reference_ms"] = 1000 * statistics.median(res["lat_ref_s"]) if lat else None
    print(json.dumps(detail))
    correct = res["check_failures"] == 0 and digest_ok
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _class_p50(res):
    by = {}
    for c, t in zip(res["lat_class"], res["latencies"]):
        by.setdefault(c, []).append(t)
    return {c: 1000 * statistics.median(v) for c, v in by.items()}


def _tail(lat):
    """Latency at the highest percentile with at least ten ops beyond it."""
    s = sorted(lat)
    if len(s) < 11:
        return (s[-1] if s else 0.0), 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def _layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".self_share", ".overhead_ratio", ".orient_per_chi")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
