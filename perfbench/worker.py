"""The workload process: set up, run the closed loop, check the outputs.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Prints
one JSON line on stdout.  Run directly only for debugging:

    PYTHONPATH=src python3 perfbench/worker.py --workload chi_twists \
        --seed 1 --seconds 5 --mode run --workdir .perfbench_work/debug
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time

import workloads  # imports braidmono, which is part of set-up
from reference import REF_S, reference_s

OP_BUDGET_S = 20.0  # an op running longer than this is stopped and counted failed
SEGMENT_S = 0.25  # the reference kernel is timed around every segment of ops
WALL_CAP = 1.5  # on a slow host, the timed loop ends after this many --seconds of wall time


class OpBudgetExceeded(BaseException):
    """Raised from the interval timer; a BaseException so that no library
    handler for ValueError or Exception can swallow it."""


def _on_alarm(signum, frame):
    raise OpBudgetExceeded()


class Results:
    def __init__(self, pass_len):
        self.pass_len = pass_len
        self.lat = []  # seconds per completed op
        self.ref = []  # reference kernel time around each completed op
        self.lat_class = []  # ladder class of each completed op
        self.failures = collections.Counter()  # exception type -> ops
        self.attempted = 0
        self.check_failures = 0
        self.verified = {}  # pool index -> sha256 of its checked output
        # pool index -> canonical output of the first ladder pass, or
        # "FAILED:<exception type>" for an op of that pass that failed
        self.first_pass = {}


def budget_ops():
    """Let run_op stop an op that runs past OP_BUDGET_S."""
    signal.signal(signal.SIGALRM, _on_alarm)


def run_op(i, pool, run_one, res):
    """Op number i under the per-op budget.  Returns (pool index, output),
    the output None when the op failed."""
    k = i % len(pool)
    signal.setitimer(signal.ITIMER_REAL, OP_BUDGET_S)
    failure = None
    t0 = time.perf_counter()
    try:
        out = run_one(i, pool[k])
    except OpBudgetExceeded:
        out, failure = None, "OpBudgetExceeded"
    except Exception as exc:  # an op failure never ends the run
        out, failure = None, type(exc).__name__
    finally:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    res.attempted += 1
    if failure is None:
        res.lat.append(t1 - t0)
        res.lat_class.append(pool[k].cls)
    else:
        res.failures[failure] += 1
        if i < res.pass_len:
            res.first_pass.setdefault(k, f"FAILED:{failure}")
    return k, out


def run_pass(w, pool, start, run_one, res):
    """One ladder pass, one op at a time.  Returns the pass's wall time and
    its outputs as (pool index, output)."""
    t_pass = time.perf_counter()
    outputs = [run_op(i, pool, run_one, res) for i in range(start, start + w.pass_len)]
    return time.perf_counter() - t_pass, [(k, out) for k, out in outputs if out is not None]


def check_outputs(w, pool, outputs, res):
    """Check ops' outputs, outside the timed span: the workload's
    identity once per distinct input, and equality with that verified
    output when an input repeats.  Outputs are dropped after the check, so
    memory does not grow with the number of ops run."""
    for k, out in outputs:
        canon = w.canon(out)
        h = hashlib.sha256(canon.encode()).hexdigest()
        if k < res.pass_len:
            res.first_pass.setdefault(k, canon)
        if k in res.verified:
            ok = res.verified[k] == h
        else:
            try:
                w.check(pool[k].args, out)
                res.verified[k] = h
                ok = True
            except Exception as exc:  # CheckFailed, or the check itself raised
                print(f"check failed on {pool[k].cls} input {k}: {exc!r}", file=sys.stderr)
                ok = False
        if not ok:
            res.check_failures += 1
            res.failures["CheckFailed"] += 1


def timed_loop(w, pool, seconds):
    """Closed loop: whole ladder passes until `seconds` of ops have run in
    reference-host time (or WALL_CAP * `seconds` of wall time), in
    segments of at least SEGMENT_S with the reference kernel timed before
    and after each.  Returns the results, the summed wall time of the
    segments, and that time in reference-kernel units."""
    def done(wall, wall_ref):
        return wall_ref * REF_S >= seconds or wall >= WALL_CAP * seconds

    res = Results(w.pass_len)
    timed = timed_ref = 0.0
    run_one = lambda i, op: w.run(op.args)  # noqa: E731
    while not done(timed, timed_ref) or res.attempted % w.pass_len:
        first, outputs = len(res.lat), []
        ref_before = reference_s()
        t0 = time.perf_counter()
        while True:
            k, out = run_op(res.attempted, pool, run_one, res)
            if out is not None:
                outputs.append((k, out))
            wall = time.perf_counter() - t0
            if wall >= SEGMENT_S or (not res.attempted % w.pass_len
                                     and done(timed + wall, timed_ref + wall / ref_before)):
                break
        ref = (ref_before + reference_s()) / 2
        res.ref += [ref] * (len(res.lat) - first)
        timed += wall
        timed_ref += wall / ref
        check_outputs(w, pool, outputs, res)
    return res, timed, timed_ref


def traced_loop(w, pool, tracer):
    """w.trace_passes ladder passes, each run traced and then again
    untraced; alternating pass by pass keeps the overhead ratio apart from
    drift in the machine's speed.  The pass count is fixed, so the layer
    totals depend on the code and not on how fast it runs.  Returns the
    traced results and the traced and untraced wall times."""
    res, replay = Results(w.pass_len), Results(w.pass_len)
    traced = untraced = 0.0
    for start in range(0, w.trace_passes * w.pass_len, w.pass_len):
        tracer.install()
        wall, outputs = run_pass(
            w, pool, start, lambda i, op: tracer.run_op(i, w.run, op.args), res)
        traced += wall
        tracer.uninstall()
        untraced += run_pass(w, pool, start, lambda i, op: w.run(op.args), replay)[0]
        check_outputs(w, pool, outputs, res)
    return res, traced, untraced


def digest(first_pass, pass_len):
    """sha256 over the canonical outputs (or failure markers) of the
    pool's first ladder pass, as the run recorded them."""
    h = hashlib.sha256()
    for k in range(pass_len):
        h.update(first_pass[k].encode())
        h.update(b"\n")
    return h.hexdigest()


def first_pass_digest(w, pool):
    """Run and check the pool's first ladder pass; its digest."""
    res = Results(w.pass_len)
    outputs = run_pass(w, pool, 0, lambda i, op: w.run(op.args), res)[1]
    check_outputs(w, pool, outputs, res)
    return digest(res.first_pass, w.pass_len)


def cli_import_ms(repeats=5):
    import subprocess

    def median_s(code):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    return 1000 * (median_s("import braidmono.cli") - median_s("pass"))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--tiny", action="store_true", help="smallest ladder, for the self-test")
    ap.add_argument("--spans", help="file to write the traced spans to")
    args = ap.parse_args()

    w = workloads.WORKLOADS[args.workload]
    if args.tiny:
        w = workloads.tiny(w)
    os.makedirs(args.workdir, exist_ok=True)
    pool = w.inputs(args.seed, args.workdir)
    ready = time.monotonic()
    result = {"ready": ready, "ready_ref_s": reference_s(),
              "braidmono": os.path.dirname(workloads.cli.__file__)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    budget_ops()
    # warm-up: one ladder pass from a separate stream, untimed; its failures
    # show again, counted, in the timed loop
    for op in w.inputs(args.seed, args.workdir, passes=1, stream="warmup"):
        try:
            w.run(op.args)
        except Exception:
            pass

    if args.mode == "run":
        res, wall, result["wall_ref"] = timed_loop(w, pool, args.seconds)
    else:
        import tracer as tracing

        tracer = tracing.Tracer()
        res, wall, untraced = traced_loop(w, pool, tracer)
        summary = tracer.summarize([pool[i % len(pool)].cls for i in range(res.attempted)])
        layer = tracer.metrics(summary, w.trace_passes)
        layer["trace.overhead_ratio"] = wall / untraced
        layer["cli.import_ms"] = cli_import_ms()
        result["per_layer"] = layer
        result["class_shares"] = summary["class_shares"]
        result["spans"] = len(tracer.start)
        if args.spans:
            tracer.write(args.spans)

    result.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": res.attempted,
        "completed": len(res.lat),
        "failures": dict(res.failures),
        "check_failures": res.check_failures,
        "wall_s": wall,
        "latencies": res.lat,
        "lat_ref_s": res.ref,
        "lat_class": res.lat_class,
        "classes": collections.Counter(pool[i % len(pool)].cls for i in range(res.attempted)),
        "digest": digest(res.first_pass, w.pass_len),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
