"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py            # tiny sizes, under a minute
    python3 perfbench/selftest.py --profile  # also the full-size profile, 2 min

It runs every workload at the smallest sizes with tracing off and on,
checks that the emitted metric names match BENCHMARK.json, that each traced
run records calls into every module workloads.SHOULD_MOVE assigns to it,
that the tracer wraps every binding and restores every module exactly, and
that the benchmark refuses to run without the library's source.  With
--profile it also checks, at full size, the cost profile the workloads were
chosen for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def run(workload, trace, seconds=1, tiny=True, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, {"class_shares": {}}, {"failed": None, "correct": False,
                                                       "metrics": {}}
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def check_runs(spec, failures):
    import workloads

    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        failures.append(f"BENCHMARK.json workloads {names} != {sorted(workloads.WORKLOADS)}")
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, detail, result = run(name, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if code != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{name} trace={trace}: exit {code}, {result['failed']} failed")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{name} trace={trace}: result keys {sorted(result)}")
            if got != want:
                failures.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want))}")
            if trace:
                layer = result["metrics"]
                for module in workloads.SHOULD_MOVE[name]:
                    calls = sum(v["value"] for k, v in layer.items()
                                if k.startswith(f"{module}.") and k.endswith(".calls"))
                    if not calls:
                        failures.append(f"{name}: traced run recorded no call into {module}")
            print(f"{name} trace={trace}:", "ok" if not failures else failures)


def check_tracer(failures):
    import braidmono
    import tracer as tracing

    for m in tracing.MODULES:
        __import__(f"braidmono.{m}")
    groupoid, reconstruct = braidmono.groupoid, braidmono.reconstruct
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("braidmono")}
    originals = (groupoid.extremal_points, reconstruct.chi_evaluate, braidmono.chi_evaluate)
    t = tracing.Tracer()
    t.install()
    wrapped = (groupoid.extremal_points, reconstruct.chi_evaluate, braidmono.chi_evaluate)
    if any(a is b for a, b in zip(originals, wrapped)):
        failures.append("tracer left a binding unwrapped")
    t.uninstall()
    for name, snap in before.items():
        now = vars(sys.modules[name])
        if set(now) != set(snap) or any(now[k] is not v for k, v in snap.items()):
            failures.append(f"tracer did not restore {name}")
    print("tracer install/uninstall: ok" if not failures else f"tracer: {failures}")


def check_bare_dir(failures):
    """Without src/, the benchmark exits nonzero and prints no result."""
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chi_twists",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("bare directory refused: ok" if not failures else f"bare: {failures}")


def check_profile(failures):
    """The seed profile the workloads were chosen for (self shares)."""
    def shares(name):
        code, detail, _ = run(name, 1, seconds=20, tiny=False)
        if code:
            failures.append(f"{name}: traced run exited {code}")
        return detail["class_shares"] or {"all": {}}

    def total(share, keys):
        return sum(share.get(k, 0.0) for k in keys)

    for name in ("fan_roundtrip", "chi_twists"):
        share = shares(name)["all"]
        if share.get("geometry", 0) <= 0.5:
            failures.append(f"{name}: geometry share {share.get('geometry')}")
    for cls, share in shares("braid_action").items():
        if cls.startswith("small") and total(share, ("words", "cocycles", "matrices")) <= 0.5:
            failures.append(f"braid_action {cls}: words+cocycles+matrices <= 0.5")
        if cls.startswith("large") and share.get("monodromy.mat_mul", 0) <= 0.5:
            failures.append(f"braid_action {cls}: mat_mul share {share.get('monodromy.mat_mul')}")
    share = shares("laurent_reps")["all"]
    if total(share, ("words", "cocycles.fox_derivative", "groupring")) <= 0.5:
        failures.append("laurent_reps: words+fox_derivative+groupring <= 0.5")
    print("profile: ok" if not failures else f"profile: {failures}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--profile", action="store_true", help="also check the full-size profile")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []
    check_tracer(failures)
    check_runs(spec, failures)
    check_bare_dir(failures)
    if args.profile:
        check_profile(failures)
    for f in failures:
        print("FAIL:", f, file=sys.stderr)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
