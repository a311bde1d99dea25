"""Seeded inputs, operations and output checks for the benchmark workloads.

Every workload is a ladder of size classes.  A pool of inputs is generated
from the seed before timing, one ladder pass after another; the timed loop
runs the pool in order, whole passes at a time, so every run sees the same
mix of sizes.  The library receives only the generated inputs.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass

from braidmono import (
    BraidWord,
    FreeWord,
    GroupoidWord,
    ParityClass,
    act_on_N,
    anchor_word,
    braid_permutation,
    build_fan_config,
    character,
    forward_Q,
    linking_numbers,
    reduce_reps,
    validate_N,
)
import braidmono as bm
from braidmono import cli

# Ops call the library through module attributes (bm.x, cli.main), never
# through names bound here, so that the tracer's wrappers see every call.


class CheckFailed(Exception):
    """An operation returned a wrong result."""


@dataclass
class Op:
    cls: str  # ladder class label
    args: dict


@dataclass
class Workload:
    name: str
    # (class label, ops per ladder pass, size parameters)
    ladder: list
    # passes generated before timing; a run that needs more wraps around
    pool_passes: int
    # passes of the traced run, fixed so that its layer totals follow the code
    trace_passes: int
    make: object  # (rng, params, workdir, tag, shared) -> args
    run: object  # args -> output, never None
    check: object  # (args, output) -> None, raising CheckFailed
    canon: object = repr  # output -> canonical string for digests

    @property
    def pass_len(self) -> int:
        return sum(count for _, count, _ in self.ladder)

    def inputs(self, seed, workdir, passes=None, stream="pool"):
        rng = random.Random(f"{self.name}:{seed}:{stream}")
        ops = []
        for _ in range(self.pool_passes if passes is None else passes):
            shared = {}  # state make() keeps for the ops of one pass
            for cls, count, params in self.ladder:
                for _ in range(count):
                    tag = f"{stream}{len(ops)}"
                    ops.append(Op(cls, self.make(rng, params, workdir, tag, shared)))
        return ops


# --- shared generators -----------------------------------------------------

def rand_parity(rng) -> ParityClass:
    return ParityClass(rng.randrange(4))


def rand_N(rng, parity, m, bound=5):
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = parity.diag
        for j in range(i + 1, m):
            v = rng.randint(-bound, bound)
            rows[i][j] = v
            rows[j][i] = parity.sgn * v
    return validate_N(parity, rows)


def rand_fan_points(rng, parity, m):
    """Integer points above a basepoint, redrawn until they form a fan."""
    while True:
        pts = [(rng.randint(-40, 40), rng.randint(5, 60)) for _ in range(m)]
        z0 = (rng.randint(-5, 5), -rng.randint(2, 9))
        try:
            return pts, z0, build_fan_config(pts, z0, parity)
        except ValueError:
            continue


def rand_braid(rng, m, length, framed, positive=False):
    letters = []
    for _ in range(length):
        e = 1 if positive else rng.choice((1, -1))
        if framed and rng.random() < 0.3:
            letters.append(("e", rng.randint(1, m), e))
        else:
            letters.append(("s", rng.randint(2, m), e))
    return BraidWord(m, tuple(letters))


def rand_free(rng, m, length):
    return FreeWord.make(m, [(rng.randint(1, m), rng.choice((1, -1))) for _ in range(length)])


def split(rng, b: BraidWord):
    if len(b.letters) < 2:  # a product of simple braids can be this short
        return b, BraidWord(b.m, ())
    cut = rng.randint(1, len(b.letters) - 1)
    return BraidWord(b.m, b.letters[:cut]), BraidWord(b.m, b.letters[cut:])


# --- fan_roundtrip: CLI forward then reconstruct ---------------------------

def _fan_make(rng, params, workdir, tag, shared):
    parity = rand_parity(rng)
    pts, z0, _ = rand_fan_points(rng, parity, params["m"])
    N = rand_N(rng, parity, params["m"])
    paths = {k: os.path.join(workdir, f"{tag}-{k}.json") for k in ("config", "N", "Q")}
    with open(paths["config"], "w") as fh:
        json.dump({
            "n_class": parity.n_mod_4,
            "points": [[str(x), str(y)] for x, y in pts],
            "basepoint": [str(z0[0]), str(z0[1])],
        }, fh)
    with open(paths["N"], "w") as fh:
        json.dump({"n_class": parity.n_mod_4, "matrix": N.rows()}, fh)
    return {"paths": paths, "N": N.rows()}


def _cli(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"braidmono {argv[0]} exited {code}")
    return buf.getvalue()


def _fan_run(args):
    p = args["paths"]
    q_json = _cli(["forward", "--config", p["config"], "--matrix", p["N"]])
    with open(p["Q"], "w") as fh:
        fh.write(q_json)
    out = _cli(["reconstruct", "--config", p["config"], "--q", p["Q"]])
    return json.loads(out)["matrix"]


def _fan_check(args, out):
    if out != args["N"]:
        raise CheckFailed("reconstructed matrix differs from N")


# --- chi_twists: chi^Q on words with large interior twists ------------------

def _chi_config(rng, m):
    parity = rand_parity(rng)
    _, _, fan = rand_fan_points(rng, parity, m)
    N = rand_N(rng, parity, m)
    return {"fan": fan, "N": N, "Q": forward_Q(fan, N)}


def _chi_make(rng, params, workdir, tag, shared):
    """A walk through all m points in angular order, either direction, with
    interior twists of one fixed size and random signs.  Random walks and
    uniformly drawn twists spread per-op cost over two decades; this shape
    keeps it within a factor of two, so cost follows twist size."""
    m, twist = params["m"], params["twist"]
    pts = list(range(1, m + 1))
    if rng.random() < 0.5:
        pts.reverse()
    exps = (
        [rng.randint(-2, 2)]
        + [rng.choice((-twist, twist)) for _ in pts[1:-1]]
        + [rng.randint(-2, 2)]
    )
    if m not in shared:  # one configuration per size and ladder pass
        shared[m] = _chi_config(rng, m)
    return dict(shared[m], w=GroupoidWord(tuple(pts), tuple(exps)))


def _chi_run(args):
    return bm.chi_evaluate(args["Q"], args["w"])


def _chi_check(args, out):
    w = args["w"]
    want = character(args["N"], anchor_word(args["fan"], w).word)
    if out != want[w.target - 1][w.source - 1]:
        raise CheckFailed(f"chi^Q({w}) = {out}, character gives {want[w.target - 1][w.source - 1]}")


# --- braid_action: act_on_N then a character of the moved matrix -----------

def _act_make(rng, params, workdir, tag, shared):
    m = params["m"]
    parity = rand_parity(rng)
    sigma = rand_braid(rng, m, params["L"], framed=True)
    return {"N": rand_N(rng, parity, m), "sigma": sigma,
            "split": split(rng, sigma), "g": rand_free(rng, m, params["g"])}


def _act_run(args):
    moved = bm.act_on_N(args["sigma"], args["N"])
    return moved, bm.character(moved, args["g"])


def _act_check(args, out):
    u, v = args["split"]
    if act_on_N(v, act_on_N(u, args["N"])) != out[0]:
        raise CheckFailed("act_on_N(u v, N) != act_on_N(v, act_on_N(u, N))")


def _act_canon(out):
    # hex: entries can pass the interpreter's limit on decimal conversion
    return repr([[hex(x) for x in row] for rows in (out[0].n, out[1]) for row in rows])


# --- laurent_reps: reduce_reps through Fox calculus and the ring layers ----

def _simple_braid(rng, m):
    """The positive permutation braid of a random permutation of m strands
    (one Garside factor): bubble sort, one sigma per adjacent swap."""
    perm = list(range(m))
    rng.shuffle(perm)
    letters = []
    for end in range(m - 1, 0, -1):
        for j in range(end):
            if perm[j] > perm[j + 1]:
                perm[j], perm[j + 1] = perm[j + 1], perm[j]
                letters.append(("s", j + 2, 1))
    return letters


def _pure_braid(rng, m, length):
    """A random positive word powered until its permutation is trivial."""
    u = rand_braid(rng, m, length, framed=False, positive=True)
    b = u
    while not braid_permutation(b)[1]:
        b = b * u
    return b


def _laurent_make(rng, params, workdir, tag, shared):
    rep, m = params["rep"], params["m"]
    if rep in ("gassner", "linking"):
        b = _pure_braid(rng, m, params["L"])
    elif rep == "burau":
        # a product of k simple braids: cost stays within a factor of three
        # of the median, where uniform positive words of the same length
        # reach thirty
        b = BraidWord(m, tuple(x for _ in range(params["k"]) for x in _simple_braid(rng, m)))
    else:
        b = rand_braid(rng, m, params["L"], framed=rep == "tym_framed", positive=True)
    args = {"rep": rep, "b": b}
    if rep in ("burau", "tym", "tym_framed"):
        args["split"] = split(rng, b)
    return args


def _laurent_run(args):
    return bm.reduce_reps(args["b"], args["rep"])


def _laurent_check(args, out):
    rep, b = args["rep"], args["b"]
    m = b.m
    if rep in ("burau", "tym", "tym_framed"):
        u, v = args["split"]
        if reduce_reps(u, rep) * reduce_reps(v, rep) != out:
            raise CheckFailed(f"{rep}(u v) != {rep}(u) {rep}(v)")
    elif rep == "linking":
        lk = linking_numbers(b).lk
        for i in range(m):
            for j in range(m):
                terms = out[i, j].terms
                if i != j:
                    ok = not terms
                else:
                    want = tuple(0 if k == i else -lk[i][k] for k in range(m))
                    ok = terms == {want: 1}
                if not ok:
                    raise CheckFailed(f"linking entry ({i + 1},{j + 1}) != -lk")
    else:  # gassner of a pure braid specialises to the identity at t_i = 1
        for i in range(m):
            for j in range(m):
                if sum(out[i, j].terms.values()) != (i == j):
                    raise CheckFailed(f"gassner entry ({i + 1},{j + 1}) at t = 1")


def _laurent_canon(out):
    return repr([[str(e) for e in row] for row in out.rows])


# Modules whose layer metrics each workload should move (selftest checks
# that its traced run calls into each), and where a change should show:
#   geometry                          op_p50/op_tail/ops_per_s on fan_roundtrip
#                                     and chi_twists; not braid_action or
#                                     laurent_reps
#   groupoid (chi_evaluate self time, orient per chi, extremal_points calls)
#                                     op_tail/ops_per_s on chi_twists;
#                                     fan_roundtrip barely
#   words, cocycles.pl_cocycle, matrices.MonomialGammaMatrix
#                                     op_tail/ops_per_s on braid_action small
#                                     m; not fan_roundtrip
#   monodromy.mat_mul, rho letters    op_p50/op_tail on braid_action large m;
#                                     not laurent_reps
#   cocycles.fox_derivative, groupring, matrices.RingMatrix.mul, braids
#                                     all latencies on laurent_reps; not
#                                     fan_roundtrip or chi_twists
#   peak word length, peak terms, pl_cocycle peak entry length
#                                     peak_rss_mb on braid_action and
#                                     laurent_reps; not fan_roundtrip
#   cli import, serialize, cli.main, build_fan_config
#                                     setup_s everywhere; op_p50 on the small
#                                     fan_roundtrip ops; not large compute ops
SHOULD_MOVE = {
    "fan_roundtrip": ("geometry", "reconstruct", "serialize", "cli"),
    "chi_twists": ("geometry", "groupoid"),
    "braid_action": ("words", "cocycles", "matrices", "monodromy"),
    "laurent_reps": ("words", "groupring", "matrices", "braids", "cocycles"),
}

# Ladder weights put op_p50 in the middle of one narrow class and op_tail
# (the 11th-largest latency) inside the top class, so neither metric sits on
# a boundary between classes of different cost.
#   fan_roundtrip  the only path through serialize and cli; m 4-8 spans 3 ms
#                  to 0.6 s of reconstruct_N per op.
#   chi_twists     walks with fixed twist sizes 32 and 64: cost grows with
#                  the twist through _Evaluator._split.  Twists stay well
#                  under 128, since the recursion has no closed form yet
#                  (ROADMAP item 4) and an interior twist of 200 raises
#                  RecursionError; with four twisted points drawn up to 100,
#                  one op in 112 did.
#   braid_action   small m with L 24: pl_cocycle word growth; L 40 gave
#                  entries past 4300 digits and a 20 s op.  Large m with
#                  |g| 60: monodromy.mat_mul.
#   laurent_reps   positive braids: without free cancellation, cost grows
#                  steadily with length.  Random-sign words at m 4, L 20
#                  spread cost from 2 ms to 16 s.  burau, whose cost has the
#                  longest tail, takes products of k simple braids.  Draws
#                  are never filtered.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "fan_roundtrip",
            ladder=[
                ("m4", 5, {"m": 4}),
                ("m5", 6, {"m": 5}),
                ("m6", 2, {"m": 6}),
                ("m7", 1, {"m": 7}),
                ("m8", 2, {"m": 8}),
            ],
            pool_passes=16, trace_passes=3,
            make=_fan_make, run=_fan_run, check=_fan_check,
        ),
        Workload(
            "chi_twists",
            ladder=[
                ("m5-twist32", 3, {"m": 5, "twist": 32}),
                ("m6-twist64", 1, {"m": 6, "twist": 64}),
            ],
            pool_passes=32, trace_passes=8,
            make=_chi_make, run=_chi_run, check=_chi_check,
        ),
        Workload(
            "braid_action",
            ladder=[
                ("small-m4", 1, {"m": 4, "L": 24, "g": 8}),
                ("small-m5", 1, {"m": 5, "L": 24, "g": 8}),
                ("small-m6", 1, {"m": 6, "L": 24, "g": 8}),
                ("large-m16", 3, {"m": 16, "L": 4, "g": 60}),
                ("large-m24", 1, {"m": 24, "L": 4, "g": 60}),
                ("large-m32", 2, {"m": 32, "L": 4, "g": 60}),
            ],
            pool_passes=40, trace_passes=8,
            make=_act_make, run=_act_run, check=_act_check, canon=_act_canon,
        ),
        Workload(
            "laurent_reps",
            ladder=[
                ("linking-m5", 1, {"rep": "linking", "m": 5, "L": 4}),
                ("tym_framed-m5", 1, {"rep": "tym_framed", "m": 5, "L": 16}),
                ("tym-m4", 3, {"rep": "tym", "m": 4, "L": 14}),
                ("gassner-m4", 1, {"rep": "gassner", "m": 4, "L": 4}),
                ("burau-m4", 1, {"rep": "burau", "m": 4, "k": 5}),
                ("burau-m6", 1, {"rep": "burau", "m": 6, "k": 3}),
            ],
            pool_passes=600, trace_passes=64,
            make=_laurent_make, run=_laurent_run, check=_laurent_check,
            canon=_laurent_canon,
        ),
    ]
}


_TINY = {"m": 4, "L": 6, "g": 6, "twist": 3, "k": 2}


def tiny(w: Workload) -> Workload:
    """The same ladder classes at the smallest sizes, one op each; two
    passes pooled and traced."""
    ladder = [
        (cls, 1, {k: (min(v, _TINY[k]) if k in _TINY else v) for k, v in params.items()})
        for cls, _, params in w.ladder
    ]
    return Workload(w.name, ladder, 2, 2, w.make, w.run, w.check, w.canon)
