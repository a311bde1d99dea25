"""Acceptance gate: ten end-to-end criteria, each printing one pass/fail
line.  All comparisons are exact; no tolerances anywhere.
"""

import itertools
import random
import time
from contextlib import contextmanager

from braidmono import (
    FreeWord,
    GroupoidWord,
    LaurentElt,
    ParityClass,
    act_on_N,
    anchor_word,
    braid_act_word,
    braid_equal,
    braid_permutation,
    character,
    chi_evaluate,
    cover_example,
    fox_derivative,
    forward_Q,
    hop_words,
    is_local_triangle,
    linking_numbers,
    magnus_cocycle,
    mu_index,
    parse_braid,
    pl_cocycle,
    reconstruct_N,
    reduce_reps,
    rho,
    theoremB_S,
    validate_Q,
)
from braidmono.groupring import GroupRingElt
from braidmono.monodromy import mat_mul, mat_transpose
from braidmono.reconstruct import _anchor_segment
from conftest import (
    all_parities,
    rand_N,
    rand_braid,
    rand_fan,
    rand_free,
    rand_groupoid_points,
)
from test_monodromy import EXPECTED_COVER


@contextmanager
def criterion(n, desc, budget=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {n} ({desc}): FAIL")
        raise
    dt = time.monotonic() - t0
    if budget is not None and dt > budget:
        print(f"criterion {n} ({desc}): FAIL (took {dt:.1f}s > {budget}s)")
        raise AssertionError(f"criterion {n} exceeded time budget: {dt:.1f}s")
    print(f"criterion {n} ({desc}): PASS ({dt:.2f}s)")


def test_criterion_01_cover_fixture():
    with criterion(1, "bundled cover fixture", budget=1.0):
        _, _, out = cover_example()
        for w, want in EXPECTED_COVER.items():
            assert out[w] == want, w
        N1 = out["1"]
        for i, want in [(1, "a"), (3, "a"), (2, "g2"), (4, "g2")]:
            E = [[1 if r == c == i - 1 else 0 for c in range(4)] for r in range(4)]
            corr = mat_mul(N1, mat_mul(E, N1))
            assert [[N1[r][c] - corr[r][c] for c in range(4)] for r in range(4)] == out[want]
        assert mat_transpose(out["ab"]) == out["ba"]


def test_criterion_02_generator_fixtures():
    with criterion(2, "generator fixtures"):
        m = 5
        for k in range(2, m + 1):
            mono = pl_cocycle(parse_braid(f"s{k}", m))
            perm = list(range(1, m + 1))
            perm[k - 2], perm[k - 1] = perm[k - 1], perm[k - 2]
            assert mono.perm == tuple(perm)
            assert mono.entries[k - 2] == FreeWord.gen(m, k - 1, -1)
            assert all(
                mono.entries[j].is_identity() for j in range(m) if j != k - 2
            )
        for i in range(1, m + 1):
            mono = pl_cocycle(parse_braid(f"e{i}", m))
            assert mono.perm == tuple(range(1, m + 1))
            assert mono.entries[i - 1] == FreeWord.gen(m, i)
        for i in range(2, m + 1):
            M = magnus_cocycle(parse_braid(f"s{i}", m))
            gi = FreeWord.gen(m, i - 1) * FreeWord.gen(m, i, -1) * FreeWord.gen(m, i - 1, -1)
            assert M[i - 2, i - 2] == GroupRingElt.one(m) - GroupRingElt.from_word(gi)
            assert M[i - 1, i - 2] == GroupRingElt.from_word(FreeWord.gen(m, i - 1, -1))
            assert M[i - 2, i - 1] == GroupRingElt.one(m)
            assert M[i - 1, i - 1].is_zero()
        t = LaurentElt.var(0)
        one, zero = LaurentElt.one(0), LaurentElt.zero(0)
        assert reduce_reps(parse_braid("s2", 2), "burau").rows == ((one - t, one), (t, zero))
        assert reduce_reps(parse_braid("s2", 2), "tym").rows == ((zero, one), (t, zero))
        assert reduce_reps(parse_braid("e1", 2), "tym_framed").rows == (
            (LaurentElt.var(0, e=-1), zero),
            (zero, one),
        )
        # integer cocycle on generators + 200 random N
        rng = random.Random(20)
        for _ in range(200):
            p = rng.choice(all_parities())
            mm = rng.randint(2, 6)
            N = rand_N(rng, p, mm, bound=9)
            k = rng.randint(2, mm)
            S = theoremB_S(parse_braid(f"s{k}", mm), N)
            R = rho(N, FreeWord.gen(mm, k - 1))
            for r in range(mm):
                for c in range(mm):
                    if c == k - 2:
                        want = R[r][k - 1]
                    elif c == k - 1:
                        want = 1 if r == k - 2 else 0
                    else:
                        want = 1 if r == c else 0
                    assert S[r][c] == want
            out = act_on_N(parse_braid(f"s{k}", mm), N)  # revalidates shape laws
            assert out.parity == p


def test_criterion_03_cocycle_laws():
    with criterion(3, "cocycle laws on 500 word pairs", budget=30.0):
        rng = random.Random(30)
        relations = [
            ("s2 s3 s2", "s3 s2 s3"),
            ("e2 s2", "s2 e1"),
            ("e1 s2", "s2 e2"),
            ("s2 s4", "s4 s2"),
        ]
        for lhs, rhs in relations:
            u, v = parse_braid(lhs, 4), parse_braid(rhs, 4)
            assert pl_cocycle(u) == pl_cocycle(v)
            if not u.is_framed() and not v.is_framed():
                assert magnus_cocycle(u) == magnus_cocycle(v)
        for _ in range(500):
            m = rng.randint(2, 5)
            u = rand_braid(rng, m, rng.randint(0, 8))
            v = rand_braid(rng, m, rng.randint(0, 8))
            assert pl_cocycle(u * v) == pl_cocycle(u).compose(pl_cocycle(v).act(u))
            uf = rand_braid(rng, m, rng.randint(0, 8), framed=False)
            vf = rand_braid(rng, m, rng.randint(0, 8), framed=False)
            assert magnus_cocycle(uf * vf) == magnus_cocycle(uf) * magnus_cocycle(vf).act(uf)
            p = rng.choice(all_parities())
            N = rand_N(rng, p, m)
            assert theoremB_S(u * v, N) == mat_mul(
                theoremB_S(u, N), theoremB_S(v, act_on_N(u, N))
            )
            g = rand_free(rng, m, 4)
            S = theoremB_S(u, N)
            assert mat_mul(rho(N, braid_act_word(u, g)), S) == mat_mul(
                S, rho(act_on_N(u, N), g)
            )


def test_criterion_04_fox_fundamental_formula():
    with criterion(4, "free differential fundamental formula, 1000 words"):
        rng = random.Random(40)
        for _ in range(1000):
            m = rng.randint(2, 5)
            a = rand_free(rng, m, rng.randint(0, 30))
            total = GroupRingElt.zero(m)
            for i in range(1, m + 1):
                gi = GroupRingElt.from_word(FreeWord.gen(m, i))
                total = total + fox_derivative(a, i) * (gi - GroupRingElt.one(m))
            assert total == GroupRingElt.from_word(a) - GroupRingElt.one(m)


def test_criterion_05_linking_diagonal():
    with criterion(5, "linking numbers vs multivariate reduction, 200 braids"):
        rng = random.Random(50)
        for _ in range(200):
            m = rng.randint(2, 5)
            u = rand_braid(rng, m, rng.randint(1, 3), framed=False)
            b = u
            while not braid_permutation(b)[1]:
                b = b * u
            lk = linking_numbers(b)
            red = reduce_reps(b, "linking")
            for i in range(m):
                for j in range(m):
                    if i != j:
                        assert red[i, j].is_zero()
                    else:
                        vec = tuple(
                            -lk.lk[i][k] if k != i else 0 for k in range(m)
                        )
                        assert red[i, j] == LaurentElt(m, {vec: 1})


def test_criterion_06_traces():
    with criterion(6, "generator traces up to 8 strands"):
        t = LaurentElt.var(0)
        for m in range(2, 9):
            for i in range(2, m + 1):
                b = parse_braid(f"s{i}", m)
                for rep, want in (
                    ("tym", LaurentElt(0, {(0,): m - 2})),
                    ("burau", LaurentElt(0, {(0,): m - 1}) - t),
                ):
                    tr = LaurentElt.zero(0)
                    red = reduce_reps(b, rep)
                    for k in range(m):
                        tr = tr + red[k, k]
                    assert tr == want


def _random_rewrite(rng, cfg, w):
    m = cfg.m
    if rng.random() < 0.5:
        pos = rng.randrange(len(w.points))
        mid = rng.randint(1, m)
        if mid == w.points[pos]:
            return w
        from braidmono import rel1_insert

        return rel1_insert(w, pos, mid, rng.randint(-2, 2))
    seg = rng.randrange(len(w.points) - 1)
    mid = rng.randint(1, m)
    z, zp = w.points[seg], w.points[seg + 1]
    if mid in (z, zp) or not is_local_triangle(cfg, z, mid, zp):
        return w
    from braidmono import rel2_rewrite

    return rel2_rewrite(cfg, w, seg, mid)


def test_criterion_07_chi_well_definedness():
    with criterion(7, "chi invariance under 500 rewrites on 100 configs", budget=60.0):
        rng = random.Random(70)
        rewrites_done = 0
        for trial in range(100):
            p = ParityClass(rng.randrange(4))
            cfg = rand_fan(rng, p, 3, 6)
            m = cfg.m
            rows = [[0] * m for _ in range(m)]
            for i in range(m):
                rows[i][i] = p.diag
                for j in range(i + 1, m):
                    v = rng.randint(-4, 4)
                    rows[i][j] = v
                    rows[j][i] = p.sgn * v
            Q = validate_Q(cfg, rows)
            pts = rand_groupoid_points(rng, m, rng.randint(1, 3))
            w = GroupoidWord(tuple(pts), tuple(rng.randint(-1, 1) for _ in pts))
            base = chi_evaluate(Q, w)
            assert chi_evaluate(Q, w, rng=random.Random(trial)) == base
            for _ in range(5):
                w2 = w
                for _ in range(rng.randint(1, 4)):
                    w2 = _random_rewrite(rng, cfg, w2)
                    rewrites_done += 1
                assert chi_evaluate(Q, w2) == base
                assert chi_evaluate(Q, w2, rng=random.Random(rewrites_done)) == base
        assert rewrites_done >= 500


def test_criterion_08_reconstruction_roundtrip():
    with criterion(8, "reconstruction roundtrip on 100 fans"):
        rng = random.Random(80)
        for trial in range(100):
            t0 = time.monotonic()
            p = ParityClass(rng.randrange(4))
            fan = rand_fan(rng, p, 1, 6)
            N = rand_N(rng, p, fan.m, bound=5)
            assert reconstruct_N(forward_Q(fan, N)).n == N.n
            assert time.monotonic() - t0 < 10.0, f"instance {trial} too slow"


def test_criterion_09_anchor_consistency():
    with criterion(9, "anchor relators and chi cross-check"):
        rng = random.Random(90)
        for trial in range(5):
            p = ParityClass(rng.randrange(4))
            fan = rand_fan(rng, p, 3, 6)
            m = fan.m
            for i, j in itertools.permutations(range(1, m + 1), 2):
                assert (_anchor_segment(fan, i, j) * _anchor_segment(fan, j, i)).is_identity()
            for a, b, c in itertools.permutations(range(1, m + 1), 3):
                if not is_local_triangle(fan, a, b, c):
                    continue
                w = _anchor_segment(fan, a, b) * FreeWord.gen(m, b, mu_index(fan, a, b, c))
                w = w * _anchor_segment(fan, b, c) * FreeWord.gen(m, c, mu_index(fan, b, c, a))
                w = w * _anchor_segment(fan, c, a) * FreeWord.gen(m, a, mu_index(fan, c, a, b))
                assert w.is_identity()
            N = rand_N(rng, p, m)
            Q = forward_Q(fan, N)
            for _ in range(300):
                pts = rand_groupoid_points(rng, m, rng.randint(1, 4))
                w = GroupoidWord(tuple(pts), tuple(rng.randint(-2, 2) for _ in pts))
                got = chi_evaluate(Q, w)
                want = character(N, anchor_word(fan, w).word)[w.target - 1][w.source - 1]
                assert got == want


def test_criterion_10_injectivity_cross_check():
    with criterion(10, "cocycle injectivity cross-check"):
        rng = random.Random(100)
        for _ in range(500):
            m = rng.randint(2, 4)
            u = rand_braid(rng, m, rng.randint(0, 5), framed=False)
            v = rand_braid(rng, m, rng.randint(0, 5), framed=False)
            assert (pl_cocycle(u) == pl_cocycle(v)) == (
                magnus_cocycle(u) == magnus_cocycle(v)
            )
        relations = [
            ("s2 s3 s2", "s3 s2 s3"),
            ("s3 s4 s3", "s4 s3 s4"),
            ("s2 s4", "s4 s2"),
            ("e2 s2", "s2 e1"),
            ("e1 s2", "s2 e2"),
            ("e3 s2", "s2 e3"),
            ("e1 e2", "e2 e1"),
            ("e4 s3", "s3 e4"),
        ]
        for lhs, rhs in relations:
            assert braid_equal(parse_braid(lhs, 4), parse_braid(rhs, 4)), (lhs, rhs)
