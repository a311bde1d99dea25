import random
import time

import pytest

from braidmono import (
    GroupoidError,
    GroupoidWord,
    ParityClass,
    anchor_word,
    build_fan_config,
    character,
    chi_evaluate,
    forward_Q,
    is_local_triangle,
    parse_groupoid_word,
    rel1_insert,
    rel2_rewrite,
    validate_N,
    validate_Q,
)
from conftest import rand_N, rand_fan, rand_groupoid_points


def rand_Q(rng, fan):
    """Geometrically consistent random straight-line data (via a random N)."""
    return forward_Q(fan, rand_N(rng, fan.parity, fan.m, bound=4))


def rand_word(rng, m, hops, bound=2):
    pts = rand_groupoid_points(rng, m, hops)
    return GroupoidWord(
        tuple(pts), tuple(rng.randint(-bound, bound) for _ in pts)
    )


# --- word arithmetic --------------------------------------------------------

def test_compose_adds_junction_exponent():
    u = GroupoidWord((1, 2), (0, 3))
    v = GroupoidWord((2, 3), (1, 0))
    assert u.compose(v) == GroupoidWord((1, 2, 3), (0, 4, 0))


def test_compose_endpoint_mismatch():
    with pytest.raises(GroupoidError):
        GroupoidWord((1, 2), (0, 0)).compose(GroupoidWord((3, 1), (0, 0)))


def test_invert():
    w = GroupoidWord((1, 2), (2, -1))
    assert w.invert() == GroupoidWord((2, 1), (1, -2))
    assert w.invert().invert() == w


def test_adjacent_repeat_rejected():
    with pytest.raises(GroupoidError):
        GroupoidWord((1, 1), (0, 0))


def test_parse_groupoid_word():
    w = parse_groupoid_word("1:0,3:2,2:-1")
    assert w.points == (1, 3, 2) and w.exps == (0, 2, -1)
    assert w.target == 1 and w.source == 2
    assert str(w) == "1:0,3:2,2:-1"
    with pytest.raises(GroupoidError):
        parse_groupoid_word("1:0,junk")


# --- Q validation -----------------------------------------------------------

def test_validate_Q(rng):
    fan2 = rand_fan(rng, ParityClass(1), 2, 2)
    validate_Q(fan2, [[0, 3], [-3, 0]])
    with pytest.raises(GroupoidError):
        validate_Q(fan2, [[0, 3], [3, 0]])
    fan0 = rand_fan(rng, ParityClass(0), 2, 2)
    with pytest.raises(GroupoidError):
        validate_Q(fan0, [[0, 1], [1, 0]])  # diagonal must be 2
    fan2b = rand_fan(rng, ParityClass(2), 2, 2)
    validate_Q(fan2b, [[-2, 1], [1, -2]])


def test_validate_Q_takes_a_checked_matrix(rng):
    fan2 = rand_fan(rng, ParityClass(1), 2, 2)
    N = validate_N(ParityClass(1), [[0, 3], [-3, 0]])
    assert validate_Q(fan2, N).q == N.n
    with pytest.raises(GroupoidError):
        validate_Q(fan2, validate_N(ParityClass(3), [[0, 3], [-3, 0]]))
    with pytest.raises(GroupoidError):
        validate_Q(fan2, validate_N(ParityClass(1), [[0]]))


# --- evaluator base cases ---------------------------------------------------

def test_chi_on_generators(rng):
    for k in range(4):
        fan = rand_fan(rng, ParityClass(k), 3, 5)
        Q = rand_Q(rng, fan)
        m = fan.m
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i != j:
                    w = GroupoidWord((i, j), (0, 0))
                    assert chi_evaluate(Q, w) == Q.q[i - 1][j - 1]


def test_chi_on_twists():
    rng = random.Random(9)
    for k in range(4):
        p = ParityClass(k)
        fan = rand_fan(rng, p, 2, 4)
        Q = rand_Q(rng, fan)
        bsign = (-1) ** (k + 1)
        for mexp in range(-3, 4):
            w = GroupoidWord((1,), (mexp,))
            assert chi_evaluate(Q, w) == (bsign ** (mexp % 2)) * p.diag


def test_chi_two_point_twist_fixture(rng):
    # two points, skew parity, Q(z1,z2) = 2: one interior twist gives
    # chi = Q(12)*Q(21) - 0 = -4 by a single reflection split
    p = ParityClass(1)
    fan = rand_fan(rng, p, 2, 2)
    Q = validate_Q(fan, [[0, 2], [-2, 0]])
    w = GroupoidWord((1, 2, 1), (0, 1, 0))
    assert chi_evaluate(Q, w) == -4


def test_chi_inverse_law(rng):
    for k in range(4):
        p = ParityClass(k)
        fan = rand_fan(rng, p, 3, 5)
        Q = rand_Q(rng, fan)
        for _ in range(15):
            w = rand_word(rng, fan.m, rng.randint(1, 4))
            assert chi_evaluate(Q, w.invert()) == p.sgn * chi_evaluate(Q, w)


def test_chi_boundary_twist_law(rng):
    for k in range(4):
        p = ParityClass(k)
        fan = rand_fan(rng, p, 3, 5)
        Q = rand_Q(rng, fan)
        for _ in range(15):
            w = rand_word(rng, fan.m, rng.randint(1, 4))
            wt = GroupoidWord(w.points, (w.exps[0] + 1,) + w.exps[1:])
            assert chi_evaluate(Q, wt) == (-1) ** (k + 1) * chi_evaluate(Q, w)


def test_chi_reflection_laws_as_output_identities(rng):
    # chi(A eps^e B) = chi(AB) - factor * chi(A) chi(B)
    for k in range(4):
        p = ParityClass(k)
        fan = rand_fan(rng, p, 3, 6)
        m = fan.m
        Q = rand_Q(rng, fan)
        for _ in range(20):
            a = rand_word(rng, m, rng.randint(1, 3))
            pts = rand_groupoid_points(rng, m, rng.randint(1, 3))
            while pts[0] == a.source:
                pts = rand_groupoid_points(rng, m, rng.randint(1, 3))
            # force composability: b starts at a's source
            b = GroupoidWord(
                (a.source,) + tuple(pts), tuple(rng.randint(-2, 2) for _ in range(len(pts) + 1))
            )
            ab = a.compose(b)
            for e, factor in ((1, p.eps), (-1, p.sgn * p.eps)):
                mid = GroupoidWord(
                    a.points + b.points[1:],
                    a.exps[:-1] + (a.exps[-1] + e + b.exps[0],) + b.exps[1:],
                )
                assert chi_evaluate(Q, mid) == chi_evaluate(Q, ab) - factor * chi_evaluate(
                    Q, a
                ) * chi_evaluate(Q, b)


# --- relation invariance and order independence -----------------------------

def test_rel1_insert_shape():
    w = GroupoidWord((1, 2), (0, 5))
    got = rel1_insert(w, 1, 3, 2)
    assert got == GroupoidWord((1, 2, 3, 2), (0, 2, 0, 3))
    with pytest.raises(GroupoidError):
        rel1_insert(w, 1, 2, 0)


def test_rel2_rewrite_requires_local_triangle(rng):
    cfg = rand_fan(rng, ParityClass(1), 4, 6)
    w = GroupoidWord((1, 2), (0, 0))
    for mid in range(3, cfg.m + 1):
        if not is_local_triangle(cfg, 1, mid, 2):
            with pytest.raises(GroupoidError):
                rel2_rewrite(cfg, w, 0, mid)
            break


def random_rewrites(rng, cfg, w, count):
    m = cfg.m
    for _ in range(count):
        if rng.random() < 0.5:
            pos = rng.randrange(len(w.points))
            mid = rng.randint(1, m)
            if mid != w.points[pos]:
                w = rel1_insert(w, pos, mid, rng.randint(-2, 2))
        else:
            seg = rng.randrange(len(w.points) - 1)
            mid = rng.randint(1, m)
            z, zp = w.points[seg], w.points[seg + 1]
            if mid not in (z, zp) and is_local_triangle(cfg, z, mid, zp):
                w = rel2_rewrite(cfg, w, seg, mid)
    return w


def test_chi_relation_invariance(rng):
    for trial in range(12):
        fan = rand_fan(rng, ParityClass(rng.randrange(4)), 3, 6)
        Q = rand_Q(rng, fan)
        w = rand_word(rng, fan.m, rng.randint(1, 4), bound=1)
        base = chi_evaluate(Q, w)
        for _ in range(15):
            w2 = random_rewrites(rng, fan, w, rng.randint(1, 6))
            assert chi_evaluate(Q, w2) == base


def test_chi_order_independence(rng):
    for trial in range(10):
        fan = rand_fan(rng, ParityClass(rng.randrange(4)), 4, 6)
        Q = rand_Q(rng, fan)
        w = rand_word(rng, fan.m, rng.randint(2, 5), bound=1)
        base = chi_evaluate(Q, w)
        for seed in range(8):
            assert chi_evaluate(Q, w, rng=random.Random(seed)) == base


def test_step_budget_guard(rng):
    fan = rand_fan(rng, ParityClass(1), 4, 6)
    Q = rand_Q(rng, fan)
    w = rand_word(rng, fan.m, 5, bound=3)
    with pytest.raises(GroupoidError):
        chi_evaluate(Q, w, max_steps=3)


def walk(rounds):
    """A twist-free walk around the 3-point fan, 3 * rounds points."""
    return parse_groupoid_word(",".join(["1:0,2:0,3:0"] * rounds))


@pytest.mark.parametrize("w", [
    walk(400),
    parse_groupoid_word("1:0,2:" + "1" * 4000 + ",3:0"),
], ids=["walk-1200-points", "twist-4000-digits"])
def test_chi_long_walks_and_huge_twists_match_character(rng, w):
    """Neither a word's length nor a twist's size deepens the evaluator's
    stack: a 1200-point walk and a 4000-digit twist are answered, and equal
    the dense character of N on the word's anchor."""
    fan = build_fan_config([(-2, 4), (0, 5), (2, 4)], (0, -1), ParityClass(1))
    N = rand_N(rng, fan.parity, fan.m, bound=4)
    want = character(N, anchor_word(fan, w).word)[w.target - 1][w.source - 1]
    assert chi_evaluate(forward_Q(fan, N), w) == want


def test_chi_long_walk_exhausts_the_step_budget(rng):
    """Each word met is charged its points, so the cost of a walk grows with
    its length squared: 1500 points cost more than the default budget of
    10^6, and the refusal comes in well under 2 s."""
    fan = build_fan_config([(-2, 4), (0, 5), (2, 4)], (0, -1), ParityClass(1))
    Q = rand_Q(rng, fan)
    t0 = time.perf_counter()
    with pytest.raises(GroupoidError, match="^chi evaluation step budget exhausted$"):
        chi_evaluate(Q, walk(500))
    assert time.perf_counter() - t0 < 2


def test_chi_long_palindrome_normalises_fast(rng):
    """A 24000-point palindrome with no twist cancels from the middle out to
    its first point; the normalisation takes one pass, not one per
    cancellation."""
    fan = build_fan_config([(-2, 4), (0, 5), (2, 4)], (0, -1), ParityClass(0))
    half = [1, 2, 3] * 4000
    w = GroupoidWord(tuple(half + half[-2::-1]), (0,) * (2 * len(half) - 1))
    t0 = time.perf_counter()
    assert chi_evaluate(rand_Q(rng, fan), w) == ParityClass(0).diag
    assert time.perf_counter() - t0 < 1


def test_chi_rejects_out_of_range_point(rng):
    fan = rand_fan(rng, ParityClass(1), 3, 3)
    Q = rand_Q(rng, fan)
    with pytest.raises(GroupoidError):
        chi_evaluate(Q, GroupoidWord((1, 9), (0, 0)))
