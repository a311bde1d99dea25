"""The table-driven geometry kernel against a Fraction reference.

The reference below recomputes every predicate from the rational
coordinates, the way the paper states them: orientation by a Fraction cross
product, extremal points by the triangle test, angular order by a
cross-product sort, and ray crossings by solving for Fraction parameters.
The kernel must agree with it at exact equality, errors included.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from braidmono import (
    FreeWord,
    GeometryError,
    ParityClass,
    angular_order,
    build_fan_config,
    chain,
    extremal_points,
    forward_Q,
    is_local_triangle,
    mu_index,
    reconstruct_N,
    validate_admissible,
)
from braidmono.reconstruct import _anchor_segment
from braidmono.serialize import load_config
from conftest import all_parities, rand_N

DENOMS = (1, 1, 2, 3, 5, 7, 12)


# --- Fraction reference ----------------------------------------------------

def sub(p, q):
    return (p.x - q.x, p.y - q.y)


def cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def sign(x):
    return (x > 0) - (x < 0)


def orient(a, b, c):
    return sign(cross(sub(b, a), sub(c, a)))


def strictly_inside(p, a, b, c):
    o = orient(a, b, c)
    return orient(a, b, p) == o and orient(b, c, p) == o and orient(c, a, p) == o


def ref_is_local_triangle(cfg, i, w, j, indices=None):
    P = cfg.points
    a, b, c = P[i - 1], P[w - 1], P[j - 1]
    return not any(
        strictly_inside(P[k - 1], a, b, c)
        for k in (range(1, cfg.m + 1) if indices is None else indices)
        if k not in (i, w, j)
    )


def ref_mu_index(cfg, z0, w, z1):
    P = cfg.points
    a, mid, b = P[z0 - 1], P[w - 1], P[z1 - 1]
    v = cfg.tangents[w - 1]
    o = orient(a, mid, b)
    if sign(cross(sub(b, mid), v)) == o and sign(cross(v, sub(a, mid))) == o:
        return o
    return 0


def ref_extremal_points(cfg, indices):
    P = cfg.points
    pool = sorted(indices)
    return [
        e for e in pool
        if not any(
            strictly_inside(P[e - 1], P[a - 1], P[b - 1], P[c - 1])
            for a, b, c in itertools.combinations([k for k in pool if k != e], 3)
        )
    ]


def ref_angular_order(cfg, e, indices):
    P = cfg.points
    dirs = {k: sub(P[k - 1], P[e - 1]) for k in indices if k != e}
    out = sorted(
        dirs, key=functools.cmp_to_key(lambda a, b: -sign(cross(dirs[a], dirs[b])))
    )
    for a, b in itertools.combinations(out, 2):
        if sign(cross(dirs[a], dirs[b])) <= 0:
            raise GeometryError(f"point {e} is not extremal for the subset")
    return out


def ref_anchor_segment(fan, i, j):
    P, z0 = fan.points, fan.basepoint
    zi, zj = P[i - 1], P[j - 1]
    letters = []
    if cross(sub(z0, zj), sub(zi, zj)) > 0:
        letters.append((j, -1))
    d = sub(zi, zj)
    hits = []
    for k in range(1, fan.m + 1):
        if k in (i, j):
            continue
        r = sub(P[k - 1], z0)
        denom = cross(d, r)
        if denom == 0:
            continue
        b = sub(P[k - 1], zj)
        s = Fraction(cross(b, r), denom)
        t = Fraction(cross(b, d), denom)
        if 0 < s < 1 and t > 0:
            hits.append((s, k, 1 if cross(d, b) > 0 else -1))
    hits.sort()
    letters.extend((k, e) for _, k, e in hits)
    if cross(sub(zj, zi), sub(z0, zi)) < 0:
        letters.append((i, 1))
    out = FreeWord.identity(fan.m)
    for k, e in letters:
        out = FreeWord.gen(fan.m, k, e) * out
    return out


# --- random inputs ---------------------------------------------------------

def rand_q(rng, lo=-40, hi=40):
    return Fraction(rng.randint(lo, hi), rng.choice(DENOMS))


def qstr(x):
    return f"{x.numerator}/{x.denominator}"


def rand_admissible(rng, m):
    while True:
        pts = [(rand_q(rng), rand_q(rng)) for _ in range(m)]
        tans = [(rand_q(rng, -5, 5), rand_q(rng, -5, 5)) for _ in range(m)]
        try:
            return validate_admissible(pts, tans, ParityClass(rng.randrange(4)))
        except GeometryError:
            continue


def rand_basepoint(rng, pts, reach):
    """Below every point: by reach times a small random rational, and for
    a large reach also far off to the side."""
    low = min(y for _, y in pts)
    step = Fraction(rng.randint(1, 9), rng.choice(DENOMS))
    return rand_q(rng, -9, 9) * max(reach, 1), low - reach * step


def rand_loaded(rng, m, basepoint, reach=None):
    """A configuration given as "p/q" strings and parsed by load_config."""
    while True:
        n_class = rng.randrange(4)
        pts = [(rand_q(rng), rand_q(rng, 5, 60)) for _ in range(m)]
        obj = {"n_class": n_class, "points": [[qstr(x), qstr(y)] for x, y in pts]}
        if basepoint and reach is not None:
            obj["basepoint"] = [qstr(c) for c in rand_basepoint(rng, pts, reach)]
        elif basepoint:
            obj["basepoint"] = [qstr(rand_q(rng, -9, 9)), qstr(rand_q(rng, -12, -1))]
        else:
            obj["tangents"] = [
                [qstr(rand_q(rng, -5, 5)), qstr(rand_q(rng, -5, 5))] for _ in range(m)
            ]
        try:
            return load_config(obj)
        except GeometryError:
            continue


def rand_fan(rng, parity, m, reach=None):
    while True:
        pts = [(rand_q(rng), rand_q(rng, -10, 60)) for _ in range(m)]
        if reach is None:
            z0 = (rand_q(rng, -9, 9), rand_q(rng, -20, -11))
        else:
            z0 = rand_basepoint(rng, pts, reach)
        try:
            return build_fan_config(pts, z0, parity)
        except GeometryError:
            continue


def configs(seed, count, m_lo=3, m_hi=7):
    rng = random.Random(seed)
    for t in range(count):
        m = rng.randint(m_lo, m_hi)
        kind = t % 3
        if kind == 0:
            yield rand_admissible(rng, m)
        else:
            yield rand_loaded(rng, m, basepoint=kind == 1)


# --- agreement -------------------------------------------------------------

def test_coordinates_are_mixed():
    cfgs = list(configs(1, 12))
    dens = {p.x.denominator for cfg in cfgs for p in cfg.points}
    assert len(dens) > 3
    assert any(p.x < 0 for cfg in cfgs for p in cfg.points)


def test_triangle_predicates_match_reference():
    for cfg in configs(2, 30):
        for a, w, b in itertools.permutations(range(1, cfg.m + 1), 3):
            assert is_local_triangle(cfg, a, w, b) == ref_is_local_triangle(cfg, a, w, b)
            assert mu_index(cfg, a, w, b) == ref_mu_index(cfg, a, w, b)


def test_subset_predicates_match_reference():
    for cfg in configs(3, 24):
        everything = range(1, cfg.m + 1)
        for r in range(cfg.m + 1):
            for subset in itertools.combinations(everything, r):
                assert extremal_points(cfg, subset) == ref_extremal_points(cfg, subset)
                for e in subset:
                    try:
                        want = ref_angular_order(cfg, e, subset)
                    except GeometryError as exc:
                        with pytest.raises(GeometryError) as got:
                            angular_order(cfg, e, subset)
                        assert str(got.value) == str(exc)
                        continue
                    assert angular_order(cfg, e, subset) == want
                    for z, a in itertools.combinations(want, 2):
                        assert chain(cfg, e, z, a, subset) == want[want.index(z):want.index(a) + 1]
                        assert chain(cfg, e, a, z, subset) == chain(cfg, e, z, a, subset)[::-1]
                # below 4 points a subset can only block triangles of others
                corners = subset if r >= 4 else everything
                for a, w, b in itertools.permutations(corners, 3):
                    assert is_local_triangle(cfg, a, w, b, subset) == ref_is_local_triangle(
                        cfg, a, w, b, subset
                    )
        assert extremal_points(cfg) == ref_extremal_points(cfg, everything)


def test_anchor_segments_match_reference():
    """The orientation-table anchors are the Fraction ray crossings, with
    the basepoint at the usual distance, nearly touching the points' hull,
    and far away."""
    rng = random.Random(4)
    fans = 0
    for reach in (None, Fraction(1, 10**6), Fraction(10**6)):
        for t in range(72):
            m = 2 + t % 9
            if t % 2:
                fan = rand_loaded(rng, m, basepoint=True, reach=reach)
            else:
                fan = rand_fan(rng, ParityClass(t // 2 % 4), m, reach)
            for i, j in itertools.permutations(range(1, m + 1), 2):
                assert _anchor_segment(fan, i, j) == ref_anchor_segment(fan, i, j), (i, j)
            fans += 1
    assert fans >= 200


@pytest.mark.parametrize("parity", all_parities(), ids=lambda p: f"n{p.n_mod_4}")
def test_roundtrip_over_mixed_denominators(parity):
    rng = random.Random(5 + parity.n_mod_4)
    for m in range(2, 9):
        fan = rand_fan(rng, parity, m)
        N = rand_N(rng, parity, m)
        assert reconstruct_N(forward_Q(fan, N)) == N


def test_hulls_memoised_per_subset():
    cfg = next(configs(6, 1, 6, 6))
    first = extremal_points(cfg, (1, 2, 3, 4))
    first.append(99)  # callers get a copy
    assert extremal_points(cfg, [4, 3, 2, 1]) == ref_extremal_points(cfg, (1, 2, 3, 4))
    assert len(cfg.hulls) == 1
    twin = validate_admissible(cfg.points, cfg.tangents, cfg.parity)
    assert twin == cfg and hash(twin) == hash(cfg)


# --- error messages ----------------------------------------------------------

def test_error_messages():
    P = ParityClass(1)
    far = [(Fraction(-1000), Fraction(-999))] * 4
    with pytest.raises(GeometryError, match=r"^collinear triple \(2, 3, 4\)$"):
        validate_admissible(
            [(0, 5), ("1/2", "1/3"), (1, "2/3"), ("3/2", 1)], far, P
        )
    with pytest.raises(GeometryError, match=r"^tangent at point 2 aims at point 3$"):
        validate_admissible(
            [(0, 0), ("1/2", 0), (1, "1/3")], [(0, 1), ("1/4", "1/6"), (1, 1)], P
        )
    cfg = validate_admissible(
        [(0, 0), (4, 0), (5, 4), (-1, 5), (2, 1)], far + far[:1], P
    )
    with pytest.raises(GeometryError, match=r"^point 5 is not extremal for the subset$"):
        angular_order(cfg, 5)
    with pytest.raises(GeometryError, match="^basepoint lies inside the convex hull"):
        build_fan_config([("-9/2", 4), (5, "7/2"), (0, -6)], (0, "1/3"), P)
    with pytest.raises(GeometryError, match=r"^points 1 and 3 are collinear with the basepoint$"):
        build_fan_config([(1, 2), (5, 3), ("3/2", 3)], (0, 0), P)
