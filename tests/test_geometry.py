from fractions import Fraction

import pytest

from braidmono import (
    GeometryError,
    ParityClass,
    angular_order,
    chain,
    extremal_points,
    is_local_triangle,
    mu_index,
    validate_admissible,
)
from conftest import rand_fan

P = ParityClass(1)


def cfg_of(points, tangents):
    return validate_admissible(points, tangents, P)


def generic_tangents(points):
    # aim all tangents at a faraway exterior spot nothing else occupies
    t = (Fraction(-1000), Fraction(-999))
    return [(t[0] - x, t[1] - y) for x, y in points]


def test_admissible_triangle_accepted():
    pts = [(0, 0), (2, 0), (1, 2)]
    cfg_of(pts, generic_tangents(pts))


def test_collinear_rejected():
    pts = [(0, 0), (1, 0), (2, 0)]
    with pytest.raises(GeometryError):
        cfg_of(pts, generic_tangents(pts))


def test_tangent_aimed_at_point_rejected():
    pts = [(0, 0), (2, 0), (1, 2)]
    tans = generic_tangents(pts)
    tans[0] = (1, 0)  # points straight at (2,0)
    with pytest.raises(GeometryError):
        cfg_of(pts, tans)
    tans[0] = (-1, 0)  # opposite direction is fine
    cfg_of(pts, tans)


def test_duplicate_point_rejected():
    pts = [(0, 0), (0, 0), (1, 2)]
    with pytest.raises(GeometryError):
        cfg_of(pts, generic_tangents(pts))


QUAD_CENTER = [(0, 0), (4, 0), (5, 4), (-1, 5), (2, 1)]


def test_local_triangle():
    pts = QUAD_CENTER
    cfg = cfg_of(pts, generic_tangents(pts))
    assert not is_local_triangle(cfg, 1, 2, 3)  # center inside corner triangle
    assert is_local_triangle(cfg, 1, 5, 2)  # corner-center-corner
    # restricting away the blocking point flips the answer
    assert is_local_triangle(cfg, 1, 2, 3, indices=(1, 2, 3, 4))
    with pytest.raises(GeometryError):
        is_local_triangle(cfg, 1, 1, 2)


def test_mu_index_fixtures():
    pts = [(0, 4), (0, 0), (4, 0)]
    tans = [(-1, 1), (1, 1), (1, -1)]
    cfg = cfg_of(pts, tans)
    assert mu_index(cfg, 1, 2, 3) == 1  # tangent (1,1) points into the triangle
    assert mu_index(cfg, 3, 2, 1) == -1  # antisymmetry
    cfg2 = cfg_of(pts, [(-1, 1), (-1, -1), (1, -1)])
    assert mu_index(cfg2, 1, 2, 3) == 0  # tangent points away


def test_mu_antisymmetry_random(rng):
    import itertools

    for _ in range(20):
        cfg = rand_fan(rng, P, 3, 6)
        for a, w, b in itertools.permutations(range(1, cfg.m + 1), 3):
            assert mu_index(cfg, a, w, b) == -mu_index(cfg, b, w, a)


def test_mu_additivity_at_extremal(rng):
    for _ in range(30):
        cfg = rand_fan(rng, P, 4, 6)
        for e in extremal_points(cfg):
            order = angular_order(cfg, e)
            for i in range(len(order) - 2):
                z0, z1, z2 = order[i], order[i + 1], order[i + 2]
                assert (
                    mu_index(cfg, z0, e, z1) + mu_index(cfg, z1, e, z2)
                    == mu_index(cfg, z0, e, z2)
                )


def test_extremal_points():
    pts = QUAD_CENTER
    cfg = cfg_of(pts, generic_tangents(pts))
    assert extremal_points(cfg) == [1, 2, 3, 4]
    assert extremal_points(cfg, indices=(1, 2, 5)) == [1, 2, 5]


def test_empty_subset_is_empty():
    # point 4 lies inside the triangle of the other three
    cfg = cfg_of(
        [(0, 0), (4, 0), (0, 4), (1, 1)], [(-1, -1), (1, -1), (-1, 1), (1, -3)]
    )
    assert extremal_points(cfg) == [1, 2, 3]
    assert not is_local_triangle(cfg, 1, 2, 3)
    assert extremal_points(cfg, []) == []
    assert angular_order(cfg, 1, []) == []
    assert is_local_triangle(cfg, 1, 2, 3, indices=[])


def test_angular_order_and_chain():
    pts = QUAD_CENTER
    cfg = cfg_of(pts, generic_tangents(pts))
    order = angular_order(cfg, 1)  # seen from corner (0,0), ccw
    assert order == [2, 5, 3, 4]
    assert chain(cfg, 1, 2, 4) == [2, 5, 3, 4]
    assert chain(cfg, 1, 4, 2) == [4, 3, 5, 2]
    assert chain(cfg, 1, 5, 5) == [5]


def test_chain_triples_are_local_triangles(rng):
    for _ in range(20):
        cfg = rand_fan(rng, P, 4, 6)
        for e in extremal_points(cfg):
            order = angular_order(cfg, e)
            for a, b in zip(order, order[1:]):
                assert is_local_triangle(cfg, a, e, b)


def test_angular_order_rejects_non_extremal():
    pts = QUAD_CENTER
    cfg = cfg_of(pts, generic_tangents(pts))
    with pytest.raises(GeometryError):
        angular_order(cfg, 5)  # center sees the corners over a full turn


def test_predicates_invariant_under_rescaling(rng):
    import itertools

    for _ in range(10):
        cfg = rand_fan(rng, P, 3, 5)
        s = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        dx, dy = rng.randint(-9, 9), rng.randint(-9, 9)
        pts2 = [(s * p.x + dx, s * p.y + dy) for p in cfg.points]
        tans2 = [(s * vx, s * vy) for vx, vy in cfg.tangents]
        cfg2 = validate_admissible(pts2, tans2, P)
        for a, w, b in itertools.permutations(range(1, cfg.m + 1), 3):
            assert mu_index(cfg, a, w, b) == mu_index(cfg2, a, w, b)
            assert is_local_triangle(cfg, a, w, b) == is_local_triangle(cfg2, a, w, b)
        assert extremal_points(cfg) == extremal_points(cfg2)
