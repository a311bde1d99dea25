import itertools
import json
import random

import pytest

from braidmono import (
    FreeWord,
    GeometryError,
    GroupoidWord,
    ParityClass,
    RationalPoint,
    anchor_word,
    build_fan_config,
    character,
    chi_evaluate,
    forward_Q,
    hop_words,
    is_local_triangle,
    mu_index,
    reconstruct_N,
    validate_Q,
    validate_admissible,
)
from braidmono.reconstruct import _anchor_segment
from braidmono.serialize import load_config
from conftest import rand_N, rand_fan, rand_groupoid_points

P1 = ParityClass(1)


# --- fan construction -------------------------------------------------------

def test_fan_order_left_to_right():
    fan = build_fan_config([(2, 4), (-2, 4), (0, 5)], (0, -10), P1)
    # clockwise from z0 below = left to right: input points get indices 3, 1, 2
    assert [(p.x, p.y) for p in fan.points] == [(-2, 4), (0, 5), (2, 4)]
    # tangents aim at the basepoint
    assert fan.tangents[0] == (2, -14)


def test_fan_rejects_collinear_with_basepoint():
    with pytest.raises(GeometryError):
        build_fan_config([(0, 4), (0, 8)], (0, -1), P1)


def test_fan_rejects_basepoint_inside_hull():
    with pytest.raises(GeometryError):
        build_fan_config([(-5, 4), (5, 4), (0, -6)], (0, 0), P1)


def test_fan_single_point():
    fan = build_fan_config([(3, 4)], (0, -1), P1)
    assert fan.basepoint == RationalPoint(0, -1)
    assert fan.tangents[0] == (-3, -5)


@pytest.mark.parametrize("pts, msg", [
    ([(3, 4), (1, 2), (3, 4)], "duplicate point at indices 1, 3"),
    ([(10, 10), (0, 10), (-10, 10), (5, 30)], "collinear triple (1, 2, 3)"),
    ([(5, 30), (-10, 10), (7, 9), (10, 10), (0, 10)], "collinear triple (2, 4, 5)"),
])
def test_fan_errors_name_input_points(pts, msg):
    """A fan names faulty points by their place in the input, as the
    tangent path does, not by their clockwise place in the fan."""
    for build in (
        lambda: build_fan_config(pts, (0, -5), P1),
        lambda: validate_admissible(pts, [(1, -1)] * len(pts), P1),
    ):
        with pytest.raises(GeometryError) as exc:
            build()
        assert str(exc.value) == msg


# --- anchors ----------------------------------------------------------------

def test_anchor_of_twist_is_generator(rng):
    for _ in range(10):
        fan = rand_fan(rng, P1, 2, 6)
        m = fan.m
        for i in range(1, m + 1):
            a = anchor_word(fan, GroupoidWord((i,), (1,)))
            assert a.word == FreeWord.gen(m, i)
            a = anchor_word(fan, GroupoidWord((i,), (-2,)))
            assert a.word == FreeWord.gen(m, i, -2)


def test_anchor_refuses_a_point_out_of_range():
    fan = build_fan_config([(3, 4)], (0, -1), P1)
    with pytest.raises(GeometryError) as exc:
        anchor_word(fan, GroupoidWord((1, 10**4000), (0, 0)))
    assert str(exc.value) == (
        "point index 100000000000000000000000... (4001 chars) out of range 1..1"
    )


def test_anchor_functorial(rng):
    for _ in range(15):
        fan = rand_fan(rng, P1, 3, 6)
        m = fan.m
        pts = rand_groupoid_points(rng, m, rng.randint(1, 4))
        u = GroupoidWord(tuple(pts), tuple(rng.randint(-2, 2) for _ in pts))
        pts2 = [u.source] + rand_groupoid_points(rng, m, rng.randint(1, 3))[1:]
        while len(pts2) > 1 and pts2[1] == u.source:
            pts2 = [u.source] + rand_groupoid_points(rng, m, rng.randint(1, 3))[1:]
        v = GroupoidWord(tuple(pts2), tuple(rng.randint(-2, 2) for _ in pts2))
        assert (
            anchor_word(fan, u.compose(v)).word
            == anchor_word(fan, u).word * anchor_word(fan, v).word
        )
        assert anchor_word(fan, u.invert()).word == anchor_word(fan, u).word.inverse()


def test_anchor_rel1_relators_vanish(rng):
    for _ in range(10):
        fan = rand_fan(rng, P1, 2, 6)
        m = fan.m
        for i, j in itertools.permutations(range(1, m + 1), 2):
            w = _anchor_segment(fan, i, j) * _anchor_segment(fan, j, i)
            assert w.is_identity(), (i, j)


def test_anchor_rel2_relators_vanish(rng):
    total = 0
    for _ in range(10):
        fan = rand_fan(rng, P1, 3, 6)
        m = fan.m
        for a, b, c in itertools.permutations(range(1, m + 1), 3):
            if not is_local_triangle(fan, a, b, c):
                continue
            w = _anchor_segment(fan, a, b) * FreeWord.gen(m, b, mu_index(fan, a, b, c))
            w = w * _anchor_segment(fan, b, c) * FreeWord.gen(m, c, mu_index(fan, b, c, a))
            w = w * _anchor_segment(fan, c, a) * FreeWord.gen(m, a, mu_index(fan, c, a, b))
            assert w.is_identity(), (a, b, c)
            total += 1
    assert total > 50


def test_neighbour_hops_two_generator_form(rng):
    for _ in range(15):
        fan = rand_fan(rng, P1, 2, 6)
        m = fan.m
        hops = hop_words(fan)
        assert len(hops) == m - 1
        for k, hop in enumerate(hops, start=1):
            assert hop.points == (k, k + 1)
            assert anchor_word(fan, hop).word.is_identity()


def test_hop_telescoping(rng):
    fan = rand_fan(rng, P1, 4, 6)
    hops = hop_words(fan)
    word = hops[0]
    for h in hops[1:]:
        word = word.compose(h)
    assert word.target == 1 and word.source == fan.m


# --- forward and reconstruction ---------------------------------------------

def test_forward_single_point(rng):
    for k in range(4):
        p = ParityClass(k)
        fan = rand_fan(rng, p, 1, 1)
        N = rand_N(rng, p, 1)
        Q = forward_Q(fan, N)
        assert Q.q == ((p.diag,),)


def test_forward_symmetry(rng):
    for k in range(4):
        p = ParityClass(k)
        fan = rand_fan(rng, p, 2, 6)
        Q = forward_Q(fan, rand_N(rng, p, fan.m))
        m = fan.m
        for i in range(m):
            for j in range(m):
                assert Q.q[i][j] == p.sgn * Q.q[j][i]


def test_forward_size_mismatch(rng):
    fan = rand_fan(rng, P1, 3, 3)
    with pytest.raises(GeometryError):
        forward_Q(fan, rand_N(rng, P1, 4))
    with pytest.raises(GeometryError):
        forward_Q(fan, rand_N(rng, ParityClass(3), 3))


def test_roundtrip(rng):
    for trial in range(40):
        p = ParityClass(rng.randrange(4))
        fan = rand_fan(rng, p, 1, 6)
        N = rand_N(rng, p, fan.m)
        assert reconstruct_N(forward_Q(fan, N)).n == N.n


def test_chi_character_consistency(rng):
    for trial in range(12):
        p = ParityClass(rng.randrange(4))
        fan = rand_fan(rng, p, 2, 6)
        m = fan.m
        N = rand_N(rng, p, m)
        Q = forward_Q(fan, N)
        for _ in range(15):
            pts = rand_groupoid_points(rng, m, rng.randint(1, 5))
            w = GroupoidWord(tuple(pts), tuple(rng.randint(-2, 2) for _ in pts))
            a = anchor_word(fan, w)
            assert (
                chi_evaluate(Q, w)
                == character(N, a.word)[w.target - 1][w.source - 1]
            )


def test_Q_keeps_its_fan(rng):
    for k in range(4):
        p = ParityClass(k)
        fan = rand_fan(rng, p, 1, 6)
        Q = forward_Q(fan, rand_N(rng, p, fan.m))
        assert Q.cfg is fan and fan.basepoint is not None


# --- a configuration with tangents is no fan ----------------------------------

def test_load_config_keeps_the_basepoint(tmp_path):
    points = [["-2", "4"], ["0", "5"], ["2", "4"]]
    for extra, want in (
        ({"basepoint": ["0", "-1"]}, RationalPoint(0, -1)),
        ({"tangents": [["0", "-1"]] * 3}, None),
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_class": 1, "points": points, **extra}))
        assert load_config(str(path)).basepoint == want


def test_fan_functions_refuse_tangents(rng):
    cfg = validate_admissible([(-2, 4), (0, 5), (2, 4)], [(0, -1)] * 3, P1)
    N = rand_N(rng, P1, 3)
    for call in (
        lambda: forward_Q(cfg, N),
        lambda: reconstruct_N(validate_Q(cfg, N)),
        lambda: anchor_word(cfg, GroupoidWord((1, 2), (0, 0))),
        lambda: hop_words(cfg),
    ):
        with pytest.raises(GeometryError, match="basepoint"):
            call()
