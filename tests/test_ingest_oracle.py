"""The integer-native ingest against the Fraction construction it replaced.

load_config keeps an integral coordinate as an int, makes a Fraction only of
a non-integral one, and builds fan tangents from integer directions.  The
reference below is the earlier construction: every coordinate a Fraction,
each fan tangent the Fraction difference z0 - p, and every sign a Fraction
cross product.  The two must agree at == on points, tangents, basepoint and
both sign tables, and the CLI must print the same bytes however the same numbers
are written.
"""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from braidmono import AdmissibleConfig, GeometryError, ParityClass
from braidmono.cli import main
from braidmono.geometry import RationalPoint
from braidmono.reconstruct import forward_Q
from braidmono.serialize import load_config
from conftest import all_parities, rand_N

STYLES = ("int", "str", "pq", "float", "mixed")


# --- Fraction reference -------------------------------------------------------

def sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def ref_tables(pts, tans):
    """(left, tangent_side) of geometry.AdmissibleConfig, from Fraction
    cross products: left[a][b] holds c when z_c is left of z_a -> z_b, and
    tangent_side[w] the points a with cross(z_a - z_w, v_w) > 0, then < 0."""
    m = len(pts)
    P = [None, *pts]

    def mask(test):
        return sum(1 << c for c in range(1, m + 1) if test(c))

    left = tuple(
        tuple(
            mask(lambda c: cross(sub(P[b], P[a]), sub(P[c], P[a])) > 0) if a and b else 0
            for b in range(m + 1)
        )
        for a in range(m + 1)
    )
    sides = ((0, 0),) + tuple(
        (
            mask(lambda a: cross(sub(P[a], P[w]), tans[w - 1]) > 0),
            mask(lambda a: cross(sub(P[a], P[w]), tans[w - 1]) < 0),
        )
        for w in range(1, m + 1)
    )
    return left, sides


def ref_fan(points, z0):
    """(points, tangents, left, tangent_side, z0) of the fan, the earlier
    way: Fraction coordinates, clockwise order by the number of
    points counterclockwise of each as seen from z0, tangents z0 - p."""
    P = [(Fraction(x), Fraction(y)) for x, y in points]
    Z = (Fraction(z0[0]), Fraction(z0[1]))
    ccw = [sum(cross(sub(p, Z), sub(q, Z)) > 0 for q in P) for p in P]
    pts = [P[t] for t in sorted(range(len(P)), key=ccw.__getitem__)]
    tans = [sub(Z, p) for p in pts]
    return (pts, tans, *ref_tables(pts, tans), Z)


# --- random fans, written several ways ---------------------------------------------

def rand_value(rng, lo, hi, integral):
    if integral:
        return Fraction(rng.randint(lo, hi))
    d = rng.choice((1, 2, 3, 4, 5, 8, 12))
    return Fraction(rng.randint(lo * d, hi * d), d)


def encode(rng, x, style):
    """x as a JSON token of the given style; integral values only in the
    int, str and float styles."""
    if style == "mixed":
        style = rng.choice(("int", "str", "float", "pq")) if x.denominator == 1 else "pq"
    if style == "int":
        return int(x)
    if style == "str":
        return str(int(x))
    if style == "float":
        return float(x)
    if x.denominator in (1, 2, 4, 5, 8) and rng.random() < 0.3:
        return str(x.numerator / x.denominator)  # an exact decimal such as "2.5"
    return f"{x.numerator * 2}/{x.denominator * 2}"  # not in lowest terms


def rand_fan_input(rng, m, style):
    """(points, z0) of a fan, as Fractions, redrawn until admissible."""
    integral = style in ("int", "str", "float")
    while True:
        pts = [
            (rand_value(rng, -40, 40, integral), rand_value(rng, 5, 60, integral))
            for _ in range(m)
        ]
        z0 = (rand_value(rng, -5, 5, integral), rand_value(rng, -9, -1, integral))
        obj = {"n_class": 0, "points": pts, "basepoint": z0}
        try:
            load_config(obj)
        except GeometryError:
            continue
        return pts, z0


def as_json(rng, parity, pts, z0, style):
    return {
        "n_class": parity.n_mod_4,
        "points": [[encode(rng, x, style), encode(rng, y, style)] for x, y in pts],
        "basepoint": [encode(rng, c, style) for c in z0],
    }


def assert_exact_types(values):
    for x in values:
        assert type(x) is (int if x.denominator == 1 else Fraction), x


# --- agreement ----------------------------------------------------------------------

@pytest.mark.parametrize("style", STYLES)
def test_fan_matches_fraction_construction(style):
    rng = random.Random(f"fan:{style}")
    for t in range(80):
        m, parity = 1 + t % 8, ParityClass(t % 4)
        pts, z0 = rand_fan_input(rng, m, style)
        fan = load_config(json.loads(json.dumps(as_json(rng, parity, pts, z0, style))))
        want_pts, want_tans, left, sides, Z = ref_fan(pts, z0)
        assert [(p.x, p.y) for p in fan.points] == want_pts
        assert list(fan.tangents) == want_tans
        assert (fan.left, fan.tangent_side) == (left, sides)
        assert (fan.basepoint.x, fan.basepoint.y) == Z
        assert_exact_types([c for p in (*fan.points, fan.basepoint) for c in (p.x, p.y)])
        assert_exact_types([c for v in fan.tangents for c in v])


@pytest.mark.parametrize("style", STYLES)
def test_explicit_tangents_match_fraction_construction(style):
    rng = random.Random(f"tangents:{style}")
    integral = style in ("int", "str", "float")
    checked = 0
    while checked < 60:
        m = rng.randint(1, 7)
        pts = [(rand_value(rng, -9, 9, integral), rand_value(rng, -9, 9, integral)) for _ in range(m)]
        tans = [(rand_value(rng, -3, 3, integral), rand_value(rng, -3, 3, integral)) for _ in range(m)]
        obj = {
            "n_class": rng.randrange(4),
            "points": [[encode(rng, x, style), encode(rng, y, style)] for x, y in pts],
            "tangents": [[encode(rng, x, style), encode(rng, y, style)] for x, y in tans],
        }
        try:
            cfg = load_config(obj)
        except GeometryError:
            continue
        assert [(p.x, p.y) for p in cfg.points] == pts
        assert list(cfg.tangents) == tans
        assert (cfg.left, cfg.tangent_side) == ref_tables(pts, tans)
        assert_exact_types([c for p in cfg.points for c in (p.x, p.y)])
        assert_exact_types([c for v in cfg.tangents for c in v])
        checked += 1


def run(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("parity", all_parities(), ids=lambda p: f"n{p.n_mod_4}")
def test_cli_output_is_byte_identical(tmp_path, parity):
    """forward and reconstruct print the same bytes for every way of
    writing the fan, and forward prints what the Fraction-built fan gives."""
    rng = random.Random(f"cli:{parity.n_mod_4}")
    for m in range(1, 9):
        pts, z0 = rand_fan_input(rng, m, "int")
        N = rand_N(rng, parity, m)
        want_pts, want_tans, left, sides, Z = ref_fan(pts, z0)
        ref = AdmissibleConfig(
            tuple(RationalPoint(*p) for p in want_pts), tuple(want_tans), parity,
            RationalPoint(*Z), left, sides,
        )
        Q = forward_Q(ref, N)
        want_q = json.dumps({"n_class": parity.n_mod_4, "matrix": [list(r) for r in Q.q]}) + "\n"
        want_n = json.dumps({"n_class": parity.n_mod_4, "matrix": N.rows()}) + "\n"
        n_path, q_path = tmp_path / "N.json", tmp_path / "Q.json"
        n_path.write_text(json.dumps({"n_class": parity.n_mod_4, "matrix": N.rows()}))
        q_path.write_text(want_q)
        for style in ("int", "str", "float", "pq", "mixed"):
            cfg_path = tmp_path / f"{style}.json"
            cfg_path.write_text(json.dumps(as_json(rng, parity, pts, z0, style)))
            assert run(["forward", "--config", str(cfg_path), "--matrix", str(n_path)]) == want_q
            assert run(["reconstruct", "--config", str(cfg_path), "--q", str(q_path)]) == want_n


def test_integer_config_builds_no_fraction(tmp_path, monkeypatch):
    """An all-integer config, in JSON ints, integer strings and integral
    floats, loads without a single Fraction."""
    made = []
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    f = tmp_path / "cfg.json"
    points = [[-12, "34"], ["7", 20.0], [30.0, 41], ["-3", "9"]]
    for extra in ({"basepoint": ["1", -4]}, {"tangents": [[0, 1], [1, 0], ["-1", 2.0], [3, 3]]}):
        f.write_text(json.dumps({"n_class": 3, "points": points, **extra}))
        config = load_config(str(f))
        assert made == []
        assert all(type(c) is int for p in config.points for c in (p.x, p.y))
    # the counter does see the Fractions a "p/q" coordinate needs
    f.write_text(json.dumps({"n_class": 3, "points": [["1/2", 4]], "basepoint": [0, -1]}))
    load_config(str(f))
    assert made
