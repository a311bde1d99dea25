"""Exact rational plane geometry for admissible configurations: orientation
predicates, local triangles, the mu-index, extremal points, and angular
chains around them.

`validate_admissible` scales a configuration once to integer coordinates
(orientation is invariant under positive scaling) and tabulates the sign of
every orientation and tangent side, as bitmasks of points.  The predicates
below only read those tables, so they are exact without any Fraction
arithmetic.  Hull vertices come off the same table, memoised per active
subset on the configuration.  A fan is a configuration with a basepoint,
from which every point is reached by a straight path and at which every
tangent aims; `reconstruct.build_fan_config` hands its already-scaled
coordinates to the same tabulation core, and `reconstruct` reads every
anchor off the table: for clockwise fan indices i < j, the straight path
s(z_i, z_j) crosses ray k beyond z_k exactly when k lies in left[j][i] and
i < k < j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .monodromy import ParityClass
from .words import read_rational


class GeometryError(ValueError):
    pass


class CollinearError(GeometryError):
    def __init__(self, triple: tuple):  # three points on a line, by 1-based index
        super().__init__(f"collinear triple {triple}")
        self.triple = triple


def _exact(x):
    """x as an int when it is integral, else as a Fraction; ints and integral
    floats build no Fraction, and a string is read by words.read_rational."""
    if type(x) is int or isinstance(x, float) and x.is_integer():
        return int(x)
    if isinstance(x, str):
        return read_rational(x)
    x = x if isinstance(x, Fraction) else Fraction(x)
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class RationalPoint:
    """Exact coordinates: ints, or Fractions when not integral (_exact)."""

    x: int | Fraction
    y: int | Fraction

    @staticmethod
    def of(x, y) -> "RationalPoint":
        return RationalPoint(_exact(x), _exact(y))


def orient(a: RationalPoint, b: RationalPoint, c: RationalPoint) -> int:
    """+1 counterclockwise, -1 clockwise, 0 collinear.

    The configuration predicates read this sign from the table built by
    `validate_admissible` instead of recomputing it.
    """
    d = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    return (d > 0) - (d < 0)


def scale_to_int(coords):
    """(coords times s, s) for the exact rationals coords and s the lcm of
    their denominators: integers in the same ratios.  Integers come back
    as they are, with s = 1."""
    s = lcm(*(c.denominator for c in coords))
    return (coords if s == 1 else [c.numerator * (s // c.denominator) for c in coords]), s


@dataclass(frozen=True)
class AdmissibleConfig:
    """Distinct points, no three collinear, tangent at each point never a
    positive multiple of the direction to another point.  basepoint is None
    unless the configuration is a fan (module docstring).

    The remaining fields are derived by `validate_admissible` and take no
    part in equality.  Point sets are bitmasks, bit k standing for the
    1-based point k:
      left[a][b]       the points c with orient(z_a, z_b, z_c) = +1 (left of
                       z_a -> z_b); those with -1 are left[b][a].  This is
                       the orientation-sign table, one row per (a, b).
      tangent_side[w]  (the points a with sign(cross(z_a - z_w, v_w)) = +1,
                       those with -1).
      hulls            extremal points per active subset, filled lazily.
    """

    points: tuple[RationalPoint, ...]
    tangents: tuple[tuple[Fraction, Fraction], ...]
    parity: ParityClass
    basepoint: RationalPoint | None
    left: tuple = field(compare=False, repr=False)
    tangent_side: tuple = field(compare=False, repr=False)
    hulls: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def m(self) -> int:
        return len(self.points)

    def mask(self, indices=None) -> int:
        """The bitmask of `indices` (1-based), or of all points when None."""
        if indices is None:
            return (1 << (self.m + 1)) - 2
        out = 0
        for k in indices:
            out |= 1 << k
        return out


def validate_admissible(points, tangents, parity: ParityClass) -> AdmissibleConfig:
    pts = tuple(
        p if isinstance(p, RationalPoint) else RationalPoint.of(*p) for p in points
    )
    tans = tuple((_exact(vx), _exact(vy)) for vx, vy in tangents)
    if len(tans) != len(pts):
        raise GeometryError("need one tangent per point")
    for v in tans:
        if v == (0, 0):
            raise GeometryError("tangent vectors must be nonzero")
    flat = scale_to_int([c for p in pts for c in (p.x, p.y)])[0]
    xy = list(zip(flat[::2], flat[1::2]))
    return _tabulate(pts, tans, parity, xy, None)


def _tabulate(pts, tans, parity, xy, basepoint) -> AdmissibleConfig:
    """The configuration (pts, tans) with its sign tables, computed from xy,
    the points in integer coordinates at one common scale; checks
    distinctness, collinearity and aimed tangents in that order.  Given a
    basepoint, (pts, tans) is a fan in clockwise order, whose tangent i has
    the points before i on its + side."""
    m = len(xy)
    for i in range(m):
        for j in range(i + 1, m):
            if xy[i] == xy[j]:
                raise GeometryError(f"duplicate point at indices {i + 1}, {j + 1}")
    xy = [None, *xy]  # 1-based
    left = [[0] * (m + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        (xi, yi), left_i, bit_i = xy[i], left[i], 1 << i
        for j in range(i + 1, m + 1):
            (xj, yj), left_j, bit_j = xy[j], left[j], 1 << j
            ux, uy = xj - xi, yj - yi
            for k in range(j + 1, m + 1):
                xk, yk = xy[k]
                s = ux * (yk - yi) - uy * (xk - xi)
                if s > 0:  # (i, j, k) is ccw
                    left_i[j] |= 1 << k
                    left_j[k] |= bit_i
                    left[k][i] |= bit_j
                elif s < 0:  # (j, i, k) is ccw
                    left_j[i] |= 1 << k
                    left_i[k] |= bit_j
                    left[k][j] |= bit_i
                else:
                    raise CollinearError((i, j, k))
    sides = [(0, 0)]
    for i in range(1, m + 1):
        if basepoint is not None:
            sides.append(((1 << i) - 2, (1 << (m + 1)) - (1 << (i + 1))))
            continue
        vx, vy = scale_to_int(tans[i - 1])[0]  # an integer direction
        xi, yi = xy[i]
        pos = neg = 0
        for j in range(1, m + 1):
            if i == j:
                continue
            dx, dy = xy[j][0] - xi, xy[j][1] - yi
            c = dx * vy - dy * vx
            if c == 0 and vx * dx + vy * dy > 0:
                raise GeometryError(f"tangent at point {i} aims at point {j}")
            if c > 0:
                pos |= 1 << j
            elif c < 0:
                neg |= 1 << j
        sides.append((pos, neg))
    return AdmissibleConfig(
        tuple(pts),
        tuple(tans),
        parity,
        basepoint,
        tuple(map(tuple, left)),
        tuple(sides),
    )


def is_local_triangle(cfg: AdmissibleConfig, i: int, w: int, j: int, indices=None) -> bool:
    """True iff no other configuration point (restricted to `indices` when
    given) lies in the triangle (i, w, j).

    Indices are 1-based; boundary incidence is impossible (no 3 collinear),
    so the strict interior test decides.
    """
    if len({i, w, j}) != 3:
        raise GeometryError("indices must be distinct")
    left = cfg.left
    if left[i][w] >> j & 1:  # counterclockwise: inside is left of every edge
        inside = left[i][w] & left[w][j] & left[j][i]
    else:
        inside = left[w][i] & left[j][w] & left[i][j]
    return not inside & cfg.mask(indices)


def mu_index(cfg: AdmissibleConfig, z0: int, w: int, z1: int) -> int:
    """±1 if the tangent at w points into the open cone of the triangle
    (z0, w, z1) at w, signed by orientation; 0 otherwise."""
    if len({z0, w, z1}) != 3:
        raise GeometryError("indices must be distinct")
    pos, neg = cfg.tangent_side[w]
    if cfg.left[z0][w] >> z1 & 1:
        return 1 if pos >> z1 & 1 and neg >> z0 & 1 else 0
    return -1 if neg >> z1 & 1 and pos >> z0 & 1 else 0


def extremal_points(cfg: AdmissibleConfig, indices=None) -> list:
    """Indices (1-based, ascending) of convex-hull vertices of the
    configuration, or of the subset `indices` when given.

    p is a vertex iff p -> q is a hull edge for some q, i.e. no point of
    the subset lies left of q -> p; below 3 points, every point is one.
    Memoised per subset.
    """
    pool = cfg.mask(indices)
    hull = cfg.hulls.get(pool)
    if hull is None:
        members = [k for k in range(1, cfg.m + 1) if pool >> k & 1]
        left = cfg.left
        hull = cfg.hulls[pool] = tuple(
            p for p in members
            if len(members) < 3 or any(q != p and not left[q][p] & pool for q in members)
        )
    return list(hull)


def angular_order(cfg: AdmissibleConfig, e: int, indices=None) -> list:
    """Points of the configuration (or the given subset), sorted by angle
    as seen from the extremal point e.

    At a hull vertex the directions span an open half-plane (< pi, since no
    three points are collinear), so "b is counterclockwise of a" is a total
    order; we return counterclockwise order.  It is total exactly when the
    points have pairwise different numbers of points counterclockwise of
    them.
    """
    seen_from_e = cfg.left[e]
    pool = cfg.mask(indices) & ~(1 << e)
    n = pool.bit_count()
    out = [0] * n
    for a in range(1, cfg.m + 1):
        if pool >> a & 1:
            rank = n - 1 - (seen_from_e[a] & pool).bit_count()
            if out[rank]:
                raise GeometryError(f"point {e} is not extremal for the subset")
            out[rank] = a
    return out


def chain(cfg: AdmissibleConfig, e: int, z: int, a: int, indices=None) -> list:
    """The angular sequence z = w_0, ..., w_r = a of points consecutive in
    angular order from e; every triple (w_{t-1}, e, w_t) is a local
    triangle within the subset."""
    order = angular_order(cfg, e, indices)
    iz, ia = order.index(z), order.index(a)
    if iz <= ia:
        return order[iz : ia + 1]
    return list(reversed(order[ia : iz + 1]))
