"""Fans (admissible configurations with a basepoint, reached from it by
straight paths), the anchors of groupoid words in the free group, hop
words, the forward map N -> Q, and the reconstruction Q -> N, which reads
its fan off Q.  Each refuses a configuration without a basepoint.

Anchors come off the orientation table.  Index the fan clockwise and let
i < j.  The segment s(z_i, z_j) stays inside the wedge between the rays to
z_i and z_j; it crosses the rays between them in angular order, and it
crosses ray k beyond z_k exactly when z_k lies in the triangle
(z0, z_i, z_j), i.e. left of z_j -> z_i.  So

    anchor s(z_i, z_j) = g_i g_{k_1} ... g_{k_r},  k_1 < ... < k_r the bits of
                         left[j][i] strictly between i and j,

and anchor s(z_j, z_i) is its inverse.

Both maps are one interval push per entry i < j: row i of N through that
anchor by monodromy's row kernel, every step with coefficient eps, O(m^4)
integer operations at worst.  In the fan order forward_Q is unimodular and
triangular: Q_ij is -sgn N_ij plus a polynomial in the entries N_ab with
i <= a < b <= j, (a, b) != (i, j), and reconstruct_N inverts it entry by
entry, with no chi^Q evaluation.  The tests compare against the paper's
definitions: anchors by Fraction ray crossings, full character matrices for
Q, and the telescoping n_ij = chi^Q(c_i c_j^{-1}) along the hop words for N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .words import FreeWord, _excerpt
from .geometry import (
    AdmissibleConfig,
    CollinearError,
    GeometryError,
    RationalPoint,
    _exact,
    _tabulate,
    scale_to_int,
)
from .groupoid import GroupoidWord, StraightLineData, validate_Q
from .monodromy import IntersectionMatrix, ParityClass, _times_rho, validate_N


@dataclass(frozen=True)
class AnchorWord:
    target: int
    source: int
    word: FreeWord


def build_fan_config(points, z0, parity: ParityClass) -> AdmissibleConfig:
    """The fan with basepoint z0: points indexed clockwise as seen from z0,
    every tangent aimed at z0.

    Requires: points pairwise distinct, no three collinear, no two collinear
    with z0, and z0 strictly outside the convex hull of the points (so the
    view directions span less than a half turn and straight hops between
    angular neighbours cross no third ray).
    """
    z0 = z0 if isinstance(z0, RationalPoint) else RationalPoint.of(*z0)
    pts = [
        p if isinstance(p, RationalPoint) else RationalPoint.of(*p) for p in points
    ]
    m = len(pts)
    flat, scale = scale_to_int([c for p in (z0, *pts) for c in (p.x, p.y)])
    xy = list(zip(flat[::2], flat[1::2]))
    bx, by = xy[0]
    dirs = [(x - bx, y - by) for x, y in xy[1:]]
    # ccw[i]: how many points lie strictly counterclockwise of point i
    ccw = [0] * m
    for i in range(m):
        if dirs[i] == (0, 0):
            raise GeometryError(f"point {i + 1} coincides with the basepoint")
        xi, yi = dirs[i]
        for j in range(i + 1, m):
            c = xi * dirs[j][1] - yi * dirs[j][0]
            if c == 0:
                raise GeometryError(
                    f"duplicate point at indices {i + 1}, {j + 1}" if dirs[i] == dirs[j]
                    else f"points {i + 1} and {j + 1} are collinear with the basepoint"
                )
            ccw[i if c > 0 else j] += 1
    # z0 is strictly outside the hull iff the view directions lie in an
    # open half-plane, i.e. some point sees all others counterclockwise
    if m and max(ccw) < m - 1:
        raise GeometryError("basepoint lies inside the convex hull of the points")
    # clockwise linear order: a point's position is its ccw count
    idx = [0] * m
    for input_pos, fan_pos in enumerate(ccw):
        idx[fan_pos] = input_pos
    # the tangent z0 - p is minus the direction to p at the common scale, over it
    tans = [(-dirs[t][0], -dirs[t][1]) for t in idx]
    if scale != 1:
        tans = [(_exact(Fraction(x, scale)), _exact(Fraction(y, scale))) for x, y in tans]
    try:
        return _tabulate([pts[t] for t in idx], tans, parity, [xy[t + 1] for t in idx], z0)
    except CollinearError as exc:  # name the points by input position, not fan position
        raise CollinearError(tuple(sorted(idx[k - 1] + 1 for k in exc.triple))) from None


def _fan(cfg: AdmissibleConfig) -> AdmissibleConfig:
    """cfg, refused unless it is a fan."""
    if cfg.basepoint is None:
        raise GeometryError("needs a fan: the configuration has no basepoint")
    return cfg


def _anchor_columns(fan: AdmissibleConfig, i: int, j: int) -> list:
    """0-based [i, k_1, ..., k_r] for i < j: anchor s(z_{i+1}, z_{j+1}) is
    g_{i+1} g_{k_1+1} ... g_{k_r+1} (module docstring)."""
    inside = fan.left[j + 1][i + 1]
    return [i] + [k for k in range(i + 1, j) if inside >> (k + 1) & 1]


def _anchor_segment(fan: AdmissibleConfig, i: int, j: int) -> FreeWord:
    """Anchor of the straight generator s(z_i, z_j), read off the
    orientation table."""
    if i > j:
        return _anchor_segment(fan, j, i).inverse()
    cols = _anchor_columns(fan, i - 1, j - 1)
    return FreeWord(fan.m, tuple((k + 1, 1) for k in cols))


def anchor_word(fan: AdmissibleConfig, w: GroupoidWord) -> AnchorWord:
    """Compile a groupoid word to its free-group anchor, functorially."""
    m = _fan(fan).m
    for z in w.points:
        if not 1 <= z <= m:
            raise GeometryError(f"point index {_excerpt(z)} out of range 1..{m}")
    pairs = [(w.points[0], w.exps[0])]
    for a, b, e in zip(w.points, w.points[1:], w.exps[1:]):
        pairs += _anchor_segment(fan, a, b).letters + ((b, e),)
    return AnchorWord(w.target, w.source, FreeWord.make(m, pairs))


def hop_words(fan: AdmissibleConfig) -> list:
    """hop_k realizes c_k · c_{k+1}^{-1}: the straight generator between
    angular neighbours, whose anchor is g_k (no point lies between them),
    dressed with the twist cancelling it."""
    return [GroupoidWord((k, k + 1), (-1, 0)) for k in range(1, _fan(fan).m)]


def _interval_push(fan: AdmissibleConfig, rows, i: int, j: int, c: int) -> int:
    """Entry j (0-based, i < j) of row i of N, given by its rows, pushed
    through the anchor of s(z_{i+1}, z_{j+1}); c is the parity class's
    rho_coeff(1).

    The anchor steps through g_{i+1} and the interior points of the
    triangle (z0, z_{i+1}, z_{j+1}), each with coefficient eps.  The push
    reads the row only at those step columns and only column j is wanted,
    so it runs on those columns alone: O(r^2) for r interior points.
    """
    cols = _anchor_columns(fan, i, j)
    window = itemgetter(*cols, j)
    steps = [(t, c, window(rows[a])) for t, a in enumerate(cols)]
    return _times_rho(steps[0][2], steps)[-1]


def forward_Q(fan: AdmissibleConfig, N: IntersectionMatrix) -> StraightLineData:
    """Q(z_i, z_j) = (N rho_N(anchor s(z_i,z_j)))_{ij}; diagonal forced.
    Q_ij, i < j, ends the interval push of row i; Q_ji = sgn Q_ij."""
    if N.m != _fan(fan).m:
        raise GeometryError(f"matrix size {N.m} vs {fan.m} points")
    if N.parity != fan.parity:
        raise GeometryError("parity class mismatch between N and the fan")
    sgn, c = fan.parity.sgn, fan.parity.rho_coeff(1)
    rows = N.rows()  # its diagonal is the forced one
    for j in range(1, fan.m):
        for i in range(j):
            q = _interval_push(fan, N.n, i, j, c)
            rows[i][j], rows[j][i] = q, sgn * q
    return validate_Q(fan, rows)


def reconstruct_N(Q: StraightLineData) -> IntersectionMatrix:
    """Recover N from straight-line data by a triangular solve of forward_Q.

    Q_ij = -sgn N_ij + R_ij, where R_ij reads only the N_ab with
    i <= a < b <= j, (a, b) != (i, j).  Filling N for j ascending and,
    inside that, i descending, each of those is known when (i, j) comes
    up: push row i with N_ij held at 0 to get R_ij, and set
    N_ij = sgn (R_ij - Q_ij).
    """
    fan = _fan(Q.cfg)
    m, parity, sgn, c = fan.m, fan.parity, fan.parity.sgn, fan.parity.rho_coeff(1)
    rows = [[parity.diag if a == b else 0 for b in range(m)] for a in range(m)]
    for j in range(1, m):  # 0-based from here on
        for i in range(j - 1, -1, -1):
            val = sgn * (_interval_push(fan, rows, i, j, c) - Q.q[i][j])
            rows[i][j], rows[j][i] = val, sgn * val
    return validate_N(parity, rows)
