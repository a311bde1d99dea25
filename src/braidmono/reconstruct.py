"""Fan configurations (straight paths from a basepoint), the ray-crossing
compiler from groupoid words to free-group anchor words, hop words, the
forward map N -> Q, and the reconstruction Q -> N.

Both maps are one interval push per entry i < j: row i of N through the
anchor of s(z_i, z_j), reading columns i..j only, O(m^4) integer
operations at worst.  In the fan order forward_Q is unimodular and
triangular: Q_ij is -sgn N_ij plus a polynomial in the entries N_ab with
i <= a < b <= j, (a, b) != (i, j), and reconstruct_N inverts it entry by
entry, with no chi^Q evaluation.  The tests compare against the paper's
definitions: full character matrices for Q, and the telescoping
n_ij = chi^Q(c_i c_j^{-1}) along the hop words for N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key

from .words import FreeWord
from .geometry import (
    AdmissibleConfig,
    GeometryError,
    RationalPoint,
    scale_to_int,
    validate_admissible,
)
from .groupoid import GroupoidWord, StraightLineData, validate_Q
from .monodromy import IntersectionMatrix, ParityClass, validate_N


@dataclass(frozen=True)
class FanConfiguration:
    """Admissible configuration whose tangents aim at a basepoint z0 from
    which every point is reached by a straight path; points are indexed by
    clockwise angle at z0.

    order[k] is the fan index (1-based) of the k-th input point; xy holds
    z0 and then z_1..z_m in integer coordinates (one common scale).
    """

    cfg: AdmissibleConfig
    z0: RationalPoint
    order: tuple[int, ...]
    xy: tuple = field(compare=False, repr=False)


@dataclass(frozen=True)
class AnchorWord:
    target: int
    source: int
    word: FreeWord


def build_fan_config(points, z0, parity: ParityClass, tangents=None) -> FanConfiguration:
    """Index points clockwise as seen from z0 and aim all tangents at z0.

    Requires: points pairwise distinct, no three collinear, no two collinear
    with z0, and z0 strictly outside the convex hull of the points (so the
    view directions span less than a half turn and straight hops between
    angular neighbours cross no third ray).
    """
    if tangents is not None:
        raise GeometryError("only basepoint-aimed tangents are supported")
    z0 = z0 if isinstance(z0, RationalPoint) else RationalPoint.of(*z0)
    pts = [
        p if isinstance(p, RationalPoint) else RationalPoint.of(*p) for p in points
    ]
    m = len(pts)
    flat = scale_to_int([c for p in (z0, *pts) for c in (p.x, p.y)])
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
                    f"points {i + 1} and {j + 1} are collinear with the basepoint"
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
    ordered = [pts[t] for t in idx]
    tans = [(z0.x - p.x, z0.y - p.y) for p in ordered]
    cfg = validate_admissible(ordered, tans, parity)
    order = tuple(c + 1 for c in ccw)
    return FanConfiguration(cfg, z0, order, (xy[0], *(xy[t + 1] for t in idx)))


def _anchor_segment(fan: FanConfiguration, i: int, j: int) -> FreeWord:
    """Anchor of the straight generator s(z_i, z_j): traverse the path to
    z_j, the segment z_j -> z_i, and the path from z_i backwards, recording
    ray crossings and endpoint turn sweeps; later letters multiply left."""
    xy = fan.xy
    (bx, by), (ix, iy), (jx, jy) = xy[0], xy[i], xy[j]
    dx, dy = ix - jx, iy - jy  # d = z_i - z_j
    letters: list[tuple[int, int]] = []  # traversal order
    # clockwise sweep at the source crosses z_j's own ray iff the segment
    # leaves on the counterclockwise side of the z0 -> z_j line
    if (bx - jx) * dy - (by - jy) * dx > 0:
        letters.append((j, -1))
    hits = []
    for k in range(1, len(xy)):
        if k == i or k == j:
            continue
        kx, ky = xy[k]
        rx, ry = kx - bx, ky - by  # ray direction beyond z_k
        den = dx * ry - dy * rx
        if den == 0:
            continue
        ex, ey = kx - jx, ky - jy  # z_k - z_j
        # the segment meets the ray at z_j + (s/den) d = z_k + (t/den) r
        s = ex * ry - ey * rx
        t = ex * dy - ey * dx
        if den < 0:
            den, s, t = -den, -s, -t
        if 0 < s < den and t > 0:
            hits.append((s, den, k, 1 if dx * ey - dy * ex > 0 else -1))
    # crossing parameters are distinct (no two rays are collinear)
    hits.sort(key=cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1]))
    letters.extend((k, e) for _, _, k, e in hits)
    # counterclockwise sweep at the target crosses z_i's ray iff the
    # segment arrives on the clockwise side of the z0 -> z_i line
    if dy * (bx - ix) - dx * (by - iy) < 0:
        letters.append((i, 1))
    return FreeWord.make(fan.cfg.m, reversed(letters))


def anchor_word(fan: FanConfiguration, w: GroupoidWord) -> AnchorWord:
    """Compile a groupoid word to its free-group anchor, functorially."""
    m = fan.cfg.m
    for z in w.points:
        if not 1 <= z <= m:
            raise GeometryError(f"point index {z} out of range 1..{m}")
    out = FreeWord.gen(m, w.points[0], w.exps[0])
    for t in range(len(w.points) - 1):
        out = out * _anchor_segment(fan, w.points[t], w.points[t + 1])
        out = out * FreeWord.gen(m, w.points[t + 1], w.exps[t + 1])
    return AnchorWord(w.target, w.source, out)


def hop_words(fan: FanConfiguration) -> list:
    """hop_k realizes c_k · c_{k+1}^{-1}: the straight generator between
    angular neighbours dressed with the twists cancelling its anchor."""
    m = fan.cfg.m
    hops = []
    for k in range(1, m):
        u = _anchor_segment(fan, k, k + 1)
        expo = {k: 0, k + 1: 0}
        for idx, e in u.letters:
            if idx not in expo:
                raise AssertionError(
                    f"neighbour segment {k},{k + 1} crossed ray {idx}"
                )
            expo[idx] += e
        hops.append(GroupoidWord((k, k + 1), (-expo[k], -expo[k + 1])))
    return hops


def _interval_push(fan: FanConfiguration, rows, i: int, j: int) -> list:
    """Columns i..j (0-based, i < j) of row i of N, given by its rows,
    pushed through the anchor of s(z_{i+1}, z_{j+1}).

    In the fan order that anchor is g_{i+1} followed by letters g_k^{±1}
    with i+1 < k < j+1 only: the segment stays inside the wedge between
    the rays to its endpoints.  So the push reads only columns i..j of the
    rows i..j-1: its first step scales the row by 1 - eps*diag = -sgn, and
    no later step reads column j.  O(|anchor| (j - i)) integer operations.
    """
    head, *rest = _anchor_segment(fan, i + 1, j + 1).letters
    if head != (i + 1, 1) or not all(i + 1 < k < j + 1 for k, _ in rest):
        raise AssertionError(f"anchor of s({i + 1},{j + 1}) leaves the fan interval")
    sgn, eps = fan.cfg.parity.sgn, fan.cfg.parity.eps
    row = [-sgn * x for x in rows[i][i : j + 1]]  # after the g_{i+1} step
    for k, e in rest:
        s = eps if e > 0 else sgn * eps
        for _ in range(abs(e)):
            c = row[k - 1 - i]
            if c:
                row = [x - s * c * y for x, y in zip(row, rows[k - 1][i : j + 1])]
    return row


def forward_Q(fan: FanConfiguration, N: IntersectionMatrix) -> StraightLineData:
    """Q(z_i, z_j) = (N rho_N(anchor s(z_i,z_j)))_{ij}; diagonal forced.
    Q_ij, i < j, ends the interval push of row i; Q_ji = sgn Q_ij."""
    cfg = fan.cfg
    if N.m != cfg.m:
        raise GeometryError(f"matrix size {N.m} vs {cfg.m} points")
    if N.parity != cfg.parity:
        raise GeometryError("parity class mismatch between N and the fan")
    sgn = cfg.parity.sgn
    rows = N.rows()  # its diagonal is the forced one
    for j in range(1, cfg.m):
        for i in range(j):
            q = _interval_push(fan, N.n, i, j)[-1]
            rows[i][j], rows[j][i] = q, sgn * q
    return validate_Q(cfg, rows)


def reconstruct_N(fan: FanConfiguration, Q: StraightLineData) -> IntersectionMatrix:
    """Recover N from straight-line data by a triangular solve of forward_Q.

    Q_ij = -sgn N_ij + R_ij, where R_ij reads only the N_ab with
    i <= a < b <= j, (a, b) != (i, j).  Filling N for j ascending and,
    inside that, i descending, each of those is known when (i, j) comes
    up: push row i with N_ij held at 0 to get R_ij, and set
    N_ij = sgn (R_ij - Q_ij).
    """
    cfg = fan.cfg
    if Q.cfg is not cfg and Q.cfg != cfg:
        raise GeometryError("Q is not indexed by this fan configuration")
    m, parity, sgn = cfg.m, cfg.parity, cfg.parity.sgn
    rows = [[parity.diag if a == b else 0 for b in range(m)] for a in range(m)]
    for j in range(1, m):  # 0-based from here on
        for i in range(j - 1, -1, -1):
            val = sgn * (_interval_push(fan, rows, i, j)[-1] - Q.q[i][j])
            rows[i][j], rows[j][i] = val, sgn * val
    return validate_N(parity, rows)
