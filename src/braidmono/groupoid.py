"""The path groupoid over an admissible configuration and the chi^Q
evaluator.

A GroupoidWord (z_0, m_0, z_1, m_1, ..., z_k, m_k) stands for

    eps(z_0)^{m_0} s(z_0, z_1) eps(z_1)^{m_1} ... s(z_{k-1}, z_k) eps(z_k)^{m_k},

a morphism FROM z_k TO z_0 (listing order is target-first).  chi^Q is the
unique character with chi^Q(s(z, z')) = Q(z, z') subject to the reflection
laws; the evaluator mirrors the inductive uniqueness argument: strip
boundary twists, cancel backtracks, shift interior twists at an extremal
point to their mu-index targets, rewrite its visits through angular chains,
and go on with the configuration with that point removed.  A twist moves to
its target in one step, in closed form, and the sub-words each step needs are
evaluated on an explicit stack, so no input reaches the interpreter's
recursion limit; the step budget bounds the cost instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .geometry import (
    AdmissibleConfig,
    GeometryError,
    chain,
    extremal_points,
    is_local_triangle,
    mu_index,
)
from .monodromy import IntersectionMatrix, ParityError, validate_N
from .words import WordError, _excerpt, read_int


class GroupoidError(ValueError):
    pass


@dataclass(frozen=True)
class GroupoidWord:
    points: tuple[int, ...]
    exps: tuple[int, ...]

    def __post_init__(self):
        if len(self.points) != len(self.exps) or not self.points:
            raise GroupoidError("need one exponent per point, k >= 0")
        for a, b in zip(self.points, self.points[1:]):
            if a == b:
                raise GroupoidError(f"repeated adjacent point {_excerpt(a)}")

    @property
    def target(self) -> int:
        return self.points[0]

    @property
    def source(self) -> int:
        return self.points[-1]

    def compose(self, other: "GroupoidWord") -> "GroupoidWord":
        if self.source != other.target:
            raise GroupoidError(
                f"cannot compose: source {self.source} != target {other.target}"
            )
        return GroupoidWord(
            self.points + other.points[1:],
            self.exps[:-1] + (self.exps[-1] + other.exps[0],) + other.exps[1:],
        )

    def invert(self) -> "GroupoidWord":
        return GroupoidWord(
            tuple(reversed(self.points)), tuple(-e for e in reversed(self.exps))
        )

    def __str__(self) -> str:
        return ",".join(f"{z}:{e}" for z, e in zip(self.points, self.exps))


def parse_groupoid_word(text: str) -> GroupoidWord:
    """Grammar: comma-separated index:exponent pairs, target first."""
    pts, exps = [], []
    for item in text.split(","):
        z, _, e = item.partition(":")
        try:
            pts.append(read_int(z))
            exps.append(read_int(e))
        except WordError as exc:
            raise GroupoidError(f"bad groupoid word item {_excerpt(repr(item))}: {exc}") from None
    return GroupoidWord(tuple(pts), tuple(exps))


@dataclass(frozen=True)
class StraightLineData:
    """Symmetric/skew straight-line intersection data over a config; over a
    fan, cfg keeps its basepoint, so reconstruct_N reads the fan off Q."""

    cfg: AdmissibleConfig
    q: tuple[tuple[int, ...], ...]


def validate_Q(cfg: AdmissibleConfig, rows) -> StraightLineData:
    """Q over cfg: an m x m matrix with the parity laws of validate_N.  An
    IntersectionMatrix of cfg's parity class has passed them already."""
    if not isinstance(rows, IntersectionMatrix):
        try:
            rows = validate_N(cfg.parity, rows)
        except ParityError as exc:
            raise GroupoidError(f"Q: {exc}") from None
    elif rows.parity != cfg.parity:
        raise GroupoidError("Q: parity class mismatch with the configuration")
    if rows.m != cfg.m:
        raise GroupoidError(f"Q must be {cfg.m}x{cfg.m}")
    return StraightLineData(cfg, rows.n)


# --- relation rewrites (also used by the well-definedness tests) -----------

def rel1_insert(w: GroupoidWord, pos: int, mid: int, left_exp: int) -> GroupoidWord:
    """Insert a backtrack through `mid` at point position pos, splitting the
    twist exponent there as left_exp + (old - left_exp)."""
    z = w.points[pos]
    if mid == z:
        raise GroupoidError("backtrack point must differ")
    pts = w.points[:pos + 1] + (mid, z) + w.points[pos + 1:]
    exps = (
        w.exps[:pos]
        + (left_exp, 0, w.exps[pos] - left_exp)
        + w.exps[pos + 1:]
    )
    return GroupoidWord(pts, exps)


def _rel2_twists(cfg: AdmissibleConfig, z: int, mid: int, zp: int) -> tuple:
    """Relation 2's twists at z, mid and z' for s(z, z') through mid:
    (mu(z',z,mid), mu(z,mid,z'), mu(mid,z',z))."""
    return mu_index(cfg, zp, z, mid), mu_index(cfg, z, mid, zp), mu_index(cfg, mid, zp, z)


def rel2_rewrite(cfg: AdmissibleConfig, w: GroupoidWord, seg: int, mid: int) -> GroupoidWord:
    """Rewrite segment s(z, z') (between point positions seg, seg+1) through
    a local triangle (z, mid, z'):

        s(z,z') = eps(z)^{mu(z',z,mid)} s(z,mid) eps(mid)^{mu(z,mid,z')}
                  s(mid,z') eps(z')^{mu(mid,z',z)}
    """
    z, zp = w.points[seg], w.points[seg + 1]
    if not is_local_triangle(cfg, z, mid, zp):
        raise GroupoidError(f"({z}, {mid}, {zp}) is not a local triangle")
    mu0, mu1, mu2 = _rel2_twists(cfg, z, mid, zp)
    pts = w.points[:seg + 1] + (mid,) + w.points[seg + 1:]
    exps = (
        w.exps[:seg]
        + (w.exps[seg] + mu0, mu1, mu2 + w.exps[seg + 1])
        + w.exps[seg + 2:]
    )
    return GroupoidWord(pts, exps)


# --- the evaluator ---------------------------------------------------------

class _Evaluator:
    """chi^Q on an explicit stack.  ev, _core and _split are generators: each
    yields a sub-word (active, pts, exps) it needs and is sent its value, and
    run drives the suspended frames from a list, so neither a twist nor a
    word's length deepens the interpreter stack."""

    def __init__(self, data: StraightLineData, rng: random.Random | None, max_steps: int):
        self.cfg = data.cfg
        self.q = data.q
        p = data.cfg.parity
        self.diag = p.diag
        self.factor = {step: p.rho_coeff(step) for step in (1, -1)}
        self.bsign = -p.sgn  # (-1)^{n+1}
        self.rng = rng
        self.steps = max_steps
        self.memo: dict = {}

    def _charge(self, points: int):
        self.steps -= points
        if self.steps <= 0:
            raise GroupoidError("chi evaluation step budget exhausted")

    def run(self, active: tuple, pts, exps) -> int:
        """Drive ev on a list of suspended frames; the value of the word."""
        stack = [self.ev(active, pts, exps)]
        value = None
        while stack:
            try:
                sub = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                value = done.value
            else:
                stack.append(self.ev(*sub))
                value = None
        return value

    def _normalize(self, pts, exps):
        """Cancel each backtrack a, b, a with twist 0 at b in one pass over a
        stack, as in free reduction, then strip the boundary twists,
        collecting their sign b^(e&1).  One pass keeps the cost linear in
        the points, so the step budget bounds the time a word takes."""
        out_pts, out_exps = [pts[0]], [exps[0]]
        for z, e in zip(pts[1:], exps[1:]):
            if len(out_pts) > 1 and out_exps[-1] == 0 and out_pts[-2] == z:
                out_pts.pop()
                out_exps.pop()
                out_exps[-1] += e
            else:
                out_pts.append(z)
                out_exps.append(e)
        end = out_exps[0] if len(out_pts) == 1 else out_exps[0] + out_exps[-1]
        out_exps[0] = out_exps[-1] = 0
        return self.bsign ** (end & 1), tuple(out_pts), tuple(out_exps)

    def _mu_target(self, a: int, e: int, b: int) -> int:
        return 0 if a == b else mu_index(self.cfg, a, e, b)

    def ev(self, active: tuple, pts, exps):
        """The value of a word, charged its point count after normalising."""
        s, pts, exps = self._normalize(pts, exps)
        self._charge(len(pts))
        if len(pts) == 1:
            return s * self.diag
        if len(pts) == 2:
            return s * self.q[pts[0] - 1][pts[1] - 1]
        key = (active, pts, exps)
        value = self.memo.get(key)
        if value is None:
            value = self.memo[key] = yield from self._core(active, pts, exps)
        return s * value

    def _split(self, active, pts, exps, i, target):
        """Move exps[i] to target at once.  For a twist x at i, one unit step
        of the reflection law reads chi(x + step) = chi(x) - f b^(x&1) chi(A0)
        chi(B): A0 = pts[:i+1] with end twist 0 (the twist x there strips to
        the sign b^(x&1)) and B = pts[i:] do not depend on x.  Summed over x
        in [lo, hi], chi(m) = chi(target) - f S chi(A0) chi(B), where S, the
        sum of b^(x&1), is the range's length for b = 1 and #even - #odd
        for b = -1; when S = 0, chi(A0) and chi(B) are not evaluated."""
        m = exps[i]
        step = 1 if m > target else -1
        lo, hi = (target, m - 1) if step == 1 else (m + 1, target)
        n = hi - lo + 1
        weight = n if self.bsign == 1 else (n & 1) * (1 - 2 * (lo & 1))
        value = yield active, pts, exps[:i] + (target,) + exps[i + 1:]
        if weight == 0:
            return value
        a = yield active, pts[: i + 1], exps[:i] + (0,)
        b = yield active, pts[i:], (0,) + exps[i + 1:]
        return value - self.factor[step] * weight * a * b

    def _core(self, active, pts, exps):
        if len(active) < 3:
            # two-point configuration: push every interior twist to zero;
            # backtrack cancellation then finishes the job
            for i in range(1, len(pts) - 1):
                if exps[i] != 0:
                    return (yield from self._split(active, pts, exps, i, 0))
            raise AssertionError("normalized two-point word with no twists")

        ext = extremal_points(self.cfg, active)
        cand = [e for e in ext if e != pts[0] and e != pts[-1]]
        if not cand:
            raise AssertionError("no admissible extremal point")
        e = cand[0] if self.rng is None else self.rng.choice(cand)

        sub = tuple(k for k in active if k != e)
        if e not in pts:
            return (yield sub, pts, exps)

        # shift every interior twist at e to its mu target
        for i in range(1, len(pts) - 1):
            if pts[i] == e:
                target = self._mu_target(pts[i - 1], e, pts[i + 1])
                if exps[i] != target:
                    return (yield from self._split(active, pts, exps, i, target))

        # every visit of e now carries exactly its mu-index; unfold each
        # through the angular chain around e and drop e from the config
        new_pts = [pts[0]]
        new_exps = [exps[0]]
        i = 1
        while i < len(pts):
            if i < len(pts) - 1 and pts[i] == e:
                a, b = new_pts[-1], pts[i + 1]
                ch = chain(self.cfg, e, a, b, indices=active)
                # relation 2 on each chain triangle (w_{t-1}, e, w_t): its
                # twists at e add up to exps[i], the others are taken off
                tri = [(z, e, zp) for z, zp in zip(ch, ch[1:])]
                tw = [_rel2_twists(self.cfg, *t) for t in tri]
                if sum(mu1 for _, mu1, _ in tw) != exps[i]:
                    raise AssertionError("mu additivity failed along chain")
                if not all(is_local_triangle(self.cfg, *t, indices=active) for t in tri):
                    raise AssertionError("chain triple is not a local triangle")
                for wj, (mu0, _, mu2) in zip(ch[1:], tw):
                    new_exps[-1] -= mu0
                    new_pts.append(wj)
                    new_exps.append(-mu2)
                new_exps[-1] += exps[i + 1]
                i += 2
            else:
                new_pts.append(pts[i])
                new_exps.append(exps[i])
                i += 1
        return (yield sub, tuple(new_pts), tuple(new_exps))


def chi_evaluate(
    data: StraightLineData,
    w: GroupoidWord,
    rng: random.Random | None = None,
    max_steps: int = 10**6,
) -> int:
    """Evaluate chi^Q on a groupoid word.

    rng, when given, randomizes the internal extremal-point choices (the
    result must not depend on them).  max_steps bounds the cost: every word
    the evaluator meets is charged its number of points after normalising,
    which bounds both time and the memo's size; past it GroupoidError says
    the step budget is exhausted.  A twist of any size costs the same.
    """
    cfg = data.cfg
    for z in w.points:
        if not 1 <= z <= cfg.m:
            raise GroupoidError(f"point index {_excerpt(z)} out of range 1..{cfg.m}")
    active = tuple(range(1, cfg.m + 1))
    return _Evaluator(data, rng, max_steps).run(active, w.points, w.exps)
