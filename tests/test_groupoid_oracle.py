"""chi_evaluate against the evaluator as first written, and against the
dense character.

RefEvaluator is the recursive unit-step evaluator: it moves an interior
twist to its target one unit per reflection, one level of recursion each,
states the reflection coefficient by hand (eps, or sgn*eps), and unfolds
each visit of an extremal point e through its angular chain with inline
mu-indices.  chi_evaluate takes a whole twist in one closed-form step on an
explicit stack; the two must agree at exact equality.  On fans the dense
character of N along the anchor word is a second oracle, independent of the
recurrence, and it takes twists of any size.
"""

import random

import pytest

from braidmono import (
    GeometryError,
    GroupoidError,
    GroupoidWord,
    ParityClass,
    anchor_word,
    build_fan_config,
    character,
    chi_evaluate,
    extremal_points,
    forward_Q,
    is_local_triangle,
    mu_index,
    rel2_rewrite,
    validate_Q,
    validate_admissible,
)
from braidmono.geometry import chain
from braidmono.groupoid import _Evaluator
from conftest import rand_N, rand_fan, rand_groupoid_points


class RefEvaluator:
    def __init__(self, data, rng, max_steps):
        self.cfg = data.cfg
        self.q = data.q
        p = data.cfg.parity
        self.diag = p.diag
        self.sgn, self.eps = p.sgn, p.eps
        self.bsign = -p.sgn  # (-1)^{n+1}
        self.rng = rng
        self.steps = max_steps
        self.memo = {}

    def _tick(self):
        self.steps -= 1
        if self.steps <= 0:
            raise GroupoidError("chi evaluation step budget exhausted")

    def _normalize(self, pts, exps):
        s = 1
        pts, exps = list(pts), list(exps)
        while True:
            if exps[0] != 0:
                s *= self.bsign ** (exps[0] & 1)
                exps[0] = 0
            if exps[-1] != 0:
                s *= self.bsign ** (exps[-1] & 1)
                exps[-1] = 0
            for i in range(1, len(pts) - 1):
                if exps[i] == 0 and pts[i - 1] == pts[i + 1]:
                    exps[i - 1 : i + 2] = [exps[i - 1] + exps[i + 1]]
                    del pts[i : i + 2]
                    break
            else:
                return s, tuple(pts), tuple(exps)

    def _mu_target(self, a, e, b):
        return 0 if a == b else mu_index(self.cfg, a, e, b)

    def ev(self, active, pts, exps):
        self._tick()
        s, pts, exps = self._normalize(pts, exps)
        if len(pts) == 1:
            return s * self.diag
        if len(pts) == 2:
            return s * self.q[pts[0] - 1][pts[1] - 1]
        key = (active, pts, exps)
        if key not in self.memo:
            self.memo[key] = self._core(active, pts, exps)
        return s * self.memo[key]

    def _split(self, active, pts, exps, i, target):
        """One reflection step moving exps[i] one unit toward target."""
        m = exps[i]
        step = 1 if m > target else -1
        factor = self.eps if step == 1 else self.sgn * self.eps
        main = exps[:i] + (m - step,) + exps[i + 1:]
        a_pts, a_exps = pts[: i + 1], exps[:i] + (m - step,)
        b_pts, b_exps = pts[i:], (0,) + exps[i + 1:]
        return (
            self.ev(active, pts, main)
            - factor * self.ev(active, a_pts, a_exps) * self.ev(active, b_pts, b_exps)
        )

    def _core(self, active, pts, exps):
        if len(active) < 3:
            for i in range(1, len(pts) - 1):
                if exps[i] != 0:
                    return self._split(active, pts, exps, i, 0)
            raise AssertionError("normalized two-point word with no twists")
        cfg = self.cfg
        cand = [e for e in extremal_points(cfg, active) if e != pts[0] and e != pts[-1]]
        if not cand:
            raise AssertionError("no admissible extremal point")
        e = self.rng.choice(cand) if self.rng is not None else cand[0]
        sub = tuple(k for k in active if k != e)
        if e not in pts:
            return self.ev(sub, pts, exps)
        for i in range(1, len(pts) - 1):
            if pts[i] == e and exps[i] != self._mu_target(pts[i - 1], e, pts[i + 1]):
                return self._split(
                    active, pts, exps, i, self._mu_target(pts[i - 1], e, pts[i + 1])
                )
        new_pts, new_exps = [pts[0]], [exps[0]]
        i = 1
        while i < len(pts):
            if i < len(pts) - 1 and pts[i] == e:
                a, b = new_pts[-1], pts[i + 1]
                ch = chain(cfg, e, a, b, indices=active)
                if sum(mu_index(cfg, ch[t - 1], e, ch[t]) for t in range(1, len(ch))) != exps[i]:
                    raise AssertionError("mu additivity failed along chain")
                for t in range(1, len(ch)):
                    if not is_local_triangle(cfg, ch[t - 1], e, ch[t], indices=active):
                        raise AssertionError("chain triple is not a local triangle")
                new_exps[-1] += -mu_index(cfg, ch[1], a, e)
                for t in range(1, len(ch) - 1):
                    wj = ch[t]
                    new_pts.append(wj)
                    new_exps.append(
                        -mu_index(cfg, e, wj, ch[t - 1]) - mu_index(cfg, ch[t + 1], wj, e)
                    )
                new_pts.append(b)
                new_exps.append(-mu_index(cfg, e, b, ch[-2]) + exps[i + 1])
                i += 2
            else:
                new_pts.append(pts[i])
                new_exps.append(exps[i])
                i += 1
        return self.ev(sub, tuple(new_pts), tuple(new_exps))


def rand_tangent_config(rng, parity, m):
    while True:
        pts = [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(m)]
        tans = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(m)]
        try:
            return validate_admissible(pts, tans, parity)
        except GeometryError:
            continue


def cases(seed, count):
    """(data, word) pairs on fans and tangent configurations, m 2..6, every
    parity class; one interior twist of each word is drawn up to +-100."""
    rng = random.Random(seed)
    for t in range(count):
        parity = ParityClass(t % 4)
        m = rng.randint(2, 6)
        cfg = rand_fan(rng, parity, m, m) if t % 2 else rand_tangent_config(rng, parity, m)
        data = validate_Q(cfg, rand_N(rng, parity, m, bound=3))
        pts = rand_groupoid_points(rng, m, rng.randint(1, 5))
        exps = [rng.randint(-2, 2) for _ in pts]
        if len(pts) > 2:
            exps[rng.randrange(1, len(pts) - 1)] = rng.randint(-100, 100)
        yield data, GroupoidWord(tuple(pts), tuple(exps))


def reference(data, w, seed):
    rng = None if seed is None else random.Random(seed)
    return RefEvaluator(data, rng, 10**6).ev(tuple(range(1, data.cfg.m + 1)), w.points, w.exps)


def steps_used(data, w):
    """(value, budget units charged) of one chi_evaluate with a large budget."""
    ev = _Evaluator(data, None, 10**6)
    value = ev.run(tuple(range(1, data.cfg.m + 1)), w.points, w.exps)
    return value, 10**6 - ev.steps


@pytest.mark.parametrize("seed", [None, 0, 1])
def test_chi_matches_reference(seed):
    for data, w in cases(9100, 200):
        rng = None if seed is None else random.Random(seed)
        assert chi_evaluate(data, w, rng=rng) == reference(data, w, seed), str(w)


def test_cost_does_not_grow_with_twists():
    """A twist of t and one of t + 1000*sign(t) cost the same budget units:
    each is moved to its target in one step."""
    checked = 0
    for data, w in cases(9150, 200):
        for i in range(1, len(w.points) - 1):
            t = w.exps[i]
            if abs(t) < 2:
                continue
            far_t = t + (1000 if t > 0 else -1000)
            far = GroupoidWord(w.points, w.exps[:i] + (far_t,) + w.exps[i + 1:])
            assert steps_used(data, w)[1] == steps_used(data, far)[1], str(w)
            checked += 1
    assert checked > 100


def test_budget_error_matches_reference():
    """The budget counts budget units as steps_used does: used + 1 is enough,
    used is not."""
    for data, w in cases(9200, 80):
        value, used = steps_used(data, w)
        assert value == reference(data, w, None)
        assert chi_evaluate(data, w, max_steps=used + 1) == value
        with pytest.raises(GroupoidError, match="step budget exhausted"):
            chi_evaluate(data, w, max_steps=used)


@pytest.mark.parametrize("parity", range(4))
def test_chi_matches_dense_character_at_huge_twists(parity):
    """On random fans, m 3..6, with interior twists of 3, 10^6 and 10^400 of
    either sign, chi^Q(w) is the entry (target, source) of the character of N
    on w's anchor word, whose row kernel takes g_i^k in closed form."""
    rng = random.Random(9400 + parity)
    twists = [s * t for t in (3, 10**6, 10**400) for s in (1, -1)]
    for _ in range(12):
        fan = rand_fan(rng, ParityClass(parity), 3, 6)
        N = rand_N(rng, fan.parity, fan.m, bound=3)
        Q = forward_Q(fan, N)
        pts = rand_groupoid_points(rng, fan.m, rng.randint(2, 4))
        exps = [rng.randint(-2, 2)] + [rng.choice(twists) for _ in pts[1:-1]] + [rng.randint(-2, 2)]
        w = GroupoidWord(tuple(pts), tuple(exps))
        want = character(N, anchor_word(fan, w).word)[w.target - 1][w.source - 1]
        assert chi_evaluate(Q, w) == want, str(w)


@pytest.mark.parametrize("parity", [0, 2])
def test_zero_weight_split_evaluates_no_side_words(parity):
    """For n even (b = -1) a twist moved over a range of even length has
    S = 0, so chi(m) = chi(target) and neither A0 nor B is evaluated: the
    word costs its own points plus its target word's.  That budget is short
    by the four points A0 and B would cost, so a twist one unit further
    (S = +-1) exhausts it."""
    fan = build_fan_config([(-2, 4), (0, 5), (2, 4)], (0, -1), ParityClass(parity))
    N = rand_N(random.Random(9700 + parity), fan.parity, 3, bound=4)
    Q = forward_Q(fan, N)
    target = mu_index(fan, 1, 2, 3)
    at_target = GroupoidWord((1, 2, 3), (0, target, 0))
    want, used = steps_used(Q, at_target)
    budget = 3 + used + 1
    for k in (1, -1, 7, -500_000):
        w = GroupoidWord((1, 2, 3), (0, target + 2 * k, 0))
        assert chi_evaluate(Q, w, max_steps=budget) == want
        assert want == character(N, anchor_word(fan, w).word)[0][2]
        odd = GroupoidWord((1, 2, 3), (0, target + 2 * k + 1, 0))
        with pytest.raises(GroupoidError, match="step budget exhausted"):
            chi_evaluate(Q, odd, max_steps=budget)


def test_normalize_matches_reference():
    """The one-pass normalisation gives the reference's fixed point: the
    same word and sign, on random words rich in zero twists and on
    palindromes, which cancel from the middle out."""
    rng = random.Random(9500)
    for bsign in (1, -1):
        ref, new = RefEvaluator.__new__(RefEvaluator), _Evaluator.__new__(_Evaluator)
        ref.bsign = new.bsign = bsign
        for _ in range(3000):
            pts = rand_groupoid_points(rng, rng.randint(2, 4), rng.randint(0, 10))
            if rng.random() < 0.3:
                pts += pts[-2::-1]
            exps = tuple(rng.choice((0, 0, 0, 1, -1, 2, 10**30 + 1)) for _ in pts)
            assert new._normalize(tuple(pts), exps) == ref._normalize(tuple(pts), exps)


def test_rel2_twists_match_mu_indices():
    rng = random.Random(9300)
    for t in range(60):
        parity = ParityClass(t % 4)
        m = rng.randint(3, 6)
        cfg = rand_fan(rng, parity, m, m) if t % 2 else rand_tangent_config(rng, parity, m)
        z, zp = rng.sample(range(1, m + 1), 2)
        for mid in range(1, m + 1):
            if mid in (z, zp) or not is_local_triangle(cfg, z, mid, zp):
                continue
            e0, e1 = rng.randint(-3, 3), rng.randint(-3, 3)
            w = rel2_rewrite(cfg, GroupoidWord((z, zp), (e0, e1)), 0, mid)
            assert w.points == (z, mid, zp)
            assert w.exps == (
                e0 + mu_index(cfg, zp, z, mid),
                mu_index(cfg, z, mid, zp),
                mu_index(cfg, mid, zp, z) + e1,
            )
