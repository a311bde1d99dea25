"""chi_evaluate against the evaluator as first written.

The evaluator takes relation 2's twists from one helper and the reflection
coefficient from ParityClass.rho_coeff.  The reference below states both by
hand: it unfolds each visit of an extremal point e through its angular chain
with inline mu-indices, and splits a twist with eps or sgn*eps.  The two
must agree at exact equality, in their step counts and their errors too.
"""

import random

import pytest

from braidmono import (
    GeometryError,
    GroupoidError,
    GroupoidWord,
    ParityClass,
    chi_evaluate,
    extremal_points,
    is_local_triangle,
    mu_index,
    rel2_rewrite,
    validate_Q,
    validate_admissible,
)
from braidmono.geometry import chain
from braidmono.groupoid import _Evaluator
from conftest import rand_N, rand_fan, rand_groupoid_points


class RefEvaluator(_Evaluator):
    def __init__(self, data, rng, max_steps):
        super().__init__(data, rng, max_steps)
        self.sgn, self.eps = data.cfg.parity.sgn, data.cfg.parity.eps

    def _split(self, active, pts, exps, i, target):
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
    parity class; one interior twist of each word is drawn up to +-40."""
    rng = random.Random(seed)
    for t in range(count):
        parity = ParityClass(t % 4)
        m = rng.randint(2, 6)
        cfg = rand_fan(rng, parity, m, m).cfg if t % 2 else rand_tangent_config(rng, parity, m)
        data = validate_Q(cfg, rand_N(rng, parity, m, bound=3))
        pts = rand_groupoid_points(rng, m, rng.randint(1, 5))
        exps = [rng.randint(-2, 2) for _ in pts]
        if len(pts) > 2:
            exps[rng.randrange(1, len(pts) - 1)] = rng.randint(-40, 40)
        yield data, GroupoidWord(tuple(pts), tuple(exps))


def steps_used(cls, data, w, seed):
    """(value, steps taken) of one evaluation by cls with a large budget."""
    rng = None if seed is None else random.Random(seed)
    ev = cls(data, rng, 10**6)
    value = ev.ev(tuple(range(1, data.cfg.m + 1)), w.points, w.exps)
    return value, 10**6 - ev.steps


@pytest.mark.parametrize("seed", [None, 0, 1])
def test_chi_matches_reference(seed):
    for data, w in cases(9100, 200):
        got = steps_used(_Evaluator, data, w, seed)
        assert got == steps_used(RefEvaluator, data, w, seed), str(w)
        if seed is None:
            assert chi_evaluate(data, w) == got[0]


def test_budget_error_matches_reference():
    for data, w in cases(9200, 80):
        value, used = steps_used(_Evaluator, data, w, None)
        assert chi_evaluate(data, w, max_steps=used + 1) == value
        with pytest.raises(GroupoidError, match="step budget exhausted"):
            chi_evaluate(data, w, max_steps=used)
        ref = RefEvaluator(data, None, used)
        with pytest.raises(GroupoidError, match="step budget exhausted"):
            ref.ev(tuple(range(1, data.cfg.m + 1)), w.points, w.exps)


def test_rel2_twists_match_mu_indices():
    rng = random.Random(9300)
    for t in range(60):
        parity = ParityClass(t % 4)
        m = rng.randint(3, 6)
        cfg = rand_fan(rng, parity, m, m).cfg if t % 2 else rand_tangent_config(rng, parity, m)
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
