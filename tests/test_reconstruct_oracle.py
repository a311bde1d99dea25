"""forward_Q and reconstruct_N (one interval push per upper entry) against
the paper's definitions at exact equality: Q_ij read off the full character
matrix N rho_N(anchor s(z_i, z_j)) for every i != j, and the reconstruction
n_ij = chi^Q(c_i c_j^{-1}) evaluated on telescoped hop words, on arbitrary
valid Q, not only forward images."""

import random

from braidmono import (
    ParityClass,
    character,
    chi_evaluate,
    forward_Q,
    hop_words,
    reconstruct_N,
    validate_N,
    validate_Q,
)
from braidmono.reconstruct import _anchor_segment
from conftest import all_parities, rand_N, rand_fan


def oracle_forward_Q(fan, N):
    """Every off-diagonal entry from its own full-width character matrix;
    validate_Q then checks the lower triangle against the upper one."""
    m = fan.cfg.m
    rows = [[fan.cfg.parity.diag] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i != j:
                rows[i][j] = character(N, _anchor_segment(fan, i + 1, j + 1))[i][j]
    return validate_Q(fan.cfg, rows)


def oracle_reconstruct_N(fan, Q):
    """The hop-word / chi^Q reconstruction, entry by entry."""
    m = fan.cfg.m
    parity = fan.cfg.parity
    hops = hop_words(fan)
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = parity.diag
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            word = hops[i - 1]
            for t in range(i, j - 1):
                word = word.compose(hops[t])
            val = chi_evaluate(Q, word)
            rows[i - 1][j - 1] = val
            rows[j - 1][i - 1] = parity.sgn * val
    return validate_N(parity, rows)


def test_forward_Q_matches_oracle():
    rng = random.Random(5)
    for m in range(2, 9):
        for parity in all_parities():
            for _ in range(2 if m > 6 else 4):
                fan = rand_fan(rng, parity, m, m)
                N = rand_N(rng, parity, m, 50)
                assert forward_Q(fan, N).q == oracle_forward_Q(fan, N).q, (m, parity)


def rand_Q(rng, fan, bound=50):
    """A valid Q over fan with entries in [-bound, bound]."""
    return validate_Q(fan.cfg, rand_N(rng, fan.cfg.parity, fan.cfg.m, bound).n)


def test_matches_oracle_on_arbitrary_Q():
    rng = random.Random(7)
    for m in range(2, 9):
        for parity in all_parities():
            for _ in range(2 if m > 6 else 4):
                fan = rand_fan(rng, parity, m, m)
                Q = rand_Q(rng, fan)
                N = reconstruct_N(fan, Q)
                assert N.n == oracle_reconstruct_N(fan, Q).n, (m, parity)
                # forward_Q is a bijection onto valid Q
                assert forward_Q(fan, N).q == Q.q


def test_triangular_structure():
    # bumping N_ab moves Q_ij only for [a, b] inside [i, j], and Q_ab by -sgn
    rng = random.Random(11)
    for parity in all_parities():
        for _ in range(3):
            fan = rand_fan(rng, parity, 3, 6)
            m = fan.cfg.m
            N = rand_N(rng, parity, m)
            Q = forward_Q(fan, N).q
            for a in range(m):
                for b in range(a + 1, m):
                    rows = N.rows()
                    rows[a][b] += 1
                    rows[b][a] += parity.sgn
                    Q2 = forward_Q(fan, validate_N(parity, rows)).q
                    for i in range(m):
                        for j in range(i + 1, m):
                            if not i <= a < b <= j:
                                assert Q2[i][j] == Q[i][j], (a, b, i, j)
                    assert Q2[a][b] - Q[a][b] == -parity.sgn


def test_roundtrip_m24():
    rng = random.Random(24)
    for k in (0, 1):
        parity = ParityClass(k)
        fan = rand_fan(rng, parity, 24, 24)
        N = rand_N(rng, parity, 24)
        assert reconstruct_N(fan, forward_Q(fan, N)).n == N.n
