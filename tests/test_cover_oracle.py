"""rho_N and the braid action against a model from geometry: branched covers.

In parity class 0 a branched cover of the disc with d sheets realises an
intersection matrix.  The fiber is the d labels 1..d, the vanishing cycle
of g_i is the oriented 0-sphere L_i = +-([a_i] - [b_i]), the monodromy of
g_i is the transposition tau_i = (a_i b_i), and N_ij = <L_i, L_j>.  Then

- rho_N is the deck action: character(N, w) is cover_character's matrix
  <L_i, w.L_j>;
- the braid action is the Hurwitz move on (tau, L), letters applied left to
  right (act_on_N is contravariant):
      s_k:  (tau_{k-1}, tau_k) -> (tau_{k-1} tau_k tau_{k-1}, tau_{k-1}),
            (L_{k-1}, L_k) -> (tau_{k-1}(L_k), L_{k-1});
      s_k': (tau_{k-1}, tau_k) -> (tau_k, tau_k tau_{k-1} tau_k),
            (L_{k-1}, L_k) -> (L_k, tau_k(L_{k-1}));
      e_i^{+-1}: L_i -> -L_i;
- on a fan, chi^Q of Q = forward_Q(fan, N) is the sheet pairing carried
  along the anchor: chi^Q(w) = <L_t, a.L_s> for w from z_s to z_t with
  anchor word a, whose letters move L_s by their transpositions, the
  rightmost first.  This checks forward_Q and chi_evaluate against the
  cover with no rho_N in between.

None of this shares code with the row kernel or the cocycle fold.
"""

import random

from braidmono import (
    FreeWord,
    GroupoidWord,
    OrientedZeroSphere,
    ParityClass,
    act_on_N,
    anchor_word,
    character,
    chi_evaluate,
    cover_character,
    forward_Q,
    validate_N,
)
from braidmono.monodromy import _pairing
from conftest import rand_braid, rand_fan, rand_groupoid_points

P0 = ParityClass(0)


def transposition(d, a, b):
    table = {x: x for x in range(1, d + 1)}
    table[a], table[b] = b, a
    return table


def compose(s, t):
    """s after t, as label tables."""
    return {x: s[t[x]] for x in t}


def moved(tau, L):
    return OrientedZeroSphere(tuple((tau[a], s) for a, s in L.points))


def rand_cover(rng, d, m):
    taus, cycles = [], []
    for _ in range(m):
        a, b = rng.sample(range(1, d + 1), 2)
        s = rng.choice((1, -1))
        taus.append(transposition(d, a, b))
        cycles.append(OrientedZeroSphere(((a, s), (b, -s))))
    return taus, cycles


def matrix_of(cycles):
    return validate_N(P0, [[_pairing(L, M) for M in cycles] for L in cycles])


def hurwitz(taus, cycles, b):
    taus, cycles = list(taus), list(cycles)
    for kind, k, e in b.letters:  # left to right
        i, j = k - 2, k - 1
        if kind == "e":
            cycles[k - 1] = OrientedZeroSphere(tuple((a, -s) for a, s in cycles[k - 1].points))
        elif e > 0:  # the cycles move by the already moved taus
            taus[i], taus[j] = compose(taus[i], compose(taus[j], taus[i])), taus[i]
            cycles[i], cycles[j] = moved(taus[j], cycles[j]), cycles[i]
        else:
            taus[i], taus[j] = taus[j], compose(taus[j], compose(taus[i], taus[j]))
            cycles[i], cycles[j] = cycles[j], moved(taus[i], cycles[i])
    return taus, cycles


def covers(seed, count, m_lo=1):
    rng = random.Random(seed)
    for _ in range(count):
        d, m = rng.randint(2, 6), rng.randint(m_lo, 6)
        yield rng, m, *rand_cover(rng, d, m)


def test_rho_N_is_the_deck_action():
    for rng, m, taus, cycles in covers(8100, 1000):
        N = matrix_of(cycles)
        pairs = [(rng.randint(1, m), rng.choice((1, -1, 2, -3))) for _ in range(rng.randint(0, 8))]
        w = FreeWord.make(m, pairs)
        assignment = {f"g{i}": t for i, t in enumerate(taus, 1)}
        want = cover_character(assignment, cycles, [(f"g{i}", e) for i, e in w.letters])
        assert character(N, w) == want, str(w)


def test_braid_action_is_the_hurwitz_move():
    for rng, m, taus, cycles in covers(8200, 1000, m_lo=2):
        b = rand_braid(rng, m, rng.randint(0, 8))
        new_taus, new_cycles = hurwitz(taus, cycles, b)
        assert act_on_N(b, matrix_of(cycles)) == matrix_of(new_cycles), str(b)
        # the moved transpositions are again those of the moved cycles
        for t, L in zip(new_taus, new_cycles):
            (a, _), (c, _) = L.points
            assert t == transposition(len(t), a, c)


def test_chi_Q_is_the_sheet_pairing_along_the_anchor():
    """On random fans (m 1..6) with cover-realised N (2..6 sheets), chi^Q
    of forward_Q(fan, N) on a random groupoid word, twists up to 10^400,
    is <L_target, anchor.L_source>; a transposition's power moves L by its
    parity."""
    rng = random.Random(8300)
    twists = (0, 1, -1, 2, -3, 10**6, 10**400 + 1, -(10**400))
    for _ in range(300):
        fan = rand_fan(rng, P0, 1, 6)
        m = fan.cfg.m
        taus, cycles = rand_cover(rng, rng.randint(2, 6), m)
        Q = forward_Q(fan, matrix_of(cycles))
        pts = rand_groupoid_points(rng, m, rng.randint(0, 4) if m > 1 else 0)
        w = GroupoidWord(tuple(pts), tuple(rng.choice(twists) for _ in pts))
        L = cycles[w.source - 1]
        for i, e in reversed(anchor_word(fan, w).word.letters):
            if e % 2:
                L = moved(taus[i - 1], L)
        assert chi_evaluate(Q, w) == _pairing(cycles[w.target - 1], L), str(w)
