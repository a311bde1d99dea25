"""The integer monodromy kernels against the word path.

The reference below is the paper-shaped computation: rho_N as a product of
dense generator matrices, one matrix product per letter, and the integer
cocycle S(sigma, N) read off the monomial cocycle pl_cocycle(sigma), whose
entries are free-group words.  The kernels (rank-1 row updates and the
letter-by-letter cocycle fold) must agree with it at exact equality, errors
included.
"""

import random

import pytest

from braidmono import (
    BraidWord,
    FreeWord,
    WordError,
    act_on_N,
    character,
    character_transform,
    cocycle_and_action,
    forward_Q,
    pl_cocycle,
    rho,
    theoremB_S,
)
from braidmono.monodromy import mat_eye, mat_mul, mat_transpose
from braidmono.reconstruct import _anchor_segment
from conftest import all_parities, rand_braid, rand_fan, rand_free, rand_N


# --- word-path reference ---------------------------------------------------

def ref_rho_gen(N, i, inverse):
    """rho_N(g_i) = I - eps E_i N;  rho_N(g_i^{-1}) = I - sgn*eps E_i N."""
    s = N.parity.eps if not inverse else N.parity.sgn * N.parity.eps
    out = mat_eye(N.m)
    for j in range(N.m):
        out[i - 1][j] -= s * N.n[i - 1][j]
    return out


def ref_rho(N, g):
    out = mat_eye(N.m)
    for i, e in g.letters:
        base = ref_rho_gen(N, i, inverse=e < 0)
        for _ in range(abs(e)):
            out = mat_mul(out, base)
    return out


def ref_character(N, g):
    return mat_mul(N.rows(), ref_rho(N, g))


def ref_theoremB_S(sigma, N):
    mono = pl_cocycle(sigma)
    m = N.m
    S = [[0] * m for _ in range(m)]
    for j in range(m):
        r = ref_rho(N, mono.entries[j].inverse())
        for a in range(m):
            S[a][j] = r[a][mono.perm[j] - 1]
    return S


def ref_act_on_N(sigma, N):
    S = ref_theoremB_S(sigma, N)
    return mat_mul(mat_transpose(S), mat_mul(N.rows(), S))


def ref_character_transform(N, tau, g):
    mono = pl_cocycle(tau)
    m = N.m
    return [
        [
            ref_character(N, mono.entries[j] * g * mono.entries[l].inverse())[
                mono.perm[j] - 1
            ][mono.perm[l] - 1]
            for l in range(m)
        ]
        for j in range(m)
    ]


# --- inputs ----------------------------------------------------------------

def letters(m):
    """Every single braid letter on m strands, both signs."""
    out = [("s", k, e) for k in range(2, m + 1) for e in (1, -1)]
    return out + [("e", k, e) for k in range(1, m + 1) for e in (1, -1)]


def cases(seed, count):
    rng = random.Random(seed)
    for t in range(count):
        p = all_parities()[t % 4]
        m = rng.randint(2, 6)
        yield rng, p, m, rand_N(rng, p, m)


def check_action(sigma, N):
    S = ref_theoremB_S(sigma, N)
    moved = ref_act_on_N(sigma, N)
    assert theoremB_S(sigma, N) == S
    assert act_on_N(sigma, N).rows() == moved
    S2, moved2 = cocycle_and_action(sigma, N)
    assert (S2, moved2.rows()) == (S, moved)


# --- tests -----------------------------------------------------------------

def test_single_letters_and_empty_word_match_reference():
    rng = random.Random(7)
    for m in range(2, 7):
        for p in all_parities():
            N = rand_N(rng, p, m)
            check_action(BraidWord.identity(m), N)
            for letter in letters(m):
                check_action(BraidWord(m, (letter,)), N)


def test_braid_words_match_reference():
    for rng, p, m, N in cases(11, 160):
        L = rng.randint(0, 12)
        check_action(rand_braid(rng, m, L), N)


def test_rho_and_character_match_reference():
    for rng, p, m, N in cases(13, 160):
        # syllable exponents in -9..9 (zeros drop out of the reduced word)
        g = FreeWord.make(m, [
            (rng.randint(1, m), rng.randint(-9, 9)) for _ in range(rng.randint(0, 12))
        ])
        assert rho(N, g) == ref_rho(N, g)
        want = ref_character(N, g)
        assert character(N, g) == want
        r, c = rng.randrange(m), rng.randrange(m)
        assert character(N, g)[r][c] == want[r][c]


@pytest.mark.parametrize("parity", all_parities(), ids=lambda p: f"n{p.n_mod_4}")
def test_rho_of_huge_letter_power_is_closed_form(parity):
    """rho_N(g_i^e) = I - eps c E_i N with c = e for n odd, e mod 2 for n
    even: far past any exponent the reference could expand."""
    rng = random.Random(29 + parity.n_mod_4)
    m = 4
    N = rand_N(rng, parity, m)
    for e in (10**12, 10**12 + 1, -(10**12) - 1):
        c = e if parity.sgn < 0 else e % 2
        for i in range(1, m + 1):
            want = mat_eye(m)
            for col in range(m):
                want[i - 1][col] -= parity.eps * c * N.n[i - 1][col]
            assert rho(N, FreeWord.gen(m, i, e)) == want


def test_character_transform_matches_reference():
    for rng, p, m, N in cases(17, 48):
        tau = rand_braid(rng, m, rng.randint(0, 8))
        g = rand_free(rng, m, rng.randint(0, 8))
        assert character_transform(N, tau, g) == ref_character_transform(N, tau, g)


@pytest.mark.parametrize("parity", all_parities(), ids=lambda p: f"n{p.n_mod_4}")
def test_forward_Q_matches_reference(parity):
    rng = random.Random(19 + parity.n_mod_4)
    for _ in range(6):
        fan = rand_fan(rng, parity, 2, 6)
        N = rand_N(rng, parity, fan.m)
        Q = forward_Q(fan, N)
        for i in range(1, fan.m + 1):
            for j in range(1, fan.m + 1):
                want = (
                    parity.diag if i == j
                    else ref_character(N, _anchor_segment(fan, i, j))[i - 1][j - 1]
                )
                assert Q.q[i - 1][j - 1] == want


def test_size_mismatch_messages():
    rng = random.Random(23)
    N = rand_N(rng, all_parities()[1], 3)
    g, sigma = FreeWord.gen(4, 1), BraidWord(4, (("s", 2, 1),))
    for fn in (rho, character):
        with pytest.raises(WordError, match=r"^word rank 4 vs matrix size 3$"):
            fn(N, g)
    with pytest.raises(WordError, match=r"^word rank 4 vs matrix size 3$"):
        character(N, g)[0][0]
    for fn in (theoremB_S, act_on_N, cocycle_and_action):
        with pytest.raises(WordError, match=r"^strand count 4 vs matrix size 3$"):
            fn(sigma, N)
    with pytest.raises(WordError, match=r"^size mismatch$"):
        character_transform(N, sigma, FreeWord.gen(3, 1))
    with pytest.raises(WordError, match=r"^size mismatch$"):
        character_transform(N, BraidWord.identity(3), g)
