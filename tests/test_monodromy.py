import re
from itertools import chain

import pytest

from braidmono import (
    BraidWord,
    FreeWord,
    ParityClass,
    ParityError,
    act_on_N,
    braid_act_word,
    character,
    character_transform,
    cocycle_and_action,
    cover_character,
    cover_example,
    kernel_basis,
    parse_braid,
    parse_word,
    pl_cocycle,
    rho,
    theoremB_S,
    validate_N,
)
from braidmono.monodromy import mat_mul, mat_transpose, mat_eye
from conftest import all_parities, rand_N, rand_braid, rand_free


def test_parity_table():
    # n mod 4: (sgn, eps, diag)
    table = {0: (1, 1, 2), 1: (-1, -1, 0), 2: (1, -1, -2), 3: (-1, 1, 0)}
    for k, (sgn, eps, diag) in table.items():
        p = ParityClass(k)
        assert (p.sgn, p.eps, p.diag) == (sgn, eps, diag)
    with pytest.raises(ParityError):
        ParityClass(4)


def test_validate_N_rejects():
    p = ParityClass(0)
    with pytest.raises(ParityError):
        validate_N(p, [[0, 1], [1, 0]])  # wrong diagonal
    with pytest.raises(ParityError):
        validate_N(p, [[2, 1], [2, 2]])  # not symmetric
    p1 = ParityClass(1)
    with pytest.raises(ParityError):
        validate_N(p1, [[0, 1], [1, 0]])  # must be skew
    validate_N(p1, [[0, 1], [-1, 0]])


def ref_parity_error(parity, rows):
    """The message of the entry-by-entry check: the first entry, in row
    order, off the forced diagonal or off sgn times its transpose."""
    for i, row in enumerate(rows):
        if row[i] != parity.diag:
            return f"diagonal entry ({i + 1},{i + 1}) = {row[i]}, must be {parity.diag}"
        for j, x in enumerate(row):
            if x != parity.sgn * rows[j][i]:
                return f"symmetry violated at ({i + 1},{j + 1}): {x} != {parity.sgn}*{rows[j][i]}"
    return None


@pytest.mark.parametrize("parity", all_parities(), ids=lambda p: f"n{p.n_mod_4}")
def test_validate_N_names_first_bad_entry(rng, parity):
    """The whole-matrix check refuses exactly what the entry loop refuses,
    naming the same first entry."""
    for _ in range(300):
        m = rng.randint(1, 5)
        rows = [list(r) for r in rand_N(rng, parity, m).n]
        for _ in range(rng.randint(0, 2)):
            rows[rng.randrange(m)][rng.randrange(m)] += rng.choice((-2, -1, 1, 2))
        want = ref_parity_error(parity, rows)
        if want is None:
            assert validate_N(parity, rows).rows() == rows
        else:
            with pytest.raises(ParityError) as exc:
                validate_N(parity, rows)
            assert str(exc.value) == want


def test_rho_generator_values(rng):
    p = ParityClass(2)  # eps = -1, sgn = +1
    N = rand_N(rng, p, 3)
    for i in range(1, 4):
        R = rho(N, FreeWord.gen(3, i))
        for r in range(3):
            for c in range(3):
                want = (1 if r == c else 0) - p.eps * (N.n[r][c] if r == i - 1 else 0)
                assert R[r][c] == want


def test_rho_is_representation(rng):
    for p in all_parities():
        for _ in range(15):
            N = rand_N(rng, p, 4)
            u = rand_free(rng, 4, 5)
            v = rand_free(rng, 4, 5)
            assert rho(N, u * v) == mat_mul(rho(N, u), rho(N, v))
            assert rho(N, u.inverse() * u) == mat_eye(4)


def test_rho_preserves_N(rng):
    for p in all_parities():
        for _ in range(15):
            N = rand_N(rng, p, 4)
            g = rand_free(rng, 4, 6)
            R = rho(N, g)
            assert mat_mul(mat_transpose(R), mat_mul(N.rows(), R)) == N.rows()


def test_character_glueing_law(rng):
    # n_{ij}(u g_k v) = n_{ij}(uv) - eps * n_{ik}(u) n_{kj}(v)
    for p in all_parities():
        for _ in range(15):
            N = rand_N(rng, p, 4)
            u = rand_free(rng, 4, 4)
            v = rand_free(rng, 4, 4)
            k = rng.randint(1, 4)
            lhs = character(N, u * FreeWord.gen(4, k) * v)
            base = character(N, u * v)
            cu, cv = character(N, u), character(N, v)
            for i in range(4):
                for j in range(4):
                    assert lhs[i][j] == base[i][j] - p.eps * cu[i][k - 1] * cv[k - 1][j]


def test_theoremB_generator_fixture():
    # S(sigma_k, N): identity outside the (k-1, k) block; block columns are
    # [column k of rho(g_{k-1})] and e_{k-1}
    import random

    rng = random.Random(3)
    for p in all_parities():
        N = rand_N(rng, p, 4)
        for k in range(2, 5):
            S = theoremB_S(parse_braid(f"s{k}", 4), N)
            R = rho(N, FreeWord.gen(4, k - 1))
            for r in range(4):
                for c in range(4):
                    if c == k - 2:
                        want = R[r][k - 1]
                    elif c == k - 1:
                        want = 1 if r == k - 2 else 0
                    else:
                        want = 1 if r == c else 0
                    assert S[r][c] == want, (p.n_mod_4, k, r, c)


def test_act_on_N_contravariant(rng):
    for p in all_parities():
        for _ in range(10):
            N = rand_N(rng, p, 4)
            u = rand_braid(rng, 4, 4)
            v = rand_braid(rng, 4, 4)
            assert act_on_N(u * v, N).n == act_on_N(v, act_on_N(u, N)).n


def test_integer_cocycle_law(rng):
    # S(sigma tau, N) = S(sigma, N) * S(tau, sigma^* N)
    for p in all_parities():
        for _ in range(10):
            N = rand_N(rng, p, 4)
            u = rand_braid(rng, 4, 4)
            v = rand_braid(rng, 4, 4)
            lhs = theoremB_S(u * v, N)
            rhs = mat_mul(theoremB_S(u, N), theoremB_S(v, act_on_N(u, N)))
            assert lhs == rhs


def first_past_budget(sigma, N, max_bits):
    """The reference for the fold's bit budget: the first prefix of sigma
    whose S or sigma^* N, computed whole and without a budget, holds an
    entry of more than max_bits bits, as (letter position, that state)."""
    for p in range(1, len(sigma.letters) + 1):
        S, moved = cocycle_and_action(BraidWord(sigma.m, sigma.letters[:p]), N)
        if max(abs(x).bit_length() for x in chain(*S, *moved.n)) > max_bits:
            return p, S, moved.n
    return None


@pytest.mark.parametrize("parity", all_parities(), ids=lambda p: f"n{p.n_mod_4}")
def test_fold_bit_budget_refuses_at_the_first_long_entry(rng, parity):
    """The fold checks only the row and column each letter writes; that
    finds the first letter whose whole state passes the budget, and names
    an entry of that state which does."""
    for _ in range(40):
        m = rng.randint(1, 5)
        N, sigma = rand_N(rng, parity, m), rand_braid(rng, m, rng.randint(0, 30))
        want = cocycle_and_action(sigma, N)
        max_bits = rng.randint(2, 40)
        past = first_past_budget(sigma, N, max_bits)
        if past is None:
            assert cocycle_and_action(sigma, N, max_bits) == want
            continue
        p, S, moved = past
        with pytest.raises(OverflowError) as exc:
            cocycle_and_action(sigma, N, max_bits)
        name, r, c = re.fullmatch(
            rf"([NS]) entry \((\d+),(\d+)\) passes the {max_bits}-bit budget at letter {p}",
            str(exc.value)).groups()
        assert abs((moved if name == "N" else S)[int(r) - 1][int(c) - 1]).bit_length() > max_bits


def test_fold_bit_budget_on_a_pseudo_anosov_word():
    """(s2 s3')^n on a class-0 N off every Dynkin orbit: entries grow about
    1.6x in bits per letter, so (s2 s3')^17 ran for seconds.  Within a
    budget the result is the unbounded one; act_on_N and theoremB_S keep no
    budget.  A word that grows and shrinks back (w w^-1) is refused too."""
    N = validate_N(ParityClass(0), [[2, 3, 1], [3, 2, 2], [1, 2, 2]])
    w = parse_braid("s2 s3' " * 9, 3)
    S, moved = cocycle_and_action(w, N)
    bits = max(abs(x).bit_length() for x in chain(*S, *moved.n))
    assert cocycle_and_action(w, N, bits) == (S, moved)
    assert (theoremB_S(w, N), act_on_N(w, N)) == (S, moved)
    with pytest.raises(OverflowError, match=rf"-bit budget at letter {len(w.letters)}$"):
        cocycle_and_action(w, N, bits - 1)
    with pytest.raises(OverflowError) as exc:
        cocycle_and_action(parse_braid("s2 s3' " * 17, 3), N, 14285)
    assert str(exc.value) == "N entry (1,3) passes the 14285-bit budget at letter 23"
    back = w * w.inverse()  # its result is N itself, but it passes through w's
    assert cocycle_and_action(back, N)[1] == N
    with pytest.raises(OverflowError, match=rf"-bit budget at letter {len(w.letters)}$"):
        cocycle_and_action(back, N, bits - 1)


def test_character_transform_matches_action(rng):
    # the transform at g = 1 recovers sigma^* N
    for p in all_parities():
        for _ in range(10):
            N = rand_N(rng, p, 4)
            tau = rand_braid(rng, 4, 4)
            got = character_transform(N, tau, FreeWord.identity(4))
            assert got == act_on_N(tau, N).rows()


def test_character_transform_conjugation(rng):
    # the transported character of N evaluated at tau_* g is the character
    # of tau^* N at g
    for p in all_parities():
        for _ in range(10):
            N = rand_N(rng, p, 3)
            tau = rand_braid(rng, 3, 4)
            g = rand_free(rng, 3, 4)
            got = character_transform(N, tau, braid_act_word(tau, g))
            assert got == character(act_on_N(tau, N), g)


def test_kernel_basis(rng):
    for p in all_parities():
        for _ in range(15):
            m = rng.randint(2, 5)
            N = rand_N(rng, p, m)
            rank, basis = kernel_basis(N)
            assert rank + len(basis) == m
            for vec in basis:
                assert all(
                    sum(N.n[i][j] * vec[j] for j in range(m)) == 0 for i in range(m)
                )


def test_kernel_of_degenerate_matrix():
    p = ParityClass(1)
    N = validate_N(p, [[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
    rank, basis = kernel_basis(N)
    assert rank == 2 and len(basis) == 1
    (v,) = basis
    assert all(sum(N.n[i][j] * v[j] for j in range(3)) == 0 for i in range(3))


# --- bundled branched-cover example ----------------------------------------

EXPECTED_COVER = {
    "1": [[2, -1, -2, -1], [-1, 2, 1, 2], [-2, 1, 2, 1], [-1, 2, 1, 2]],
    "a": [[-2, 1, 2, 1], [1, 1, -1, 1], [2, -1, -2, -1], [1, 1, -1, 1]],
    "g2": [[1, 1, -1, 1], [1, -2, -1, -2], [-1, -1, 1, -1], [1, -2, -1, -2]],
    "b": [[1, -2, -1, -2], [-2, 1, 2, 1], [-1, 2, 1, 2], [-2, 1, 2, 1]],
    "ab": [[-1, 2, 1, 2], [-1, -1, 1, -1], [1, -2, -1, -2], [-1, -1, 1, -1]],
    "ba": [[-1, -1, 1, -1], [2, -1, -2, -1], [1, 1, -1, 1], [2, -1, -2, -1]],
}


def test_cover_example_matrices():
    _, _, out = cover_example()
    for w, want in EXPECTED_COVER.items():
        assert out[w] == want, w


def test_cover_gluing_formula():
    _, _, out = cover_example()
    N1 = out["1"]
    for i, want in [(1, "a"), (3, "a"), (2, "g2"), (4, "g2")]:
        E = [[1 if r == c == i - 1 else 0 for c in range(4)] for r in range(4)]
        corr = mat_mul(N1, mat_mul(E, N1))
        glued = [[N1[r][c] - corr[r][c] for c in range(4)] for r in range(4)]
        assert glued == out[want], i


def test_cover_transpose_identity():
    _, _, out = cover_example()
    assert mat_transpose(out["ab"]) == out["ba"]


def test_cover_character_reduces_exponents():
    assignment, cycles, out = cover_example()
    big = cover_character(assignment, cycles, [("a", 10**12)])
    assert big == cover_character(assignment, cycles, [("a", 10**12 % 2)]) == out["1"]
    assert cover_character(assignment, cycles, [("a", 10**12 + 1)]) == out["a"]
    assert cover_character(assignment, cycles, [("a", -3), ("b", -1)]) == out["ab"]
    three = {"c": {1: 2, 2: 3, 3: 1, 4: 5, 5: 4}}  # order 6
    for e in range(-13, 14):
        slow = [("c", 1 if e > 0 else -1)] * abs(e)
        assert cover_character(three, cycles, [("c", e)]) == cover_character(
            three, cycles, slow
        ), e
    with pytest.raises(ValueError, match="not a bijection"):
        cover_character({"c": {1: 2}}, cycles, [("c", 1)])
