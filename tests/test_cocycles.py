import random

import pytest

from braidmono import (
    FreeWord,
    GroupRingElt,
    LaurentElt,
    MonomialGammaMatrix,
    WordError,
    abelian_reduce,
    braid_equal,
    coboundary_transport,
    fox_derivative,
    linking_numbers,
    magnus_cocycle,
    parse_braid,
    parse_word,
    pl_cocycle,
    reduce_reps,
)
from conftest import rand_braid, rand_free


# --- generator fixtures -----------------------------------------------------

def test_pl_sigma_generator():
    m = 4
    for k in range(2, m + 1):
        mono = pl_cocycle(parse_braid(f"s{k}", m))
        perm = list(range(1, m + 1))
        perm[k - 2], perm[k - 1] = perm[k - 1], perm[k - 2]
        assert mono.perm == tuple(perm)
        for j in range(m):
            want = FreeWord.gen(m, k - 1, -1) if j == k - 2 else FreeWord.identity(m)
            assert mono.entries[j] == want


def test_pl_epsilon_generator():
    m = 3
    for i in range(1, m + 1):
        for e in (1, -1):
            mono = pl_cocycle(parse_braid(f"e{i}" + ("" if e == 1 else "'"), m))
            assert mono.perm == (1, 2, 3)
            for j in range(m):
                want = FreeWord.gen(m, i, e) if j == i - 1 else FreeWord.identity(m)
                assert mono.entries[j] == want


def test_pl_empty_word():
    assert pl_cocycle(parse_braid("", 3)) == MonomialGammaMatrix.identity(3)


def test_pl_letter_inverses():
    # the closed form for inverse letters: a letter next to its inverse,
    # in either order, has the identity as cocycle value
    for m in range(2, 6):
        ident = MonomialGammaMatrix.identity(m)
        tokens = [f"s{k}" for k in range(2, m + 1)] + [f"e{i}" for i in range(1, m + 1)]
        for tok in tokens:
            assert pl_cocycle(parse_braid(f"{tok} {tok}'", m)) == ident, tok
            assert pl_cocycle(parse_braid(f"{tok}' {tok}", m)) == ident, tok


def test_magnus_sigma_generator():
    # block at (i-1, i): [[1 - g_{i-1} g_i^{-1} g_{i-1}^{-1}, 1], [g_{i-1}^{-1}, 0]]
    m = 4
    for i in range(2, m + 1):
        M = magnus_cocycle(parse_braid(f"s{i}", m))
        g = lambda t: parse_word(t, m)
        one, zero = GroupRingElt.one(m), GroupRingElt.zero(m)
        for r in range(m):
            for c in range(m):
                if (r, c) == (i - 2, i - 2):
                    want = one - GroupRingElt.from_word(
                        g(f"g{i - 1} g{i}' g{i - 1}'")
                    )
                elif (r, c) == (i - 2, i - 1):
                    want = one
                elif (r, c) == (i - 1, i - 2):
                    want = GroupRingElt.from_word(g(f"g{i - 1}'"))
                elif (r, c) == (i - 1, i - 1):
                    want = zero
                elif r == c:
                    want = one
                else:
                    want = zero
                assert M[r, c] == want, (i, r, c)


def test_magnus_rejects_framed():
    with pytest.raises(WordError):
        magnus_cocycle(parse_braid("e1", 3))


def test_burau_generator_block():
    t = LaurentElt.var(0)
    one, zero = LaurentElt.one(0), LaurentElt.zero(0)
    B = reduce_reps(parse_braid("s2", 2), "burau")
    assert B.rows == ((one - t, one), (t, zero))
    # embedded block for m = 3
    B3 = reduce_reps(parse_braid("s2", 3), "burau")
    assert B3[0, 0] == one - t and B3[2, 2] == one and B3[2, 0] == zero


def test_tym_generator_block():
    t = LaurentElt.var(0)
    one, zero = LaurentElt.one(0), LaurentElt.zero(0)
    T = reduce_reps(parse_braid("s2", 2), "tym")
    assert T.rows == ((zero, one), (t, zero))


def test_tym_framed_epsilon():
    ti = LaurentElt.var(0, e=-1)
    one, zero = LaurentElt.one(0), LaurentElt.zero(0)
    T = reduce_reps(parse_braid("e2", 3), "tym_framed")
    assert T.rows == ((one, zero, zero), (zero, ti, zero), (zero, zero, one))


# --- laws -------------------------------------------------------------------

def test_pl_cocycle_law(rng):
    for _ in range(100):
        m = rng.randint(2, 5)
        u = rand_braid(rng, m, rng.randint(0, 8))
        v = rand_braid(rng, m, rng.randint(0, 8))
        assert pl_cocycle(u * v) == pl_cocycle(u).compose(pl_cocycle(v).act(u))


def test_magnus_cocycle_law(rng):
    for _ in range(40):
        m = rng.randint(2, 4)
        u = rand_braid(rng, m, rng.randint(0, 6), framed=False)
        v = rand_braid(rng, m, rng.randint(0, 6), framed=False)
        assert magnus_cocycle(u * v) == magnus_cocycle(u) * magnus_cocycle(v).act(u)


def test_pl_inverse_value(rng):
    ident = MonomialGammaMatrix.identity(4)
    for _ in range(30):
        b = rand_braid(rng, 4, 6)
        assert pl_cocycle(b).compose(pl_cocycle(b.inverse()).act(b)) == ident


def test_coboundary_transport_is_cocycle_in_sigma(rng):
    # For fixed tau, sigma -> S_{tau_* c}(sigma) must again satisfy the
    # cocycle law.
    for _ in range(20):
        m = rng.randint(2, 4)
        tau = rand_braid(rng, m, 4)
        u = rand_braid(rng, m, 4)
        v = rand_braid(rng, m, 4)
        lhs = coboundary_transport(u * v, tau)
        rhs = coboundary_transport(u, tau).compose(coboundary_transport(v, tau).act(u))
        assert lhs == rhs


def test_coboundary_transport_equals_three_factor_form():
    # the definition S(tau)^-1 · S(sigma) · sigma_* S(tau), through act
    rng = random.Random(7100)
    for _ in range(300):
        m = rng.randint(1, 5)
        sigma = rand_braid(rng, m, rng.randint(0, 8))
        tau = rand_braid(rng, m, rng.randint(0, 8))
        st = pl_cocycle(tau)
        ref = st.invert().compose(pl_cocycle(sigma)).compose(st.act(sigma))
        assert coboundary_transport(sigma, tau) == ref, (str(sigma), str(tau))


def test_coboundary_transport_mixed_strands():
    with pytest.raises(WordError, match="mixed strand counts 2 and 3"):
        coboundary_transport(parse_braid("s2", 2), parse_braid("s3", 3))


FRAMED_RELATIONS_M4 = [
    ("s2 s3 s2", "s3 s2 s3"),
    ("s3 s4 s3", "s4 s3 s4"),
    ("s2 s4", "s4 s2"),
    ("e2 s2", "s2 e1"),
    ("e1 s2", "s2 e2"),
    ("e3 s2", "s2 e3"),
    ("e4 s3", "s3 e4"),
    ("e1 e3", "e3 e1"),
]


@pytest.mark.parametrize("lhs,rhs", FRAMED_RELATIONS_M4)
def test_framed_relations_cocycle_invariance(lhs, rhs):
    u, v = parse_braid(lhs, 4), parse_braid(rhs, 4)
    assert pl_cocycle(u) == pl_cocycle(v)
    assert braid_equal(u, v)


def test_braid_equal_distinguishes():
    assert not braid_equal(parse_braid("s2", 3), parse_braid("s3", 3))
    assert not braid_equal(parse_braid("e1", 3), parse_braid("e2", 3))
    assert not braid_equal(parse_braid("s2", 3), parse_braid("s2'", 3))
    with pytest.raises(WordError):
        braid_equal(parse_braid("s2", 3), parse_braid("s2", 4))


# --- Fox calculus -----------------------------------------------------------

def test_fox_generator_values():
    m = 3
    g1 = FreeWord.gen(m, 1)
    assert fox_derivative(g1, 1) == GroupRingElt.one(m)
    assert fox_derivative(g1, 2) == GroupRingElt.zero(m)
    assert fox_derivative(g1.inverse(), 1) == GroupRingElt.from_word(
        g1.inverse(), -1
    )


def test_fox_product_rule(rng):
    for _ in range(50):
        u = rand_free(rng, 3, 5)
        v = rand_free(rng, 3, 5)
        for i in range(1, 4):
            lhs = fox_derivative(u * v, i)
            rhs = fox_derivative(u, i) + GroupRingElt.from_word(u) * fox_derivative(v, i)
            assert lhs == rhs


def test_fox_fundamental_formula(rng):
    m = 5
    for _ in range(100):
        a = rand_free(rng, m, rng.randint(0, 30))
        total = GroupRingElt.zero(m)
        for i in range(1, m + 1):
            gi = GroupRingElt.from_word(FreeWord.gen(m, i))
            total = total + fox_derivative(a, i) * (gi - GroupRingElt.one(m))
        assert total == GroupRingElt.from_word(a) - GroupRingElt.one(m)


# --- reductions -------------------------------------------------------------

def test_reduction_preconditions():
    with pytest.raises(WordError):
        reduce_reps(parse_braid("e1", 3), "burau")
    with pytest.raises(WordError):
        reduce_reps(parse_braid("s2", 3), "gassner")  # not pure
    with pytest.raises(WordError):
        reduce_reps(parse_braid("s2", 3), "nonsense")


def test_reductions_multiplicative(rng):
    t_cases = [("burau", True), ("tym", True), ("tym_framed", False)]
    for rep, unframed in t_cases:
        for _ in range(20):
            u = rand_braid(rng, 3, 4, framed=not unframed)
            v = rand_braid(rng, 3, 4, framed=not unframed)
            assert (
                reduce_reps(u * v, rep).rows
                == (reduce_reps(u, rep) * reduce_reps(v, rep)).rows
            )


def test_gassner_reduces_to_burau(rng):
    # substituting t_i -> t in Gassner of a pure braid gives Burau
    from conftest import rand_braid as rb

    for _ in range(15):
        u = rb(rng, 3, 3, framed=False)
        b = u
        from braidmono import braid_permutation

        while not braid_permutation(b)[1]:
            b = b * u
        G = reduce_reps(b, "gassner")
        B = reduce_reps(b, "burau")
        for i in range(3):
            for j in range(3):
                collapsed: dict = {}
                for vec, c in G[i, j].terms.items():
                    k = (sum(vec),)
                    collapsed[k] = collapsed.get(k, 0) + c
                assert LaurentElt(0, collapsed) == B[i, j]


def test_linking_reduction_is_linking_diagonal(rng):
    for _ in range(40):
        m = rng.randint(2, 5)
        u = rand_braid(rng, m, rng.randint(1, 4), framed=False)
        b = u
        from braidmono import braid_permutation

        while not braid_permutation(b)[1]:
            b = b * u
        lk = linking_numbers(b)
        red = reduce_reps(b, "linking")
        for i in range(m):
            for j in range(m):
                if i != j:
                    assert red[i, j].is_zero()
                else:
                    vec = [0] * m
                    for k in range(m):
                        if k != i:
                            vec[k] = -lk.lk[i][k]
                    assert red[i, j] == LaurentElt(m, {tuple(vec): 1})


def test_trace_identities():
    # trace tym(sigma_i) = m - 2; trace burau(sigma_i) = m - 1 - t
    t = LaurentElt.var(0)
    for m in range(2, 9):
        for i in range(2, m + 1):
            b = parse_braid(f"s{i}", m)
            tr_tym = LaurentElt.zero(0)
            for k in range(m):
                tr_tym = tr_tym + reduce_reps(b, "tym")[k, k]
            assert tr_tym == LaurentElt(0, {(0,): m - 2})
            tr_bur = LaurentElt.zero(0)
            for k in range(m):
                tr_bur = tr_bur + reduce_reps(b, "burau")[k, k]
            assert tr_bur == LaurentElt(0, {(0,): m - 1}) - t


# --- injectivity cross-check ------------------------------------------------

def test_pl_magnus_equality_agree(rng):
    agree = 0
    for _ in range(100):
        m = rng.randint(2, 4)
        u = rand_braid(rng, m, rng.randint(0, 5), framed=False)
        v = rand_braid(rng, m, rng.randint(0, 5), framed=False)
        pl_eq = pl_cocycle(u) == pl_cocycle(v)
        mg_eq = magnus_cocycle(u) == magnus_cocycle(v)
        assert pl_eq == mg_eq
        agree += pl_eq
    # sanity: some pairs must actually have been equal (identity cases)
    assert agree > 0
