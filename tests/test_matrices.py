import pytest

from braidmono import (
    FreeWord,
    GroupRingElt,
    MatrixError,
    MonomialGammaMatrix,
    RingMatrix,
    parse_word,
)
from conftest import rand_braid, rand_free


def rand_monomial(rng, m):
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    entries = tuple(rand_free(rng, m, 4) for _ in range(m))
    return MonomialGammaMatrix(m, tuple(perm), entries)


def test_monomial_validation():
    with pytest.raises(MatrixError):
        MonomialGammaMatrix(2, (1, 1), (FreeWord.identity(2),) * 2)
    with pytest.raises(MatrixError):
        MonomialGammaMatrix(2, (1, 2), (FreeWord.identity(2),))


def test_compose_matches_dense_product(rng):
    for _ in range(30):
        m = rng.randint(2, 4)
        a, b = rand_monomial(rng, m), rand_monomial(rng, m)
        assert a.compose(b).to_dense() == a.to_dense() * b.to_dense()


def test_invert(rng):
    ident = MonomialGammaMatrix.identity(4)
    for _ in range(30):
        a = rand_monomial(rng, 4)
        assert a.compose(a.invert()) == ident
        assert a.invert().compose(a) == ident


def test_act_commutes_with_compose(rng):
    for _ in range(20):
        b = rand_braid(rng, 3, 4)
        x, y = rand_monomial(rng, 3), rand_monomial(rng, 3)
        assert x.compose(y).act(b) == x.act(b).compose(y.act(b))


def test_entry_placement():
    # entry s_j sits at row perm[j], column j
    s = parse_word("g1 g2", 2)
    mono = MonomialGammaMatrix(2, (2, 1), (s, FreeWord.identity(2)))
    dense = mono.to_dense()
    assert dense[1, 0] == GroupRingElt.from_word(s)
    assert dense[0, 1] == GroupRingElt.one(2)
    assert dense[0, 0].is_zero() and dense[1, 1].is_zero()


def test_ring_matrix_shape_and_ops():
    with pytest.raises(MatrixError):
        RingMatrix([[1, 2], [3]])
    a = RingMatrix([[1, 2], [3, 4]])
    b = RingMatrix([[0, 1], [1, 0]])
    assert (a * b).rows == ((2, 1), (4, 3))
    assert (a + b).rows == ((1, 3), (4, 4))
    assert a.transpose().rows == ((1, 3), (2, 4))


def conj_transpose(a: RingMatrix) -> RingMatrix:
    """Entrywise involution, then transpose (group-ring entries only)."""
    return RingMatrix.from_fn(a.m, lambda i, j: a.rows[j][i].involute())


def test_conj_transpose():
    one = GroupRingElt.from_word(parse_word("g1", 2))
    zero = GroupRingElt.zero(2)
    a = RingMatrix([[one, zero], [zero, one]])
    ct = conj_transpose(a)
    assert ct[0, 0] == GroupRingElt.from_word(parse_word("g1'", 2))
