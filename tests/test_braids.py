import pytest

from braidmono import (
    Permutation,
    WordError,
    braid_permutation,
    linking_numbers,
    parse_braid,
)
from conftest import rand_braid


def test_generator_permutation():
    b = parse_braid("s2", 3)
    perm, pure = braid_permutation(b)
    assert perm.images == (2, 1, 3)
    assert not pure


def test_permutation_composition_order(rng):
    # pi(uv) = pi(u) o pi(v): leftmost letter outermost
    for _ in range(40):
        u = rand_braid(rng, 4, 5)
        v = rand_braid(rng, 4, 5)
        pu, _ = braid_permutation(u)
        pv, _ = braid_permutation(v)
        puv, _ = braid_permutation(u * v)
        assert all(puv(i) == pu(pv(i)) for i in range(1, 5))


def test_epsilon_letters_do_not_permute():
    perm, pure = braid_permutation(parse_braid("e1 e2^5", 3))
    assert pure


def test_linking_generator_square():
    lk = linking_numbers(parse_braid("s2^2", 2))
    assert lk.lk == ((0, -1), (-1, 0))


def test_linking_requires_pure():
    with pytest.raises(WordError):
        linking_numbers(parse_braid("s2", 3))


def test_linking_symmetric_zero_diagonal(rng):
    for _ in range(40):
        u = rand_braid(rng, 4, 4, framed=False)
        b = u
        while not braid_permutation(b)[1]:
            b = b * u
        lk = linking_numbers(b)
        for i in range(4):
            assert lk.lk[i][i] == 0
            for j in range(4):
                assert lk.lk[i][j] == lk.lk[j][i]


def test_linking_additive_under_concatenation(rng):
    def pure(u):
        b = u
        while not braid_permutation(b)[1]:
            b = b * u
        return b

    for _ in range(25):
        b1 = pure(rand_braid(rng, 4, 3, framed=False))
        b2 = pure(rand_braid(rng, 4, 3, framed=False))
        l1, l2, l12 = linking_numbers(b1), linking_numbers(b2), linking_numbers(b1 * b2)
        for i in range(4):
            for j in range(4):
                assert l12.lk[i][j] == l1.lk[i][j] + l2.lk[i][j]


def test_linking_inverse_negates(rng):
    for _ in range(25):
        u = rand_braid(rng, 4, 4, framed=False)
        b = u
        while not braid_permutation(b)[1]:
            b = b * u
        lk = linking_numbers(b)
        lki = linking_numbers(b.inverse())
        for i in range(4):
            for j in range(4):
                assert lki.lk[i][j] == -lk.lk[i][j]


@pytest.mark.parametrize("i", [0, -2, 4])
def test_permutation_point_out_of_range(i):
    # a negative list index would wrap to the last images
    perm = Permutation((1, 2, 3))
    with pytest.raises(ValueError, match=f"point {i} out of range 1..3"):
        perm(i)
    assert [perm(j) for j in (1, 2, 3)] == [1, 2, 3]
