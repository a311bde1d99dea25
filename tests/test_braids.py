import random

import pytest

from braidmono import (
    WordError,
    braid_permutation,
    linking_numbers,
    parse_braid,
)
from conftest import rand_braid


def oracle_permutation(b):
    """Reference for braid_permutation's images, by a letter loop.
    pi(word) = t_{l1} ∘ t_{l2} ∘ ... with the leftmost letter outermost;
    accumulating P <- P∘t left-to-right swaps P's entries at k-1, k."""
    images = list(range(1, b.m + 1))
    for kind, k, _ in b.letters:
        if kind == "s":
            images[k - 2], images[k - 1] = images[k - 1], images[k - 2]
    return tuple(images)


def oracle_linking(b):
    """Reference for linking_numbers(b).lk on a pure braid b, by a letter
    loop: each positive sigma-letter crossing distinct components i, j
    contributes -1 to the running count c(i,j); lk = c/2."""
    # comp[p] = component label currently at strand position p+1
    comp = list(range(b.m))
    c = [[0] * b.m for _ in range(b.m)]
    for kind, k, e in reversed(b.letters):
        if kind != "s":
            continue
        a, bb = comp[k - 2], comp[k - 1]
        if a != bb:
            c[a][bb] -= e
            c[bb][a] -= e
        comp[k - 2], comp[k - 1] = comp[k - 1], comp[k - 2]
    assert comp == list(range(b.m)), "not a pure braid"
    assert all(x % 2 == 0 for row in c for x in row), "odd crossing count"
    return tuple(tuple(x // 2 for x in row) for row in c)


def test_generator_permutation():
    b = parse_braid("s2", 3)
    perm, pure = braid_permutation(b)
    assert perm == (2, 1, 3)
    assert not pure


def test_permutation_composition_order(rng):
    # pi(uv) = pi(u) o pi(v): leftmost letter outermost
    for _ in range(40):
        u = rand_braid(rng, 4, 5)
        v = rand_braid(rng, 4, 5)
        pu, _ = braid_permutation(u)
        pv, _ = braid_permutation(v)
        puv, _ = braid_permutation(u * v)
        assert all(puv[i - 1] == pu[pv[i - 1] - 1] for i in range(1, 5))


def test_epsilon_letters_do_not_permute():
    perm, pure = braid_permutation(parse_braid("e1 e2^5", 3))
    assert pure


def test_linking_generator_square():
    lk = linking_numbers(parse_braid("s2^2", 2))
    assert lk.lk == ((0, -1), (-1, 0))


def test_linking_requires_pure():
    with pytest.raises(WordError, match="^linking numbers require a pure braid$"):
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


@pytest.mark.parametrize("m", range(1, 9))
def test_permutation_and_linking_match_letter_loops(m):
    """Random framed and unframed words, and their powers up to purity,
    against the letter-loop references."""
    rng = random.Random(3600 + m)
    for _ in range(60):
        u = rand_braid(rng, m, rng.randint(0, 30), framed=m == 1 or rng.random() < 0.5)
        images, pure = braid_permutation(u)
        assert images == oracle_permutation(u), str(u)
        assert pure == (images == tuple(range(1, m + 1)))
        b = u
        while not braid_permutation(b)[1]:
            b = b * u
        assert linking_numbers(b).lk == oracle_linking(b), str(b)
