"""The Laurent cocycle fold in reduce_reps against the word path.

The reference below is the paper-shaped computation: the full free-group
cocycle (magnus_cocycle through Fox calculus, or the monomial pl_cocycle),
abelianized entrywise by abelian_reduce.  The fold (the reduced cocycle law
R(u l) = R(u) * u_#(R(l)) with closed-form letter values) must agree with it
at exact equality, errors included.
"""

import random

import pytest

from braidmono import (
    BraidWord,
    RingMatrix,
    WordError,
    abelian_reduce,
    braid_permutation,
    magnus_cocycle,
    pl_cocycle,
    reduce_reps,
)
from braidmono.cocycles import _fold
from conftest import rand_braid

REPS = ("burau", "tym", "tym_framed", "gassner", "linking")
PURE = ("gassner", "linking")


# --- word-path reference ---------------------------------------------------

def ref_reduce(b, rep):
    mode = "univariate" if rep in ("burau", "tym", "tym_framed") else "multivariate"
    dense = magnus_cocycle(b) if rep in ("burau", "gassner") else pl_cocycle(b).to_dense()
    return RingMatrix.from_fn(b.m, lambda i, j: abelian_reduce(dense[i, j], mode))


def check(b, rep):
    assert reduce_reps(b, rep) == ref_reduce(b, rep), (rep, str(b))


def letters(m, framed):
    out = [("s", k, e) for k in range(2, m + 1) for e in (1, -1)]
    if framed:
        out += [("e", i, e) for i in range(1, m + 1) for e in (1, -1)]
    return out


def pure_power(u):
    b = u
    while not braid_permutation(b)[1]:
        b = b * u
    return b


# --- fold against reference -------------------------------------------------

@pytest.mark.parametrize("m", range(2, 7))
def test_single_letters_and_empty_word(m):
    for rep in REPS:
        check(BraidWord.identity(m), rep)
        for letter in letters(m, framed=rep == "tym_framed"):
            b = BraidWord(m, (letter,))
            if rep in PURE:
                b = b * b if letter[0] == "s" else b  # sigma^2 is pure
            check(b, rep)


@pytest.mark.parametrize("m", range(2, 7))
def test_random_words(m):
    rng = random.Random(4000 + m)
    for _ in range(8):
        for rep in ("burau", "tym", "tym_framed"):
            b = rand_braid(rng, m, rng.randint(1, 12), framed=rep == "tym_framed")
            check(b, rep)


@pytest.mark.parametrize("m", range(2, 7))
def test_pure_braids(m):
    rng = random.Random(5000 + m)
    for _ in range(6):
        b = pure_power(rand_braid(rng, m, rng.randint(1, 4 if m < 5 else 3), framed=False))
        for rep in REPS:
            check(b, rep)


# --- the path-change fold against its closed-form letter values --------------
#
# cocycles._fold reads each path-change letter from words.pl_letter.  The
# reference below states the same values by hand, as the 2x2 blocks of
# sigma_k^{+-1} on strands a = k-1, b = k (terms (c, p, q) = c t_a^p t_b^q)
#     s: [[0, 1], [t_a, 0]]      s': [[0, t_b^-1], [1, 0]]
# and t_i^{-+1} on the diagonal at i for e_i^{+-1}.

_ONE = ((1, 0, 0),)
PL_BLOCKS = {
    1: ((), _ONE, ((1, 1, 0),), ()),
    -1: ((), ((1, 0, -1),), _ONE, ()),
}


def ref_pl_fold(b, multivariate):
    m = b.m
    width = m if multivariate else 1
    cols = [{(j, (0,) * width): 1} for j in range(m)]
    var = list(range(m)) if multivariate else [0] * m

    def combine(x, y, parts):
        out = {}
        for col, terms in parts:
            for c, p, q in terms:
                shift = [0] * width
                shift[x] += p
                shift[y] += q
                for (r, v), coef in col.items():
                    key = (r, tuple(a + d for a, d in zip(v, shift)))
                    out[key] = out.get(key, 0) + c * coef
        return {key: coef for key, coef in out.items() if coef}

    for kind, k, e in b.letters:
        if kind == "e":
            cols[k - 1] = combine(var[k - 1], var[k - 1], [(cols[k - 1], ((1, -e, 0),))])
            continue
        a, bb = k - 2, k - 1
        x_aa, x_ab, x_ba, x_bb = PL_BLOCKS[e]
        ca, cb = cols[a], cols[bb]
        x, y = var[a], var[bb]
        cols[a] = combine(x, y, [(ca, x_aa), (cb, x_ba)])
        cols[bb] = combine(x, y, [(ca, x_ab), (cb, x_bb)])
        var[a], var[bb] = y, x
    return cols


@pytest.mark.parametrize("m", range(1, 8))
def test_pl_fold_matches_letter_blocks(m):
    rng = random.Random(6000 + m)
    words = [BraidWord(m, (letter,)) for letter in letters(m, framed=True)]
    words += [rand_braid(rng, m, rng.randint(0, 16)) for _ in range(40)]
    words += [rand_braid(rng, m, rng.randint(100, 400), framed=f or m == 1)
              for f in (True, False) * 3]
    for b in words:
        for multivariate in (False, True):
            cols = _fold(b, "pl", multivariate)
            assert cols == ref_pl_fold(b, multivariate), str(b)
            # the monomial state: one term per column, coefficient 1, and
            # the rows of the columns a permutation
            assert all(len(col) == 1 and set(col.values()) == {1} for col in cols)
            assert sorted(r for col in cols for r, _ in col) == list(range(m))


def full_twist(m):
    """Delta^2 = (s2 s3 ... sm)^m, central: it acts on Gamma_m as conjugation
    by g_1 ... g_m, so images grow linearly along its powers and the word
    path stays cheap on long words."""
    return BraidWord(m, tuple(("s", k, 1) for _ in range(m) for k in range(2, m + 1)))


@pytest.mark.parametrize("m", (3, 4, 5))
def test_pl_reductions_on_200_letter_words(m):
    rng = random.Random(6100 + m)
    twists = full_twist(m)
    while len(twists.letters) < 200:
        twists = twists * full_twist(m)
    for _ in range(2):
        w = rand_braid(rng, m, 6, framed=False)
        pure = w * twists * w.inverse()  # conjugate of a full-twist power: pure
        framed = []
        for letter in pure.letters:
            framed.append(letter)
            if rng.random() < 0.2:
                framed.append(("e", rng.randint(1, m), rng.choice((1, -1))))
        framed = BraidWord(m, tuple(framed))
        for rep, b in (("tym", pure), ("tym_framed", framed), ("linking", pure)):
            check(b, rep)


# --- the path-change reps as monomial matrices --------------------------------

def pl_words(rng, m, rep):
    """The empty word and one word of 400+ letters that rep takes: a
    conjugate of a full-twist power (pure, for linking), times a short word
    for tym and tym_framed, with framing letters put in for tym_framed.  At
    m = 1 only tym_framed takes a word other than 1."""
    if m == 1:
        return [BraidWord.identity(1)] + [rand_braid(rng, 1, 400)] * (rep == "tym_framed")
    twists = full_twist(m)
    while len(twists.letters) < 400:
        twists = twists * full_twist(m)
    w = rand_braid(rng, m, 6, framed=False)
    b = w * twists * w.inverse()
    if rep != "linking":
        b = b * rand_braid(rng, m, 6, framed=False)
    if rep == "tym_framed":
        b = BraidWord(m, tuple(x for letter in b.letters for x in (
            (letter, ("e", rng.randint(1, m), rng.choice((1, -1)))) if rng.random() < 0.2
            else (letter,))))
    return [BraidWord.identity(m), b]


@pytest.mark.parametrize("m", range(1, 8))
def test_pl_reps_are_monomial_matrices(m):
    """One entry other than 0 per row and per column; every zero entry of a
    call is one object, so a call holds m + 1 ring elements (m at m = 1);
    two calls share no entry; and the output is the word oracle's."""
    rng = random.Random(6200 + m)
    for rep in ("tym", "tym_framed", "linking"):
        for b in pl_words(rng, m, rep):
            out, again = reduce_reps(b, rep), reduce_reps(b, rep)
            assert out == ref_reduce(b, rep), (rep, str(b))
            nonzero = [[not x.is_zero() for x in row] for row in out.rows]
            assert all(sum(line) == 1 for line in (*nonzero, *zip(*nonzero))), (rep, str(b))
            ids = {id(x) for row in out.rows for x in row}
            assert len({id(x) for row in out.rows for x in row if x.is_zero()}) == (m > 1)
            assert len(ids) == m + (m > 1), (rep, str(b))
            assert not ids & {id(x) for row in again.rows for x in row}, (rep, str(b))


# --- errors -----------------------------------------------------------------

def test_error_messages():
    framed = BraidWord(3, (("e", 1, 1),))
    for rep in ("burau", "tym", "gassner", "linking"):
        with pytest.raises(WordError) as exc:
            reduce_reps(framed, rep)
        assert str(exc.value) == f"{rep} requires a braid word without epsilon letters"
    for rep in PURE:
        with pytest.raises(WordError) as exc:
            reduce_reps(BraidWord(3, (("s", 2, 1),)), rep)
        assert str(exc.value) == f"{rep} requires a pure braid word"
    with pytest.raises(WordError) as exc:
        reduce_reps(framed, "nonsense")
    assert str(exc.value) == "unknown representation 'nonsense'"
    # tym_framed takes framed and unframed words alike
    check(framed, "tym_framed")
