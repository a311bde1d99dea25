"""The generator-image fold against the letter-by-letter braid action.

The references below rewrite a whole word per braid letter: the action
substitutes one letter's image of each syllable into the word, right to
left; pl_cocycle composes S(l) · l_*(S(v)) letter by letter with that
action on every entry; fox_derivative keeps a running prefix product.  The
library folds the images b_*(g_j) once from the left and substitutes them;
it must agree with these at exact equality.
"""

from braidmono import (
    BraidWord,
    FreeWord,
    GroupRingElt,
    MonomialGammaMatrix,
    RingMatrix,
    braid_act_word,
    fox_derivative,
    magnus_cocycle,
    pl_cocycle,
)
from braidmono.words import pl_letter
from conftest import rand_braid, rand_free


# --- letter-by-letter reference --------------------------------------------

def ref_act_letter_on_gen(kind, k, exp, i, m):
    """Image of g_i under a single braid letter."""
    if kind == "e":
        return FreeWord.gen(m, i)
    if exp == 1:
        if i == k - 1:
            return FreeWord.make(m, [(k - 1, 1), (k, 1), (k - 1, -1)])
        if i == k:
            return FreeWord.gen(m, k - 1)
    else:
        if i == k - 1:
            return FreeWord.gen(m, k)
        if i == k:
            return FreeWord.make(m, [(k, -1), (k - 1, 1), (k, 1)])
    return FreeWord.gen(m, i)


def ref_act_letter(kind, k, exp, w):
    out = FreeWord.identity(w.m)
    for i, e in w.letters:
        out = out * (ref_act_letter_on_gen(kind, k, exp, i, w.m) ** e)
    return out


def ref_braid_act_word(b, w):
    for kind, k, exp in reversed(b.letters):
        w = ref_act_letter(kind, k, exp, w)
    return w


def ref_cocycle_letter(m, kind, k, e):
    c, r, i, x = pl_letter(kind, k, e)
    perm = list(range(1, m + 1))
    perm[c], perm[r] = r + 1, c + 1
    entries = [FreeWord.identity(m)] * m
    entries[c] = FreeWord.gen(m, i, x)
    return MonomialGammaMatrix(m, tuple(perm), tuple(entries))


def ref_pl_cocycle(b):
    out = MonomialGammaMatrix.identity(b.m)
    for kind, k, e in reversed(b.letters):
        acted = tuple(ref_act_letter(kind, k, e, s) for s in out.entries)
        out = ref_cocycle_letter(b.m, kind, k, e).compose(
            MonomialGammaMatrix(b.m, out.perm, acted)
        )
    return out


def ref_fox_derivative(a, i):
    m = a.m
    acc = GroupRingElt.zero(m)
    prefix = FreeWord.identity(m)
    for j, e in a.letters:
        if j == i:
            terms: dict = {}
            rng = range(e) if e > 0 else range(e, 0)
            sign = 1 if e > 0 else -1
            for r in rng:
                w = prefix * FreeWord.gen(m, i, r)
                terms[w] = terms.get(w, 0) + sign
            acc = acc + GroupRingElt(m, terms)
        prefix = prefix * FreeWord.gen(m, j, e)
    return acc


def ref_magnus_cocycle(b):
    m = b.m
    images = [ref_braid_act_word(b, FreeWord.gen(m, j)) for j in range(1, m + 1)]
    return RingMatrix.from_fn(
        m, lambda i, j: ref_fox_derivative(images[j], i + 1).involute()
    )


# --- random inputs ---------------------------------------------------------

def rand_powered(rng, m, length):
    """Random reduced word whose syllables carry powers from small to 10**12."""
    pairs = [
        (rng.randint(1, m), rng.choice((1, -1)) * rng.choice((1, 2, 3, 7, 10**12)))
        for _ in range(length)
    ]
    return FreeWord.make(m, pairs)


def cases(rng, count, framed=True):
    for _ in range(count):
        m = rng.randint(1 if framed else 2, 6)
        yield rand_braid(rng, m, rng.randint(0, 12), framed)


# --- fold against reference --------------------------------------------------

def test_braid_act_word_matches_reference(rng):
    for b in cases(rng, 300):
        for w in (rand_free(rng, b.m, rng.randint(0, 8)), rand_powered(rng, b.m, 4)):
            assert braid_act_word(b, w) == ref_braid_act_word(b, w), (str(b), str(w))


def test_braid_act_word_huge_powers():
    m = 4
    b = BraidWord(m, (("s", 2, 1), ("s", 3, -1), ("e", 1, 1), ("s", 4, 1), ("s", 2, 1)))
    for w in (FreeWord.gen(m, 1, 10**12), FreeWord.make(m, [(1, 10**12), (3, -(10**15)), (2, 5)])):
        out = braid_act_word(b, w)
        assert out == ref_braid_act_word(b, w)
        assert max(abs(e) for _, e in out.letters) >= 10**12


def test_pl_cocycle_matches_reference(rng):
    for b in cases(rng, 400):
        assert pl_cocycle(b) == ref_pl_cocycle(b), str(b)


def test_magnus_cocycle_matches_reference(rng):
    for b in cases(rng, 120, framed=False):
        assert magnus_cocycle(b) == ref_magnus_cocycle(b), str(b)


def test_fox_derivative_matches_reference(rng):
    for _ in range(300):
        m = rng.randint(1, 6)
        pairs = [
            (rng.randint(1, m), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randint(0, 12))
        ]
        a = FreeWord.make(m, pairs)
        for i in range(1, m + 1):
            assert fox_derivative(a, i) == ref_fox_derivative(a, i), (str(a), i)
