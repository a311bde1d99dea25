"""Alexander polynomials of braid closures against the Burau fold.

Burau (1936): the principal (m-1)-minor of I - Burau(beta) is the
Alexander polynomial of the closure of beta up to a unit +-t^k.  The
polynomials below are the knot table's (Rolfsen, *Knots and Links*,
App. C), so the check on reduce_reps(beta, "burau") is against topology,
not against another copy of the code.  Entries are evaluated at a few
integers t0 as Fractions, and the minor is taken by exact elimination.
"""

import random
from fractions import Fraction

import pytest

from braidmono import BraidWord, braid_permutation, parse_braid, reduce_reps
from conftest import rand_braid

T0 = (2, 3, 5, 7)

# knot: (braid, strands, Alexander polynomial from t^0 up, |Delta(-1)|)
KNOTS = {
    "3_1": ("s2^3", 2, (1, -1, 1), 3),
    "5_1": ("s2^5", 2, (1, -1, 1, -1, 1), 5),
    "4_1": ("s2 s3' s2 s3'", 3, (1, -3, 1), 5),
    "T(3,4)": (" ".join(["s2 s3"] * 4), 3, (1, -1, 0, 1, 0, -1, 1), 3),
    "T(3,5)": (" ".join(["s2 s3"] * 5), 3, (1, -1, 0, 1, -1, 1, 0, -1, 1), 1),
    "5_2": ("s2^3 s3 s2' s3", 3, (2, -3, 2), 7),
    "6_1": ("s2^2 s3 s2' s4' s3 s4'", 4, (2, -5, 2), 9),
}


def burau_minor(b: BraidWord, t0: int) -> Fraction:
    """det of I - Burau(b) at t = t0, last row and column deleted."""
    t = Fraction(t0)
    burau = reduce_reps(b, "burau").rows
    a = [
        [Fraction(i == j) - sum(c * t**e for (e,), c in burau[i][j].terms.items())
         for j in range(b.m - 1)]
        for i in range(b.m - 1)
    ]
    det = Fraction(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def assert_unit_multiple(got: dict, want: dict):
    """got[t0] == sign * t0**k * want[t0] for every t0, one sign and one k."""
    t0 = next(t for t in T0 if want[t])
    ratio = got[t0] / want[t0]
    assert ratio, (got, want)
    sign, r = (1 if ratio > 0 else -1), abs(ratio)
    # r must be t0**k: its numerator or its denominator is 1
    k = 0
    while r.numerator % t0 == 0:
        r, k = r / t0, k + 1
    while r.denominator % t0 == 0:
        r, k = r * t0, k - 1
    assert r == 1, (got, want)
    for t in T0:
        assert got[t] == sign * Fraction(t) ** k * want[t], (t, got, want)


@pytest.mark.parametrize("knot", KNOTS)
def test_knot_table(knot):
    word, m, coeffs, determinant = KNOTS[knot]
    b = parse_braid(word, m)
    delta = {t: sum(c * Fraction(t) ** e for e, c in enumerate(coeffs)) for t in T0}
    assert_unit_multiple({t: burau_minor(b, t) for t in T0}, delta)
    assert abs(burau_minor(b, -1)) == determinant


def knot_braid(rng, m):
    """A random braid on m strands whose closure is a knot: its permutation
    is one m-cycle."""
    while True:
        b = rand_braid(rng, m, rng.randint(m - 1, 8), framed=False)
        images, k, steps = braid_permutation(b)[0], 1, 1
        while images[k - 1] != 1:
            k, steps = images[k - 1], steps + 1
        if steps == m:
            return b


@pytest.mark.parametrize("m", [2, 3, 4])
def test_conjugation_and_stabilisation_keep_the_polynomial(m):
    """The closure, and so its Alexander polynomial, is unchanged by
    conjugation and by Markov stabilisation beta -> beta s_{m+1}^{+-1}."""
    rng = random.Random(4100 + m)
    for _ in range(25):
        b = knot_braid(rng, m)
        delta = {t: burau_minor(b, t) for t in T0}
        g = rand_braid(rng, m, rng.randint(1, 5), framed=False)
        stab = BraidWord(m + 1, b.letters + (("s", m + 1, rng.choice((1, -1))),))
        for other in (g * b * g.inverse(), stab):
            assert_unit_multiple({t: burau_minor(other, t) for t in T0}, delta)
