"""The path-change (Picard-Lefschetz) cocycle, the Magnus cocycle via Fox
calculus, their Laurent reductions (Burau, Tong-Yang-Ma, Gassner, linking),
coboundary transport, and braid-word equality.

reduce_reps never builds the free-group cocycle: it folds the reduced
cocycle law R(u l) = R(u) * u_#(R(l)) over the letters, with closed-form
single-letter values.  The path-change reductions (tym, tym_framed,
linking) take one pass over a braid of L letters, O(L + m^2): a row
permutation and one exponent list per column, letters read from a table
pl_letter fills, epsilon letters refused and purity read off the
permutation in the pass, the result assembled without re-checks.  The
Magnus reductions (burau, gassner) cost O(L * m) Laurent products.  The
word path (abelian_reduce on magnus_cocycle or pl_cocycle) is the oracle.
"""

from __future__ import annotations

from operator import add

from .words import BraidWord, FreeWord, WordError, pl_letter
from .words import _act_letter, _images, _inv, _reduce
from .groupring import GroupRingElt, LaurentElt
from .matrices import MonomialGammaMatrix, RingMatrix
from .braids import braid_permutation


def pl_cocycle(b: BraidWord) -> MonomialGammaMatrix:
    """Monomial cocycle value, folded from the left by S(u l) = S(u) · u_*(S(l)).
    u_*(S(l)) is pl_letter's matrix with g_i^x replaced by u_*(g_i)^x, so
    column c takes column r times u_*(g_i)^x, column r takes column c, and
    perm swaps them."""
    m = b.m
    perm, cols, img = list(range(1, m + 1)), [()] * m, _images(BraidWord.identity(m))
    for kind, k, e in b.letters:
        c, r, i, x = pl_letter(kind, k, e)
        g = img[i - 1] if x > 0 else _inv(img[i - 1])
        perm[c], perm[r] = perm[r], perm[c]
        cols[r], cols[c] = cols[c], _reduce(cols[r] + g)  # c == r for e letters
        _act_letter(img, kind, k, e)
    return MonomialGammaMatrix(m, tuple(perm), tuple(FreeWord(m, s) for s in cols))


def coboundary_transport(sigma: BraidWord, tau: BraidWord) -> MonomialGammaMatrix:
    """S_c(tau)^{-1} · S_c(sigma) · sigma_* S_c(tau) = S_c(tau)^{-1} · S_c(sigma tau)."""
    if sigma.m != tau.m:
        raise WordError(f"mixed strand counts {sigma.m} and {tau.m}")
    return pl_cocycle(tau).invert().compose(pl_cocycle(sigma * tau))


def fox_derivative(a: FreeWord, i: int) -> GroupRingElt:
    """Free derivative d(a)/d(g_i), with d(gh) = d(g) + g d(h).  A syllable
    g_i^e after the prefix p adds p (1 + g_i + ... + g_i^(e-1)) for e > 0 and
    -p (g_i^-1 + ... + g_i^e) for e < 0; p g_i^r is reduced as written."""
    if not 1 <= i <= a.m:
        raise WordError(f"generator index {i} out of range 1..{a.m}")
    m, s = a.m, a.letters
    terms: dict = {}
    for p, (j, e) in enumerate(s):
        if j == i:
            sign = 1 if e > 0 else -1
            for r in range(e) if e > 0 else range(e, 0):
                w = FreeWord(m, s[:p] + ((i, r),) if r else s[:p])
                terms[w] = terms.get(w, 0) + sign
    return GroupRingElt(m, terms)


def magnus_cocycle(b: BraidWord) -> RingMatrix:
    """Group-ring matrix with (i,j) entry conj(d(sigma_* g_j)/d(g_i))."""
    if b.is_framed():
        raise WordError("the Magnus cocycle is defined on unframed braid words")
    images = [FreeWord(b.m, s) for s in _images(b)]
    return RingMatrix.from_fn(b.m, lambda i, j: fox_derivative(images[j], i + 1).involute())


# rep -> (source cocycle, Laurent ring, epsilon letters allowed, pure only)
_REPS = {
    "burau": ("magnus", "univariate", False, False),
    "tym": ("pl", "univariate", False, False),
    "tym_framed": ("pl", "univariate", True, False),
    "gassner": ("magnus", "multivariate", False, True),
    "linking": ("pl", "multivariate", False, True),
}

# Reduced Magnus value of sigma_k^e on strands a = k-1, b = k: the identity
# outside the 2x2 block (X_aa, X_ab, X_ba, X_bb); an entry is a sum of terms
# (c, p, q) = c * t_a^p * t_b^q.
#   s: [[1 - t_b, 1], [t_a, 0]]    s': [[0, t_b^-1], [1, (t_a - 1) t_b^-1]]
_ONE = ((1, 0, 0),)
_SIGMA_BLOCKS = {
    1: (((1, 0, 0), (-1, 0, 1)), _ONE, ((1, 1, 0),), ()),
    -1: ((), ((1, 0, -1),), _ONE, ((1, 1, -1), (-1, 0, -1))),
}


def _combine(width, x, y, parts):
    """Column sum of col * c * t_x^p * t_y^q over (col, terms) in parts.

    A column maps (row, exponent vector) -> nonzero coefficient.
    """
    parts = [(col, terms) for col, terms in parts if terms]
    if len(parts) == 1 and parts[0][1] == _ONE:
        return parts[0][0]  # columns are never mutated, so they can be shared
    out: dict = {}
    for col, terms in parts:
        for c, p, q in terms:
            shift = [0] * width
            shift[x] += p
            shift[y] += q
            for (r, v), coef in col.items():
                key = (r, tuple(map(add, v, shift)))
                out[key] = out.get(key, 0) + c * coef
    return {key: coef for key, coef in out.items() if coef}


# letter -> pl_letter(*letter), filled on first sight; table False holds no epsilon letter
_PL_LETTERS: dict = {True: {}, False: {}}


def _pl_fold(b: BraidWord, multivariate: bool, rep=None) -> tuple:
    """(rows, exps): column j of b's path-change reduction is t^exps[j] at
    row rows[j].  pl_letter's g_i^x reduces to t_i^-x and u_# renames the
    variables by the row permutation (one variable: none), so a letter
    (c, r, i, x) takes x off column r's exponent and swaps columns r and c.
    rep, if given, names the rep that refuses epsilon letters."""
    m, table = b.m, _PL_LETTERS[rep is None]
    rows = list(range(m))
    var = rows if multivariate else [0] * m
    exps = [[0] * (m if multivariate else 1) for _ in range(m)]
    for letter in b.letters:
        try:
            c, r, i, x = table[letter]
        except KeyError:
            if rep and letter[0] == "e":
                raise WordError(f"{rep} requires a braid word without epsilon letters") from None
            c, r, i, x = table[letter] = pl_letter(*letter)
        col = exps[r]
        col[var[i - 1]] -= x
        exps[r], exps[c] = exps[c], col
        rows[r], rows[c] = rows[c], rows[r]  # the var swap, when var is rows
    return rows, exps


def _magnus_fold(b: BraidWord, multivariate: bool) -> list:
    """Columns of the reduced Magnus cocycle, by R(u l) = R(u) * u_#(R(l))
    over the letters l of b.  After abelianization u_* only renames
    variables, t_i -> t_{pi_u(i)} with pi_u = braid_permutation(u); with one
    variable it does nothing.  A letter rewrites two columns, Laurent sums."""
    m = b.m
    width = m if multivariate else 1
    var = list(range(m)) if multivariate else [0] * m
    cols = [{(j, (0,) * width): 1} for j in range(m)]
    for kind, k, e in b.letters:
        a, bb = k - 2, k - 1
        x_aa, x_ab, x_ba, x_bb = _SIGMA_BLOCKS[e]
        ca, cb = cols[a], cols[bb]
        x, y = var[a], var[bb]
        cols[a] = _combine(width, x, y, [(ca, x_aa), (cb, x_ba)])
        cols[bb] = _combine(width, x, y, [(ca, x_ab), (cb, x_bb)])
        var[a], var[bb] = y, x
    return cols


def reduce_reps(b: BraidWord, rep: str) -> RingMatrix:
    """Laurent reduction of the Magnus or path-change cocycle, folded letter
    by letter; equal to abelian_reduce entrywise on magnus_cocycle(b) or
    pl_cocycle(b).to_dense().  The path-change reps (tym, tym_framed,
    linking) take one pass, _pl_fold, which refuses epsilon letters; purity
    is read off its row permutation.  They come back as monomial matrices
    built without re-checks: one zero for every empty entry and one
    monomial per column, m + 1 ring elements."""
    if rep not in _REPS:
        raise WordError(f"unknown representation {rep!r}")
    source, mode, framed_ok, needs_pure = _REPS[rep]
    multivariate = mode == "multivariate"
    nvars = b.m if multivariate else 0
    if source == "pl":
        rows, exps = _pl_fold(b, multivariate, None if framed_ok else rep)
        if needs_pure and rows != list(range(b.m)):
            raise WordError(f"{rep} requires a pure braid word")
        zero = LaurentElt._of(nvars, {})
        out = [[zero] * b.m for _ in rows]
        for j, r in enumerate(rows):
            out[r][j] = LaurentElt._of(nvars, {tuple(exps[j]): 1})
        return RingMatrix._of(tuple(map(tuple, out)))
    if not framed_ok and b.is_framed():
        raise WordError(f"{rep} requires a braid word without epsilon letters")
    if needs_pure and not braid_permutation(b)[1]:
        raise WordError(f"{rep} requires a pure braid word")
    cols = _magnus_fold(b, multivariate)
    rows = [[{} for _ in range(b.m)] for _ in range(b.m)]
    monos: dict = {}  # one key object per exponent vector, shared by all entries
    for j, col in enumerate(cols):
        for (r, v), coef in col.items():
            rows[r][j][monos.setdefault(v, v)] = coef
    entries: dict = {}  # equal entries share one object, which keeps outputs small

    def entry(terms):
        key = frozenset(terms.items())
        if key not in entries:
            entries[key] = LaurentElt(nvars, terms)
        return entries[key]

    return RingMatrix([[entry(terms) for terms in row] for row in rows])


def braid_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Equality in the framed braid group, decided by cocycle injectivity."""
    if w1.m != w2.m:
        raise WordError(f"mixed strand counts {w1.m} and {w2.m}")
    return pl_cocycle(w1) == pl_cocycle(w2)
