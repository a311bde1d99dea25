"""The path-change (Picard-Lefschetz) cocycle, the Magnus cocycle via Fox
calculus, their Laurent reductions (Burau, Tong-Yang-Ma, Gassner, linking),
coboundary transport, and braid-word equality.

reduce_reps never builds the free-group cocycle: it folds the reduced
cocycle law R(u l) = R(u) * u_#(R(l)) over the letters, with closed-form
single-letter values.  The reps that take no epsilon letter refuse a
framed word before any pass, reading the flag BraidWord keeps.  Both
families take one pass over the word, which keeps the row permutation.
Purity is checked once, on the path-change pass's permutation, which
gassner takes in O(L) before its Magnus pass; braids reads the permutation,
purity and linking numbers off that pass too.  The path-change reductions
(tym, tym_framed, linking) cost O(L + m^2) on a braid of L letters: one
exponent list per column, letters read from a table pl_letter fills, the
result assembled without re-checks.  The Magnus reductions (burau,
gassner) rewrite two Laurent columns per letter by closed sigma^{+-1}
updates, O(L * m) Laurent products.  The word path (abelian_reduce on
magnus_cocycle or pl_cocycle) is the oracle.
"""

from __future__ import annotations

from operator import add

from .words import BraidWord, FreeWord, WordError, pl_letter
from .words import _act_letter, _images, _inv, _reduce
from .groupring import GroupRingElt, LaurentElt
from .matrices import MonomialGammaMatrix, RingMatrix


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

_PL_LETTERS: dict = {}  # letter -> pl_letter(*letter), filled on first sight


def _pl_fold(b: BraidWord, multivariate: bool) -> tuple:
    """(rows, exps): column j of b's path-change reduction is t^exps[j] at
    row rows[j].  pl_letter's g_i^x reduces to t_i^-x and u_# renames the
    variables by the row permutation (one variable: none), so a letter
    (c, r, i, x) takes x off column r's exponent and swaps columns r and c."""
    m = b.m
    rows = list(range(m))
    var = rows if multivariate else [0] * m
    exps = [[0] * (m if multivariate else 1) for _ in range(m)]
    for letter in b.letters:
        try:
            c, r, i, x = _PL_LETTERS[letter]
        except KeyError:
            c, r, i, x = _PL_LETTERS[letter] = pl_letter(*letter)
        col = exps[r]
        col[var[i - 1]] -= x
        exps[r], exps[c] = exps[c], col
        rows[r], rows[c] = rows[c], rows[r]  # the var swap, when var is rows
    return rows, exps


def _shift(out: dict, col: dict, c: int, by) -> None:
    """out += c * t^by * col, for columns that map (row, exponent vector)
    to a coefficient."""
    for (r, v), coef in col.items():
        key = (r, tuple(map(add, v, by)))
        out[key] = out.get(key, 0) + c * coef


def _magnus_fold(b: BraidWord, multivariate: bool) -> tuple:
    """(perm, cols): the row permutation of b and the columns of its reduced
    Magnus cocycle, by R(u l) = R(u) * u_#(R(l)) over the letters l of b.
    After abelianization u_* only renames variables, t_i -> t_{perm(i)};
    with one variable it does nothing.  On strands a = k-1, b = k, with
    t_x, t_y the variables of a and b, a letter rewrites two columns:
        sigma_k:    col_a = ca (1 - t_y) + cb t_x,   col_b = ca
        sigma_k^-1: col_a = cb,   col_b = ca t_y^-1 + cb (t_x - 1) t_y^-1
    The Magnus cocycle is defined on unframed words: b has no epsilon
    letter."""
    m = b.m
    width = m if multivariate else 1
    perm = list(range(m))
    var = perm if multivariate else [0] * m
    zero = (0,) * width
    cols = [{(j, zero): 1} for j in range(m)]
    for _, k, e in b.letters:
        a, bb = k - 2, k - 1
        ca, cb = cols[a], cols[bb]
        tx, ty = [0] * width, [0] * width
        tx[var[a]], ty[var[bb]] = 1, e  # t_x and t_y^e
        new: dict = {}
        if e > 0:
            _shift(new, ca, 1, zero)
            _shift(new, ca, -1, ty)
            _shift(new, cb, 1, tx)
        else:
            _shift(new, ca, 1, ty)
            _shift(new, cb, 1, list(map(add, tx, ty)))
            _shift(new, cb, -1, ty)
        new = {key: coef for key, coef in new.items() if coef}
        cols[a], cols[bb] = (new, ca) if e > 0 else (cb, new)
        perm[a], perm[bb] = perm[bb], perm[a]  # the var swap, when var is perm
    return perm, cols


def reduce_reps(b: BraidWord, rep: str) -> RingMatrix:
    """Laurent reduction of the Magnus or path-change cocycle, folded letter
    by letter; equal to abelian_reduce entrywise on magnus_cocycle(b) or
    pl_cocycle(b).to_dense().  The reps that take no epsilon letter refuse
    a framed word first, in O(1).  Both families take one pass over the
    word, _pl_fold or _magnus_fold, which returns the row permutation.
    Purity is checked once, on _pl_fold's permutation: gassner takes that
    O(L) pass first, so an impure word is refused before the Magnus pass.
    The path-change reps come back as monomial matrices built without
    re-checks: one zero for every empty entry and one monomial per column,
    m + 1 ring elements."""
    if rep not in _REPS:
        raise WordError(f"unknown representation {rep!r}")
    source, mode, framed_ok, needs_pure = _REPS[rep]
    if not framed_ok and b.is_framed():
        raise WordError(f"{rep} requires a braid word without epsilon letters")
    multivariate = mode == "multivariate"
    nvars = b.m if multivariate else 0
    if source == "pl" or needs_pure:  # gassner too: its Magnus pass can grow exponentially
        perm, cols = _pl_fold(b, multivariate)
        if needs_pure and perm != list(range(b.m)):
            raise WordError(f"{rep} requires a pure braid word")
    if source == "pl":
        zero = LaurentElt._of(nvars, {})
        out = [[zero] * b.m for _ in perm]
        for j, r in enumerate(perm):
            out[r][j] = LaurentElt._of(nvars, {tuple(cols[j]): 1})
        return RingMatrix._of(tuple(map(tuple, out)))
    cols = _magnus_fold(b, multivariate)[1]
    rows = [[{} for _ in range(b.m)] for _ in range(b.m)]
    monos: dict = {}  # one key object per exponent vector, shared by all entries
    for j, col in enumerate(cols):
        for (r, v), coef in col.items():
            rows[r][j][monos.setdefault(v, v)] = coef
    entries: dict = {}  # equal entries share one object, which keeps outputs small

    def entry(terms):
        key = frozenset(terms.items())
        if key not in entries:
            entries[key] = LaurentElt._of(nvars, terms)
        return entries[key]

    return RingMatrix([[entry(terms) for terms in row] for row in rows])


def braid_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Equality in the framed braid group, decided by cocycle injectivity."""
    if w1.m != w2.m:
        raise WordError(f"mixed strand counts {w1.m} and {w2.m}")
    return pl_cocycle(w1) == pl_cocycle(w2)
