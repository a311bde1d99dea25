"""The path-change (Picard-Lefschetz) cocycle, the Magnus cocycle via Fox
calculus, their Laurent reductions (Burau, Tong-Yang-Ma, Gassner, linking),
coboundary transport, and braid-word equality.

reduce_reps never builds the free-group cocycle: it folds the reduced
cocycle law R(u l) = R(u) * u_#(R(l)) over the letters, with closed-form
single-letter values, so a braid of L letters costs O(L * m) Laurent
products.  The word path (abelian_reduce entrywise on magnus_cocycle or
pl_cocycle) is its test oracle.
"""

from __future__ import annotations

from operator import add

from .words import BraidWord, FreeWord, WordError, braid_act_word, pl_letter
from .groupring import GroupRingElt, LaurentElt
from .matrices import MonomialGammaMatrix, RingMatrix
from .braids import braid_permutation


def _letter_word(m: int, kind: str, k: int, e: int) -> BraidWord:
    return BraidWord(m, ((kind, k, e),))


def _cocycle_letter(m: int, kind: str, k: int, e: int) -> MonomialGammaMatrix:
    """Cocycle value on a single braid letter, from words.pl_letter."""
    c, r, i, x = pl_letter(kind, k, e)
    perm = list(range(1, m + 1))
    perm[c], perm[r] = r + 1, c + 1
    entries = [FreeWord.identity(m)] * m
    entries[c] = FreeWord.gen(m, i, x)
    return MonomialGammaMatrix(m, tuple(perm), tuple(entries))


def pl_cocycle(b: BraidWord) -> MonomialGammaMatrix:
    """Monomial cocycle value; satisfies S(uv) = S(u) · u_* S(v)."""
    out = MonomialGammaMatrix.identity(b.m)
    for kind, k, e in reversed(b.letters):
        head = _cocycle_letter(b.m, kind, k, e)
        out = head.compose(out.act(_letter_word(b.m, kind, k, e)))
    return out


def coboundary_transport(sigma: BraidWord, tau: BraidWord) -> MonomialGammaMatrix:
    """S_c(tau)^{-1} · S_c(sigma) · sigma_* S_c(tau)."""
    if sigma.m != tau.m:
        raise WordError(f"mixed strand counts {sigma.m} and {tau.m}")
    st = pl_cocycle(tau)
    return st.invert().compose(pl_cocycle(sigma)).compose(st.act(sigma))


def fox_derivative(a: FreeWord, i: int) -> GroupRingElt:
    """Free derivative d(a)/d(g_i), with d(gh) = d(g) + g d(h)."""
    if not 1 <= i <= a.m:
        raise WordError(f"generator index {i} out of range 1..{a.m}")
    m = a.m
    acc = GroupRingElt.zero(m)
    prefix = FreeWord.identity(m)
    for j, e in a.letters:
        if j == i:
            # d(g^e) = sum_{r=0}^{e-1} g^r  (e>0),  -sum_{r=1}^{-e} g^{-r} (e<0)
            terms: dict = {}
            rng = range(e) if e > 0 else range(e, 0)
            sign = 1 if e > 0 else -1
            for r in rng:
                w = prefix * FreeWord.gen(m, i, r)
                terms[w] = terms.get(w, 0) + sign
            acc = acc + GroupRingElt(m, terms)
        prefix = prefix * FreeWord.gen(m, j, e)
    return acc


def magnus_cocycle(b: BraidWord) -> RingMatrix:
    """Group-ring matrix with (i,j) entry conj(d(sigma_* g_j)/d(g_i))."""
    if b.is_framed():
        raise WordError("the Magnus cocycle is defined on unframed braid words")
    m = b.m
    images = [braid_act_word(b, FreeWord.gen(m, j)) for j in range(1, m + 1)]
    return RingMatrix.from_fn(
        m, lambda i, j: fox_derivative(images[j], i + 1).involute()
    )


# rep -> (source cocycle, Laurent ring, epsilon letters allowed, pure only)
_REPS = {
    "burau": ("magnus", "univariate", False, False),
    "tym": ("pl", "univariate", False, False),
    "tym_framed": ("pl", "univariate", True, False),
    "gassner": ("magnus", "multivariate", False, True),
    "linking": ("pl", "multivariate", False, True),
}

# Reduced value of sigma_k^e on strands a = k-1, b = k: the identity outside
# the 2x2 block (X_aa, X_ab, X_ba, X_bb); an entry is a sum of terms
# (c, p, q) = c * t_a^p * t_b^q.
#   magnus  s:  [[1 - t_b, 1], [t_a, 0]]    s': [[0, t_b^-1], [1, (t_a - 1) t_b^-1]]
#   pl      s:  [[0, 1], [t_a, 0]]          s': [[0, t_b^-1], [1, 0]]
# The pl value of e_i^{+-1} is t_i^{-+1} on the diagonal at i.
_ONE = ((1, 0, 0),)
_SIGMA_BLOCKS = {
    ("magnus", 1): (((1, 0, 0), (-1, 0, 1)), _ONE, ((1, 1, 0),), ()),
    ("magnus", -1): ((), ((1, 0, -1),), _ONE, ((1, 1, -1), (-1, 0, -1))),
    ("pl", 1): ((), _ONE, ((1, 1, 0),), ()),
    ("pl", -1): ((), ((1, 0, -1),), _ONE, ()),
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


def _fold(b: BraidWord, source: str, multivariate: bool) -> list:
    """Columns of the reduced cocycle, by R(u l) = R(u) * u_#(R(l)) over the
    letters l of b.  After abelianization u_* only renames variables,
    t_i -> t_{pi_u(i)} with pi_u = braid_permutation(u); with one variable
    it does nothing.  A letter rewrites at most two columns."""
    m = b.m
    width = m if multivariate else 1
    cols = [{(j, (0,) * width): 1} for j in range(m)]
    var = list(range(m)) if multivariate else [0] * m
    for kind, k, e in b.letters:
        if kind == "e":
            i = k - 1
            cols[i] = _combine(width, var[i], var[i], [(cols[i], ((1, -e, 0),))])
            continue
        a, bb = k - 2, k - 1
        x_aa, x_ab, x_ba, x_bb = _SIGMA_BLOCKS[source, e]
        ca, cb = cols[a], cols[bb]
        x, y = var[a], var[bb]
        cols[a] = _combine(width, x, y, [(ca, x_aa), (cb, x_ba)])
        cols[bb] = _combine(width, x, y, [(ca, x_ab), (cb, x_bb)])
        var[a], var[bb] = y, x
    return cols


def reduce_reps(b: BraidWord, rep: str) -> RingMatrix:
    """Laurent reduction of the Magnus or path-change cocycle, folded letter
    by letter; equal to abelian_reduce entrywise on magnus_cocycle(b) or
    pl_cocycle(b).to_dense()."""
    if rep not in _REPS:
        raise WordError(f"unknown representation {rep!r}")
    source, mode, framed_ok, needs_pure = _REPS[rep]
    if not framed_ok and b.is_framed():
        raise WordError(f"{rep} requires a braid word without epsilon letters")
    if needs_pure and not braid_permutation(b)[1]:
        raise WordError(f"{rep} requires a pure braid word")
    multivariate = mode == "multivariate"
    rows = [[{} for _ in range(b.m)] for _ in range(b.m)]
    monos: dict = {}  # one key object per exponent vector, shared by all entries
    for j, col in enumerate(_fold(b, source, multivariate)):
        for (r, v), coef in col.items():
            rows[r][j][monos.setdefault(v, v)] = coef
    nvars = b.m if multivariate else 0
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
