"""The path-change (Picard-Lefschetz) cocycle, the Magnus cocycle via Fox
calculus, their Laurent reductions (Burau, Tong-Yang-Ma, Gassner, linking),
coboundary transport, and braid-word equality.
"""

from __future__ import annotations

from .words import BraidWord, FreeWord, WordError, braid_act_word
from .groupring import GroupRingElt, abelian_reduce
from .matrices import MonomialGammaMatrix, RingMatrix
from .braids import braid_permutation


def _letter_word(m: int, kind: str, k: int, e: int) -> BraidWord:
    return BraidWord(m, ((kind, k, e),))


def _cocycle_letter(m: int, kind: str, k: int, e: int) -> MonomialGammaMatrix:
    """Cocycle value on a single braid letter."""
    if kind == "e":
        entries = [FreeWord.identity(m)] * m
        entries[k - 1] = FreeWord.gen(m, k, e)
        return MonomialGammaMatrix(m, tuple(range(1, m + 1)), tuple(entries))
    # sigma_k: swap columns k-1 and k; s_{k-1} = g_{k-1}^{-1} lands at row k
    perm = list(range(1, m + 1))
    perm[k - 2], perm[k - 1] = perm[k - 1], perm[k - 2]
    entries = [FreeWord.identity(m)] * m
    entries[k - 2] = FreeWord.gen(m, k - 1, -1)
    pos = MonomialGammaMatrix(m, tuple(perm), tuple(entries))
    if e == 1:
        return pos
    # derived closed form for inverse letters
    return pos.invert().act(_letter_word(m, kind, k, -1))


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


_REPS = ("burau", "tym", "tym_framed", "gassner", "linking")


def reduce_reps(b: BraidWord, rep: str) -> RingMatrix:
    """Laurent reduction of the Magnus or path-change cocycle."""
    if rep not in _REPS:
        raise WordError(f"unknown representation {rep!r}")
    if rep in ("burau", "gassner") and b.is_framed():
        raise WordError(f"{rep} requires a braid word without epsilon letters")
    if rep == "tym" and b.is_framed():
        raise WordError("tym requires a braid word without epsilon letters")
    if rep in ("gassner", "linking"):
        if b.is_framed():
            raise WordError(f"{rep} requires a braid word without epsilon letters")
        _, pure = braid_permutation(b)
        if not pure:
            raise WordError(f"{rep} requires a pure braid word")
    mode = "univariate" if rep in ("burau", "tym", "tym_framed") else "multivariate"
    if rep in ("burau", "gassner"):
        dense = magnus_cocycle(b)
    else:
        dense = pl_cocycle(b).to_dense()
    return RingMatrix.from_fn(
        b.m, lambda i, j: abelian_reduce(dense[i, j], mode)
    )


def braid_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Equality in the framed braid group, decided by cocycle injectivity."""
    if w1.m != w2.m:
        raise WordError(f"mixed strand counts {w1.m} and {w2.m}")
    return pl_cocycle(w1) == pl_cocycle(w2)
