"""Integer group ring of the free group, and Laurent rings (univariate t,
multivariate t_1..t_m) reached by abelianization g_i -> t^{-1} / t_i^{-1}.
Both are one sparse ring, _SparseRing, over different monomials.
"""

from __future__ import annotations

import operator

from .words import BraidWord, FreeWord, WordError, braid_act_word, format_word


class _SparseRing:
    """Finite integer combination of monomials, immutable by convention.

    terms maps monomial -> nonzero int; operands must have the same type
    and the same _ring (a rank or an arity).  Subclasses supply the
    monomial product _mono_mul, the monomial string _mono_str ("" for the
    unit) and the term order _sort_key of __str__.
    """

    __slots__ = ("_ring", "terms")
    _sort_key = None

    def __init__(self, ring: int, terms: dict):
        self._ring = ring
        self.terms = {u: c for u, c in terms.items() if c != 0}

    @classmethod
    def zero(cls, ring: int):
        return cls(ring, {})

    def _new(self, terms: dict):
        return type(self)(self._ring, terms)

    def _check(self, other):
        name = type(self).__name__
        if type(other) is not type(self):
            raise WordError(f"mixed rings {name} and {type(other).__name__}")
        if other._ring != self._ring:
            raise WordError(f"mixed {name} rings {self._ring} and {other._ring}")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for u, c in other.terms.items():
            terms[u] = terms.get(u, 0) + c
        return self._new(terms)

    def __neg__(self):
        return self._new({u: -c for u, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Convolution product: (ab)(h) = sum_{uv = h} a(u) b(v)."""
        self._check(other)
        mono_mul = self._mono_mul
        terms: dict = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                w = mono_mul(u, v)
                terms[w] = terms.get(w, 0) + cu * cv
        return self._new(terms)

    def scale(self, c: int):
        return self._new({u: c * x for u, x in self.terms.items()})

    def _map(self, fn):
        """Sum c_u * fn(u), for fn a map on monomials."""
        terms: dict = {}
        for u, c in self.terms.items():
            v = fn(u)
            terms[v] = terms.get(v, 0) + c
        return self._new(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._ring == other._ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self._ring, frozenset(self.terms.items())))

    def __str__(self) -> str:
        """Signed terms in a deterministic order, e.g. "2*g1 g2' - 1"."""
        if not self.terms:
            return "0"
        parts = []
        for u in sorted(self.terms, key=self._sort_key):
            c = self.terms[u]
            mono = self._mono_str(u)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            parts.append(f" {'-' if c < 0 else '+'} {body}")
        out = "".join(parts)
        return out[3:] if out[1] == "+" else "-" + out[3:]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._ring}, {str(self)!r})"


class GroupRingElt(_SparseRing):
    """Finite integer combination of free-group words of rank m.

    terms maps FreeWord -> nonzero int.
    """

    __slots__ = ()
    m = _SparseRing._ring  # the rank, read and written through the base's slot

    @staticmethod
    def one(m: int) -> "GroupRingElt":
        return GroupRingElt.from_int(m, 1)

    @staticmethod
    def from_word(w: FreeWord, coeff: int = 1) -> "GroupRingElt":
        return GroupRingElt(w.m, {w: coeff})

    @staticmethod
    def from_int(m: int, c: int) -> "GroupRingElt":
        return GroupRingElt(m, {FreeWord.identity(m): c})

    # a binding of its own, so that GroupRingElt.__add__ can be patched
    # (the benchmark's tracer counts it) without touching LaurentElt
    def __add__(self, other: "GroupRingElt") -> "GroupRingElt":
        return _SparseRing.__add__(self, other)

    _mono_mul = staticmethod(operator.mul)

    @staticmethod
    def _sort_key(w: FreeWord):
        return (w.length(), w.letters)

    def _mono_str(self, w: FreeWord) -> str:
        return "" if w.is_identity() else format_word(w)

    def involute(self) -> "GroupRingElt":
        """Sum c_g * g  ->  sum c_g * g^{-1}."""
        return self._map(FreeWord.inverse)

    def act(self, b: BraidWord) -> "GroupRingElt":
        return self._map(lambda w: braid_act_word(b, w))


class LaurentElt(_SparseRing):
    """Laurent polynomial with integer coefficients.

    nvars = 0 marks the univariate ring Z[t, t^{-1}] (exponent keys are
    1-tuples); nvars = m > 0 is Z[t_1^{±1}, ..., t_m^{±1}] with m-tuple keys.
    """

    __slots__ = ()
    nvars = _SparseRing._ring  # the arity, read and written through the base's slot

    def __init__(self, nvars: int, terms: dict):
        width = 1 if nvars == 0 else nvars
        for v in terms:
            if len(v) != width:
                raise ValueError(f"exponent vector {v} has wrong arity")
        super().__init__(nvars, terms)

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "LaurentElt":
        """Trusted constructor: keys of the ring's arity, no coefficient 0."""
        x = cls.__new__(cls)
        x._ring, x.terms = nvars, terms
        return x

    @staticmethod
    def one(nvars: int) -> "LaurentElt":
        return LaurentElt.var(nvars, e=0)

    @staticmethod
    def var(nvars: int, i: int = 1, e: int = 1) -> "LaurentElt":
        """t^e (univariate) or t_i^e (multivariate)."""
        if nvars == 0:
            return LaurentElt(0, {(e,): 1})
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        v = [0] * nvars
        v[i - 1] = e
        return LaurentElt(nvars, {tuple(v): 1})

    @staticmethod
    def _mono_mul(u: tuple, v: tuple) -> tuple:
        return tuple(map(operator.add, u, v))

    def _mono_str(self, v: tuple) -> str:
        if self._ring == 0:
            (e,) = v
            return "" if e == 0 else "t" if e == 1 else f"t^{e}"
        return "*".join(
            f"t{i}" if e == 1 else f"t{i}^{e}"
            for i, e in enumerate(v, start=1)
            if e != 0
        )


def abelian_reduce(x, mode: str):
    """Ring homomorphism g_i -> t^{-1} (univariate) or t_i^{-1} (multivariate).

    Accepts a FreeWord or a GroupRingElt.
    """
    if mode not in ("univariate", "multivariate"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(x, FreeWord):
        if mode == "univariate":
            total = -sum(e for _, e in x.letters)
            return LaurentElt(0, {(total,): 1})
        v = [0] * x.m
        for i, e in x.letters:
            v[i - 1] -= e
        return LaurentElt(x.m, {tuple(v): 1})
    if isinstance(x, GroupRingElt):
        nvars = 0 if mode == "univariate" else x.m
        out = LaurentElt.zero(nvars)
        for w, c in x.terms.items():
            out = out + abelian_reduce(w, mode).scale(c)
        return out
    raise TypeError(f"cannot reduce {type(x).__name__}")
