"""Square matrices over the group ring / Laurent rings, and the monomial
matrices (permutation + one group element per column) carried by the
path-change cocycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import BraidWord, FreeWord, WordError, braid_act_word
from .groupring import GroupRingElt


class MatrixError(ValueError):
    pass


class RingMatrix:
    """Dense m x m matrix; entries all live in one coefficient ring
    (python int, GroupRingElt, or LaurentElt)."""

    __slots__ = ("m", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        m = len(rows)
        if any(len(r) != m for r in rows):
            raise MatrixError("matrix must be square")
        self.m = m
        self.rows = rows

    @classmethod
    def _of(cls, rows: tuple) -> "RingMatrix":
        """Trusted constructor: rows are taken as a square tuple of tuples."""
        x = cls.__new__(cls)
        x.m, x.rows = len(rows), rows
        return x

    @staticmethod
    def from_fn(m: int, fn) -> "RingMatrix":
        return RingMatrix([[fn(i, j) for j in range(m)] for i in range(m)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __mul__(self, other: "RingMatrix") -> "RingMatrix":
        if self.m != other.m:
            raise MatrixError(f"size mismatch {self.m} vs {other.m}")
        m = self.m

        def entry(i, j):
            acc = self.rows[i][0] * other.rows[0][j]
            for k in range(1, m):
                acc = acc + self.rows[i][k] * other.rows[k][j]
            return acc

        return RingMatrix.from_fn(m, entry)

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        if self.m != other.m:
            raise MatrixError(f"size mismatch {self.m} vs {other.m}")
        return RingMatrix.from_fn(
            self.m, lambda i, j: self.rows[i][j] + other.rows[i][j]
        )

    def transpose(self) -> "RingMatrix":
        return RingMatrix.from_fn(self.m, lambda i, j: self.rows[j][i])

    def act(self, b: BraidWord) -> "RingMatrix":
        return RingMatrix.from_fn(self.m, lambda i, j: self.rows[i][j].act(b))

    def __eq__(self, other) -> bool:
        return isinstance(other, RingMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"RingMatrix({[[str(e) for e in r] for r in self.rows]})"


@dataclass(frozen=True)
class MonomialGammaMatrix:
    """Matrix with entry s_j (a FreeWord) at (perm[j], j), zeros elsewhere.

    perm and entries are indexed by column, 1-based values in perm.
    """

    m: int
    perm: tuple[int, ...]
    entries: tuple[FreeWord, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(1, self.m + 1)):
            raise MatrixError(f"not a permutation of 1..{self.m}: {self.perm}")
        if len(self.entries) != self.m:
            raise MatrixError("need one entry per column")
        for s in self.entries:
            if s.m != self.m:
                raise WordError("entry rank mismatch")

    @staticmethod
    def identity(m: int) -> "MonomialGammaMatrix":
        one = FreeWord.identity(m)
        return MonomialGammaMatrix(m, tuple(range(1, m + 1)), (one,) * m)

    def compose(self, other: "MonomialGammaMatrix") -> "MonomialGammaMatrix":
        """Matrix product self · other."""
        if self.m != other.m:
            raise MatrixError(f"size mismatch {self.m} vs {other.m}")
        perm = tuple(self.perm[other.perm[k] - 1] for k in range(self.m))
        entries = tuple(
            self.entries[other.perm[k] - 1] * other.entries[k]
            for k in range(self.m)
        )
        return MonomialGammaMatrix(self.m, perm, entries)

    def invert(self) -> "MonomialGammaMatrix":
        inv = [0] * self.m
        for j in range(self.m):
            inv[self.perm[j] - 1] = j + 1
        perm = tuple(inv)
        entries = tuple(self.entries[perm[k] - 1].inverse() for k in range(self.m))
        return MonomialGammaMatrix(self.m, perm, entries)

    def act(self, b: BraidWord) -> "MonomialGammaMatrix":
        return MonomialGammaMatrix(
            self.m, self.perm, tuple(braid_act_word(b, s) for s in self.entries)
        )

    def to_dense(self) -> RingMatrix:
        zero = GroupRingElt.zero(self.m)

        def entry(i, j):
            if i == self.perm[j] - 1:
                return GroupRingElt.from_word(self.entries[j])
            return zero

        return RingMatrix.from_fn(self.m, entry)

    def __repr__(self) -> str:
        return (
            f"MonomialGammaMatrix(perm={self.perm}, "
            f"entries={[str(s) for s in self.entries]})"
        )
