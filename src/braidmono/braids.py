"""Braid-word permutations, purity, and linking numbers of pure-braid
closures, read off the path-change pass cocycles._pl_fold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cocycles import _pl_fold
from .words import BraidWord, WordError


def braid_permutation(b: BraidWord) -> tuple[tuple[int, ...], bool]:
    """Underlying permutation (sigma_k -> transposition (k-1, k)) as its tuple
    of images, and purity: the path-change pass's row permutation, plus one."""
    rows = _pl_fold(b, False)[0]
    return tuple(r + 1 for r in rows), rows == list(range(b.m))


@dataclass(frozen=True)
class LinkingMatrix:
    m: int
    lk: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for i in range(self.m):
            if self.lk[i][i] != 0:
                raise ValueError("diagonal must vanish")
            for j in range(self.m):
                if self.lk[i][j] != self.lk[j][i]:
                    raise ValueError("linking matrix must be symmetric")


def linking_numbers(b: BraidWord) -> LinkingMatrix:
    """Pairwise linking numbers of the closure of a pure braid.

    Sign convention: the multivariate reduction of the path-change cocycle
    is diag(prod_{j != i} t_j^{-lk(i,j)}), so lk(i,j) is minus the exponent
    of t_i in column j of the pass (a positive sigma-letter crossing i and j
    adds -1/2); epsilon letters move only the diagonal, which lk leaves 0.
    """
    rows, exps = _pl_fold(b, True)
    if rows != list(range(b.m)):
        raise WordError("linking numbers require a pure braid")
    return LinkingMatrix(b.m, tuple(
        tuple(-exps[j][i] if i != j else 0 for j in range(b.m)) for i in range(b.m)))
