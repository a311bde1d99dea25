"""Braid-word permutations, purity, and linking numbers of pure-braid
closures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import BraidWord, WordError


@dataclass(frozen=True)
class Permutation:
    """Permutation of 1..m, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation: {self.images}")

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.images):
            raise ValueError(f"point {i} out of range 1..{len(self.images)}")
        return self.images[i - 1]

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, len(self.images) + 1))


def braid_permutation(b: BraidWord) -> tuple[Permutation, bool]:
    """Underlying permutation (sigma_k -> transposition (k-1, k)) and purity."""
    # pi(word) = t_{l1} ∘ t_{l2} ∘ ... with the leftmost letter outermost;
    # accumulating P <- P∘t left-to-right swaps P's entries at k-1, k
    images = list(range(1, b.m + 1))
    for kind, k, _ in b.letters:
        if kind == "s":
            images[k - 2], images[k - 1] = images[k - 1], images[k - 2]
    perm = Permutation(tuple(images))
    return perm, perm.is_identity()


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

    Sign convention: each positive sigma-letter crossing distinct components
    i, j contributes -1 to the running count c(i,j); lk = c/2.  This is the
    convention under which the multivariate reduction of the path-change
    cocycle is diag(prod_{j != i} t_j^{-lk(i,j)}).
    """
    # comp[p] = component label currently at strand position p+1
    comp = list(range(b.m))
    c = [[0] * b.m for _ in range(b.m)]
    for kind, k, e in reversed(b.letters):
        if kind != "s":
            continue
        a, bb = comp[k - 2], comp[k - 1]
        if a != bb:
            c[a][bb] -= e
            c[bb][a] -= e
        comp[k - 2], comp[k - 1] = comp[k - 1], comp[k - 2]
    if comp != list(range(b.m)):
        raise WordError("linking numbers require a pure braid")
    for i in range(b.m):
        for j in range(b.m):
            if c[i][j] % 2:
                raise AssertionError("odd crossing count on a pure braid")
            c[i][j] //= 2
    return LinkingMatrix(b.m, tuple(tuple(r) for r in c))
