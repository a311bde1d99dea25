"""Intersection matrices with parity class, the twist representation rho_N,
the integer cocycle S(sigma, N) and induced action on N, character
transforms, integer kernels, and the branched-cover character engine with
its bundled 3-sheeted example.

One row kernel, a rank-1 update per syllable with letter powers in closed
form, moves rows through rho_N for rho, character (O(syllables m^2)),
character_transform = S^T (N rho_N(g)) S and reconstruct's interval push.
cocycle_and_action folds the cocycle law over the braid letters,
O(|sigma| m), without free-group words, and theoremB_S and act_on_N read
their half of its result.  Costs count integer operations, which get
dearer as entries grow with the word; cocycle_and_action takes a bit
budget on them.  The word-based definitions (S read off pl_cocycle, rho as
a product of generator matrices) are the reference the tests compare
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import lcm
from operator import neg

from .words import BraidWord, FreeWord, WordError, _excerpt, pl_letter


class ParityError(ValueError):
    pass


@dataclass(frozen=True)
class ParityClass:
    """Fiber-dimension parity n mod 4 and the derived sign data."""

    n_mod_4: int

    def __post_init__(self):
        if self.n_mod_4 not in (0, 1, 2, 3):
            raise ParityError(f"n mod 4 must be 0..3, got {_excerpt(self.n_mod_4)}")

    @property
    def sgn(self) -> int:
        """(-1)^n"""
        return 1 if self.n_mod_4 % 2 == 0 else -1

    @property
    def eps(self) -> int:
        """(-1)^{n(n+1)/2}"""
        return 1 if self.n_mod_4 in (0, 3) else -1

    @property
    def diag(self) -> int:
        """Forced diagonal: 0 for n odd, 2*(-1)^{n/2} for n even."""
        if self.n_mod_4 % 2 == 1:
            return 0
        return 2 if self.n_mod_4 == 0 else -2

    def rho_coeff(self, e: int) -> int:
        """c with rho_N(g_i^e) = I - c E_i N: eps*e for n odd, eps*(e mod 2)
        for n even."""
        return self.eps * (e if self.n_mod_4 & 1 else e % 2)


# --- small exact integer matrix helpers ------------------------------------

def mat_eye(m: int):
    return [[1 if i == j else 0 for j in range(m)] for i in range(m)]


def mat_mul(a, b):
    m, n, p = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(p)]
        for i in range(m)
    ]


def mat_transpose(a):
    return [list(r) for r in zip(*a)]


@dataclass(frozen=True)
class IntersectionMatrix:
    parity: ParityClass
    n: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.n)

    def rows(self):
        return [list(r) for r in self.n]


def validate_N(parity: ParityClass, rows) -> IntersectionMatrix:
    rows = tuple(map(tuple, rows))
    m, sgn, diag = len(rows), parity.sgn, parity.diag
    if set(map(len, rows)) - {m}:
        raise ParityError("matrix must be square")
    flat, flip = [*chain(*rows)], [*chain(*zip(*rows))]  # flip: the transpose
    if flat != (flip if sgn > 0 else [*map(neg, flip)]) or flat[:: m + 1] != [diag] * m:
        for i in range(m):  # name the first entry off sgn * transpose or diag
            if rows[i][i] != diag:
                raise ParityError(
                    f"diagonal entry ({i + 1},{i + 1}) = {_excerpt(rows[i][i])}, "
                    f"must be {diag}"
                )
            for j in range(m):
                if rows[i][j] != sgn * rows[j][i]:
                    raise ParityError(
                        f"symmetry violated at ({i + 1},{j + 1}): "
                        f"{_excerpt(rows[i][j])} != {sgn}*{_excerpt(rows[j][i])}"
                    )
    return IntersectionMatrix(parity, rows)


# --- integer kernels: rho, characters and the cocycle fold ------------------
#
# rho_N(g_i^{±1}) = I - s E_i N, so multiplying a row vector on the right by
# it is one rank-1 update: row <- row - s * row[i] * N[i, :].  As
# (E_i N)^2 = N_ii E_i N, so is a letter power: rho_N(g_i)^k = I - s (1 +
# lam + ... + lam^(k-1)) E_i N with lam = 1 - s N_ii, 1 for n odd, -1 for n
# even.  Every character entry is a row of N pushed through g's syllables.


def _steps(parity: ParityClass, rows, letters):
    """(i, c, rows[i]) for each syllable g_{i+1}^e in letters, so that
    rho_N(g_{i+1}^e) = I - c E_i N with c = parity.rho_coeff(e).  Syllables
    with c = 0 act trivially and are dropped."""
    out = []
    for i, e in letters:
        c = parity.rho_coeff(e)
        if c:
            out.append((i - 1, c, rows[i - 1]))
    return out


def _times_rho(row, steps):
    """row * rho_N(g) for g given by its steps, in O(syllables * m)."""
    for i, c, n in steps:
        if row[i]:
            c *= row[i]
            row = [x - c * y for x, y in zip(row, n)]
    return row


def _push(rows, N: IntersectionMatrix, g: FreeWord):
    """rows * rho_N(g), in O(syllables * m) per row."""
    if g.m != N.m:
        raise WordError(f"word rank {g.m} vs matrix size {N.m}")
    steps = _steps(N.parity, N.n, g.letters)
    return [_times_rho(list(row), steps) for row in rows]


def rho(N: IntersectionMatrix, g: FreeWord):
    """rho_N(g)."""
    return _push(mat_eye(N.m), N, g)


def character(N: IntersectionMatrix, g: FreeWord):
    """The monodromy character value N * rho_N(g)."""
    return _push(N.n, N, g)


def cocycle_and_action(sigma: BraidWord, N: IntersectionMatrix, max_bits=None):
    """(theoremB_S(sigma, N), act_on_N(sigma, N)): the cocycle law
    S(uv, N) = S(u, N) S(v, u^*N) folded letter by letter.

    On one letter S = P + t e_i e_i^T, where P swaps columns i and j
    (P = I when i = j) and t = -s N[i][j]: column i of S is column j of
    rho_N(g^{-1}), where the letter's monomial cocycle holds g = g_a^x at
    row j of column i, (i, j, a, x) = words.pl_letter(letter).  So s is
    parity.rho_coeff(-x).

    N <- S^T N S and S <- S * S_letter each cost O(m) per letter.  max_bits
    bounds the cost, as entries may grow doubly exponentially with the
    word: a letter that writes an entry of more than max_bits bits raises
    OverflowError naming the entry and the letter's position.
    """
    if sigma.m != N.m:
        raise WordError(f"strand count {sigma.m} vs matrix size {N.m}")
    s_of = {x: N.parity.rho_coeff(-x) for x in (1, -1)}
    rows, S = N.rows(), mat_eye(N.m)
    for p, (kind, k, e) in enumerate(sigma.letters, 1):
        i, j, _, x = pl_letter(kind, k, e)
        t = -s_of[x] * rows[i][j]
        # times S_letter on the right: column j takes column i, column i
        # becomes column j + t * column i
        for r in chain(rows, S):
            r[j], r[i] = r[i], r[j] + t * r[i]
        # times S_letter^T on the left: the same on rows of N
        rows[j], rows[i] = rows[i], [a + t * b for a, b in zip(rows[j], rows[i])]
        if max_bits is not None:  # new entries: row i of N (column i is +-it), column i of S
            written = chain((("N", i, c, v) for c, v in enumerate(rows[i])),
                            (("S", r, i, row[i]) for r, row in enumerate(S)))
            for name, r, c, v in written:
                if v.bit_length() > max_bits:
                    raise OverflowError(f"{name} entry ({r + 1},{c + 1}) passes the "
                                        f"{max_bits}-bit budget at letter {p}")
    return S, validate_N(N.parity, rows)


def theoremB_S(sigma: BraidWord, N: IntersectionMatrix):
    """Integer cocycle: column j of S is column pi(j) of rho_N(s_j^{-1}),
    with (pi, s_j) the monomial cocycle of sigma; computed by a fold over
    the letters in O(|sigma| m)."""
    return cocycle_and_action(sigma, N)[0]


def act_on_N(sigma: BraidWord, N: IntersectionMatrix) -> IntersectionMatrix:
    """sigma^* N = S(sigma,N)^T N S(sigma,N); revalidated."""
    return cocycle_and_action(sigma, N)[1]


def character_transform(N: IntersectionMatrix, tau: BraidWord, g: FreeWord):
    """(S_c(tau)^t 𝒩 S_c(tau))(g) = S^T (N rho_N(g)) S with S = theoremB_S:
    entry (j,l) is the character of s_j · g · s_l^{-1} at (pi(j), pi(l)),
    since rho_N(h)^T N = N rho_N(h^{-1})."""
    if tau.m != N.m or g.m != N.m:
        raise WordError("size mismatch")
    S = theoremB_S(tau, N)
    return mat_mul(mat_transpose(S), mat_mul(character(N, g), S))


def kernel_basis(N: IntersectionMatrix):
    """(rank, integer lattice basis of ker N) via integer row reduction of
    the transpose augmented with the identity."""
    m = N.m
    # rows of [N^T | I]; integer row ops preserve the lattice relations
    aug = [list(col) + [1 if i == j else 0 for j in range(m)]
           for i, col in enumerate(mat_transpose(N.rows()))]
    pivot_row = 0
    for col in range(m):
        # eliminate column col below pivot_row with gcd steps
        while True:
            nz = [r for r in range(pivot_row, m) if aug[r][col] != 0]
            if not nz:
                break
            r0 = min(nz, key=lambda r: abs(aug[r][col]))
            aug[pivot_row], aug[r0] = aug[r0], aug[pivot_row]
            done = True
            for r in range(pivot_row + 1, m):
                q = aug[r][col] // aug[pivot_row][col]
                if q:
                    aug[r] = [x - q * y for x, y in zip(aug[r], aug[pivot_row])]
                if aug[r][col] != 0:
                    done = False
            if done:
                pivot_row += 1
                break
    rank = pivot_row
    basis = [row[m:] for row in aug[rank:] if all(x == 0 for x in row[:m])]
    return rank, basis


# --- branched-cover characters ---------------------------------------------

@dataclass(frozen=True)
class OrientedZeroSphere:
    """Two distinct fiber-point labels with opposite orientation signs."""

    points: tuple[tuple[int, int], tuple[int, int]]  # (label, sign) pairs

    def __post_init__(self):
        (l1, s1), (l2, s2) = self.points
        if l1 == l2:
            raise ValueError("labels of an oriented 0-sphere must be distinct")
        if abs(s1) != 1 or abs(s2) != 1:
            raise ValueError("signs must be ±1")


def _pairing(L: OrientedZeroSphere, M: OrientedZeroSphere) -> int:
    return sum(
        s * t for (a, s) in L.points for (b, t) in M.points if a == b
    )


def cover_character(perm_assignment: dict, cycles, g) -> list:
    """Intersection matrix entry (i,j) = <L_i, g·L_j> for a word g in the
    assigned deck permutations; the rightmost generator acts first.

    perm_assignment maps generator name -> dict label->label, a permutation
    of its keys; g is a sequence of (name, exponent) pairs.  Exponents are
    taken modulo the permutation's order, the lcm of its cycle lengths.
    """
    perms = {}
    for name, table in perm_assignment.items():
        table = dict(table)
        if set(table.values()) != table.keys():
            raise ValueError(f"assignment for {name!r} is not a bijection")
        order, seen = 1, set()
        for x in table:
            length = 0
            while x not in seen:
                seen.add(x)
                x, length = table[x], length + 1
            order = lcm(order, length or 1)
        perms[name] = table, order

    def apply(label: int) -> int:
        for name, e in reversed(list(g)):
            if name not in perms:
                raise ValueError(f"generator {name!r} not assigned")
            table, order = perms[name]
            for _ in range(e % order):
                label = table.get(label, label)
        return label

    moved = [
        OrientedZeroSphere(tuple((apply(a), s) for a, s in L.points))
        for L in cycles
    ]
    return [[_pairing(L, M) for M in moved] for L in cycles]


def cover_example():
    """The bundled 3-sheeted branched cover over the torus: four vanishing
    0-spheres in the fiber {1,2,3}; returns the six matrices for the words
    1, a, g2, b, ab, ba (parity class n = 0)."""
    t12 = {1: 2, 2: 1, 3: 3}
    t13 = {1: 3, 3: 1, 2: 2}
    t23 = {2: 3, 3: 2, 1: 1}
    assignment = {
        "a": t12, "b": t23,
        "g1": t12, "g3": t12, "g2": t13, "g4": t13,
    }
    cycles = [
        OrientedZeroSphere(((1, -1), (2, 1))),
        OrientedZeroSphere(((1, 1), (3, -1))),
        OrientedZeroSphere(((1, 1), (2, -1))),
        OrientedZeroSphere(((1, 1), (3, -1))),
    ]
    words = {"1": [], "a": [("a", 1)], "g2": [("g2", 1)], "b": [("b", 1)],
             "ab": [("a", 1), ("b", 1)], "ba": [("b", 1), ("a", 1)]}
    out = {w: cover_character(assignment, cycles, g) for w, g in words.items()}
    return assignment, cycles, out

