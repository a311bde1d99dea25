"""Intersection matrices with parity class, the twist representation rho_N,
the integer cocycle S(sigma, N) and induced action on N, character
transforms, integer kernels, and the branched-cover character engine with
its bundled 3-sheeted example.

Costs, in integer operations on m x m matrices (entries grow with the word,
so each operation gets dearer): rho and character push rows through
rank-1 updates, O(|g| m^2); one character entry, as forward_Q needs, is
one row, O(|g| m); theoremB_S and act_on_N fold the cocycle law over the
braid letters, O(|sigma| m), without building free-group words.  The
word-based definitions (S read off pl_cocycle, rho as a product of
generator matrices) are the reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .words import BraidWord, FreeWord, WordError
from .cocycles import pl_cocycle


class ParityError(ValueError):
    pass


@dataclass(frozen=True)
class ParityClass:
    """Fiber-dimension parity n mod 4 and the derived sign data."""

    n_mod_4: int

    def __post_init__(self):
        if self.n_mod_4 not in (0, 1, 2, 3):
            raise ParityError(f"n mod 4 must be 0..3, got {self.n_mod_4}")

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


def _freeze(a):
    return tuple(tuple(r) for r in a)


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
    rows = [list(r) for r in rows]
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise ParityError("matrix must be square")
    sgn, diag = parity.sgn, parity.diag
    for i in range(m):
        if rows[i][i] != diag:
            raise ParityError(
                f"diagonal entry ({i + 1},{i + 1}) = {rows[i][i]}, must be {diag}"
            )
        for j in range(m):
            if rows[i][j] != sgn * rows[j][i]:
                raise ParityError(
                    f"symmetry violated at ({i + 1},{j + 1}): "
                    f"{rows[i][j]} != {sgn}*{rows[j][i]}"
                )
    return IntersectionMatrix(parity, _freeze(rows))


# --- integer kernels: rho, characters and the cocycle fold ------------------
#
# rho_N(g_i^{±1}) = I - s E_i N, so multiplying a row vector on the right by
# it is one rank-1 update: row <- row - s * row[i] * N[i, :].  Every
# character entry is a row of N pushed through the letters of g.


def _steps(N: IntersectionMatrix, g: FreeWord):
    """(i, s * row i of N) for each letter g_{i+1}^{±1} of g, exponents
    expanded; s = eps for g_i, sgn*eps for g_i^{-1}."""
    if g.m != N.m:
        raise WordError(f"word rank {g.m} vs matrix size {N.m}")
    par = N.parity
    out = []
    for i, e in g.letters:
        s = par.eps if e > 0 else par.sgn * par.eps
        out.extend([(i - 1, [s * x for x in N.n[i - 1]])] * abs(e))
    return out


def _times_rho(row, steps):
    """row * rho_N(g) for g given by its steps, in O(|g| m)."""
    for i, sn in steps:
        c = row[i]
        if c:
            row = [x - c * y for x, y in zip(row, sn)]
    return row


def rho(N: IntersectionMatrix, g: FreeWord):
    """rho_N(g), in O(|g| m^2)."""
    steps = _steps(N, g)
    return [_times_rho(row, steps) for row in mat_eye(N.m)]


def character(N: IntersectionMatrix, g: FreeWord):
    """The monodromy character value N * rho_N(g), in O(|g| m^2)."""
    steps = _steps(N, g)
    return [_times_rho(list(row), steps) for row in N.n]


def character_entry(N: IntersectionMatrix, g: FreeWord, r: int, c: int) -> int:
    """Entry (r, c), 0-based, of character(N, g), in O(|g| m)."""
    return _times_rho(N.n[r], _steps(N, g))[c]


def _fold(sigma: BraidWord, N: IntersectionMatrix, with_S: bool):
    """Fold the cocycle law S(uv, N) = S(u, N) S(v, u^*N) letter by letter.

    On one letter S = P + t e_i e_i^T, where P swaps columns i and j
    (P = I when i = j) and t = -s N[i][j]: column i of S is column j of
    rho_N(g^{-1}) for the one nontrivial entry g of the letter's monomial
    cocycle.  With 0-based i, j:

        s_k      i = k-2, j = k-1, s = eps        (entry g_{k-1}^{-1})
        s_k^-1   i = k-1, j = k-2, s = sgn*eps    (entry g_k)
        e_k      i = j = k-1,      s = sgn*eps    (entry g_k)
        e_k^-1   i = j = k-1,      s = eps        (entry g_k^{-1})

    N <- S^T N S and S <- S * S_letter each cost O(m) per letter.  Returns
    (S, rows of sigma^* N); S is [] unless with_S.
    """
    if sigma.m != N.m:
        raise WordError(f"strand count {sigma.m} vs matrix size {N.m}")
    par = N.parity
    rows = N.rows()
    S = mat_eye(N.m) if with_S else []
    for kind, k, e in sigma.letters:
        if kind == "s":
            i, j = (k - 2, k - 1) if e > 0 else (k - 1, k - 2)
        else:
            i = j = k - 1
        s = par.eps if (kind == "s") == (e > 0) else par.sgn * par.eps
        t = -s * rows[i][j]
        # times S_letter on the right: column j takes column i, column i
        # becomes column j + t * column i
        for r in chain(rows, S):
            r[j], r[i] = r[i], r[j] + t * r[i]
        # times S_letter^T on the left: the same on rows of N
        rows[j], rows[i] = rows[i], [x + t * y for x, y in zip(rows[j], rows[i])]
    return S, rows


def theoremB_S(sigma: BraidWord, N: IntersectionMatrix):
    """Integer cocycle: column j of S is column pi(j) of rho_N(s_j^{-1}),
    with (pi, s_j) the monomial cocycle of sigma; computed by a fold over
    the letters in O(|sigma| m)."""
    return _fold(sigma, N, with_S=True)[0]


def act_on_N(sigma: BraidWord, N: IntersectionMatrix) -> IntersectionMatrix:
    """sigma^* N = S(sigma,N)^T N S(sigma,N); revalidated."""
    return validate_N(N.parity, _fold(sigma, N, with_S=False)[1])


def cocycle_and_action(sigma: BraidWord, N: IntersectionMatrix):
    """(theoremB_S(sigma, N), act_on_N(sigma, N)) from one fold."""
    S, rows = _fold(sigma, N, with_S=True)
    return S, validate_N(N.parity, rows)


def character_transform(N: IntersectionMatrix, tau: BraidWord, g: FreeWord):
    """(S_c(tau)^t 𝒩 S_c(tau))(g): entry (j,l) is the character of
    s_j · g · s_l^{-1} at position (pi(j), pi(l))."""
    if tau.m != N.m or g.m != N.m:
        raise WordError("size mismatch")
    mono = pl_cocycle(tau)
    pi = [p - 1 for p in mono.perm]
    g_steps = _steps(N, g)
    # row pi(j) of N rho_N(s_j g), then through rho_N(s_l^{-1})
    heads = [
        _times_rho(_times_rho(N.n[pi[j]], _steps(N, s)), g_steps)
        for j, s in enumerate(mono.entries)
    ]
    tails = [_steps(N, s.inverse()) for s in mono.entries]
    return [
        [_times_rho(u, tails[l])[pi[l]] for l in range(N.m)] for u in heads
    ]


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

    perm_assignment maps generator name -> dict label->label; g is a
    sequence of (name, exponent) pairs, or a juxtaposed string like "ab".
    """
    if isinstance(g, str):
        g = [(tok, 1) for tok in list_word(g)] if g != "1" else []
    perms = {}
    for name, table in perm_assignment.items():
        perms[name] = dict(table)
        inv = {v: k for k, v in table.items()}
        if len(inv) != len(table):
            raise ValueError(f"assignment for {name!r} is not a bijection")
        perms[name + "^-1"] = inv

    def apply(label: int) -> int:
        for name, e in reversed(list(g)):
            if name not in perms:
                raise ValueError(f"generator {name!r} not assigned")
            table = perms[name] if e >= 0 else perms[name + "^-1"]
            for _ in range(abs(e)):
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
    words = ["1", "a", "g2", "b", "ab", "ba"]
    out = {w: cover_character(assignment, cycles, w) for w in words}
    return assignment, cycles, out


def list_word(w: str):
    """Split a juxtaposed word like 'ab' or 'g2' into generator names."""
    names = []
    i = 0
    while i < len(w):
        if w[i] == "g" and i + 1 < len(w) and w[i + 1].isdigit():
            names.append(w[i : i + 2])
            i += 2
        else:
            names.append(w[i])
            i += 1
    return names
