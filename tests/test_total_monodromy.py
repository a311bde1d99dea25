"""The total monodromy c = g_1 g_2 ... g_m against the braid action and
against the Coxeter polynomials of the Dynkin diagrams.

Every s_k^{+-1} fixes c in Gamma_m (Artin) and every e_i fixes every g_j,
so rho_N(c) is carried along the paper's nonlinear action:

    S(sigma, N) rho_{sigma^* N}(c) = rho_N(c) S(sigma, N).

On the Dynkin matrix of a simple singularity, rho_N(c) is a Coxeter element
for n even: its characteristic polynomial is prod_j (t - e^{2 pi i m_j / h}),
with m_j the exponents and h the Coxeter number (Bourbaki, Lie Groups,
ch. V §6; Humphreys, Reflection Groups and Coxeter Groups, §3.16-3.19).  For
n odd it is prod_j (t + e^{2 pi i m_j / h}), the sign flip of Sebastiani-Thom
on adding a square.  The polynomial is an invariant of the braid orbit, so
it is checked along random braids too: that is where a wrong sign of
rho_coeff in monodromy._fold shows, for n odd (for n even rho_coeff(1) and
rho_coeff(-1) agree).  Polynomials are exact integer coefficient lists,
highest degree first.
"""

import random
from collections import Counter
from math import gcd

import pytest

from braidmono import FreeWord, ParityClass, cocycle_and_action, rho, validate_N
from braidmono.monodromy import mat_mul
from conftest import all_parities, rand_braid, rand_N


def total(m):
    """c = g_1 g_2 ... g_m."""
    return FreeWord.make(m, [(i, 1) for i in range(1, m + 1)])


def charpoly(A):
    """det(t I - A) by Berkowitz's division-free recursion: the polynomial
    of A[k:, k:] is a Toeplitz matrix, built from A[k][k], the row and
    column beside it and powers of A[k+1:, k+1:], times that of
    A[k+1:, k+1:]."""
    n, p = len(A), [1]
    for k in range(n - 1, -1, -1):
        R, sub = A[k][k + 1:], [row[k + 1:] for row in A[k + 1:]]
        col, v = [1, -A[k][k]], [A[i][k] for i in range(k + 1, n)]
        for _ in sub:
            col.append(-sum(r * x for r, x in zip(R, v)))
            v = [sum(s * x for s, x in zip(row, v)) for row in sub]
        p = [sum(col[i - j] * p[j] for j in range(min(i + 1, len(p))))
             for i in range(len(p) + 1)]
    return p


def polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def cyclotomic(d):
    """Phi_d: t^d - 1 divided by Phi_e for every proper divisor e of d."""
    p = [1] + [0] * (d - 1) + [-1]
    for e in range(1, d):
        if d % e == 0:
            q, p, quot = cyclotomic(e), list(p), []
            for i in range(len(p) - len(q) + 1):  # q is monic
                quot.append(p[i])
                for j, y in enumerate(q):
                    p[i + j] -= quot[-1] * y
            assert not any(p)
            p = quot
    return p


def coxeter_polynomial(h, exponents):
    """prod_j (t - e^{2 pi i m_j / h}): the roots of order d come as whole
    Galois orbits, so as one Phi_d per phi(d) of them."""
    p = [1]
    for d, count in Counter(h // gcd(m, h) for m in exponents).items():
        phi = cyclotomic(d)
        assert count % (len(phi) - 1) == 0
        for _ in range(count // (len(phi) - 1)):
            p = polymul(p, phi)
    return p


def dynkin(parity, edges, mu):
    rows = [[parity.diag if i == j else 0 for j in range(mu)] for i in range(mu)]
    for a, b in edges:
        rows[a][b], rows[b][a] = -1, -parity.sgn
    return validate_N(parity, rows)


def a_type(mu):
    return [(i, i + 1) for i in range(mu - 1)], mu + 1, range(1, mu + 1)


def d_type(mu):
    edges = [(i, i + 1) for i in range(mu - 2)] + [(mu - 3, mu - 1)]
    return edges, 2 * mu - 2, [*range(1, 2 * mu - 2, 2), mu - 1]


# Bourbaki's numbering: the chain 1-3-4-5-6 with 2 on 4
E6 = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)], 12, (1, 4, 5, 7, 8, 11)

CASES = {"A4": a_type(4), "A5": a_type(5), "D4": d_type(4), "D5": d_type(5), "E6": E6}


def test_charpoly_and_coxeter_polynomials():
    # the companion matrix of t^3 - 2t^2 + 3t - 5, and the stated closed forms
    assert charpoly([[0, 0, 5], [1, 0, -3], [0, 1, 2]]) == [1, -2, 3, -5]
    assert coxeter_polynomial(*a_type(4)[1:]) == [1, 1, 1, 1, 1]  # (t^5 - 1)/(t - 1)
    assert coxeter_polynomial(*d_type(5)[1:]) == polymul([1, 0, 0, 0, 1], [1, 1])
    assert coxeter_polynomial(*E6[1:]) == polymul([1, 0, -1, 0, 1], [1, 1, 1])


@pytest.mark.parametrize("parity", all_parities(), ids=lambda p: f"n{p.n_mod_4}")
def test_action_carries_the_total_monodromy(parity):
    rng = random.Random(f"total:{parity.n_mod_4}")
    for _ in range(100):
        m = rng.randint(2, 6)
        N = rand_N(rng, parity, m)
        S, moved = cocycle_and_action(rand_braid(rng, m, rng.randint(0, 10)), N)
        assert mat_mul(S, rho(moved, total(m))) == mat_mul(rho(N, total(m)), S)


@pytest.mark.parametrize("name", CASES)
def test_coxeter_polynomial_along_braid_orbits(name):
    edges, h, exponents = CASES[name]
    mu, want = len(edges) + 1, coxeter_polynomial(h, exponents)
    rng = random.Random(f"coxeter:{name}")
    for k in range(4):
        parity = ParityClass(k)
        expect = want if parity.sgn > 0 else [(-1) ** i * x for i, x in enumerate(want)]
        N = dynkin(parity, edges, mu)
        assert charpoly(rho(N, total(mu))) == expect, k
        for _ in range(40):  # a random walk along the braid orbit
            N = cocycle_and_action(rand_braid(rng, mu, rng.randint(1, 4)), N)[1]
            assert charpoly(rho(N, total(mu))) == expect, (k, N.n)


# --- Picard-Lefschetz: the total monodromy from the Seifert form -------------
#
# With L = I + eps * (strict upper part of N), the monodromy of the whole
# fibration is rho_N(g_1 ... g_m) = -sgn * L^{-1} L^T (the variation
# operator is L^{-1} up to sign).  L is unitriangular, so the identity is
# checked as L rho_N(c) = -sgn L^T, without a division.

def seifert(N):
    eps, m = N.parity.eps, N.m
    return [[int(i == j) + (eps * N.n[i][j] if j > i else 0) for j in range(m)] for i in range(m)]


def picard_lefschetz_holds(N):
    L, sgn = seifert(N), N.parity.sgn
    return mat_mul(L, rho(N, total(N.m))) == [[-sgn * x for x in row] for row in zip(*L)]


@pytest.mark.parametrize("parity", all_parities(), ids=lambda p: f"n{p.n_mod_4}")
def test_picard_lefschetz_total_monodromy(parity):
    rng = random.Random(f"picard-lefschetz:{parity.n_mod_4}")
    for _ in range(150):
        m = rng.randint(1, 7)
        N = rand_N(rng, parity, m)
        assert picard_lefschetz_holds(N), N.n
        for _ in range(3):  # L recomputed from sigma^* N at each step of a walk
            N = cocycle_and_action(rand_braid(rng, m, rng.randint(1, 4)), N)[1]
            assert picard_lefschetz_holds(N), N.n


# --- Sebastiani-Thom: x^p + y^q from the Seifert forms of A_{p-1}, A_{q-1} ---
#
# The variation form of f(x) + g(y) is the tensor product of theirs
# (Sebastiani-Thom 1971, Gabrielov 1973), so L = L_{A_{p-1}} (x) L_{A_{q-1}},
# both read off the Dynkin matrices by seifert() above, is unitriangular in
# the lexicographic order and gives the N with N = eps (L + sgn L^T).  Its
# total monodromy is then -sgn (L_A^{-1} L_A^T) (x) (L_B^{-1} L_B^T), where
# the A_{k-1} factor has eigenvalues -zeta_k^a (a = 1..k-1): the sign is the
# one the Picard-Lefschetz identity fixes, so rho_N(g_1 ... g_mu) has roots
# -sgn zeta_p^a zeta_q^b.  N is singular where L^{-1} L^T has the eigenvalue
# -sgn: dim ker N = #{a/p + b/q in Z} for n odd, #{a/p + b/q = 1/2 mod 1}
# for n even.  (3,4) is E6, (4,4) is X9, (3,6) is J10.

from braidmono import kernel_basis  # noqa: E402


def sebastiani_thom(parity, p, q):
    """N of x^p + y^q in the given parity class."""
    LA, LB = (seifert(dynkin(parity, a_type(k - 1)[0], k - 1)) for k in (p, q))
    L = [[a * b for a in ra for b in rb] for ra in LA for rb in LB]  # Kronecker
    eps, sgn = parity.eps, parity.sgn
    N = validate_N(parity, [[eps * (x + sgn * y) for x, y in zip(row, col)]
                            for row, col in zip(L, zip(*L))])
    assert seifert(N) == L
    return N


def sebastiani_thom_polynomial(parity, p, q):
    """prod_{a,b} (t + sgn zeta_p^a zeta_q^b), zeta_p^a zeta_q^b = e^{2 pi i (aq + bp) / pq}."""
    want = coxeter_polynomial(p * q, [a * q + b * p for a in range(1, p) for b in range(1, q)])
    return [(-1) ** i * x for i, x in enumerate(want)] if parity.sgn > 0 else want


def sebastiani_thom_nullity(parity, p, q):
    """#{(a, b) : a/p + b/q = 0 mod 1} for n odd, = 1/2 mod 1 for n even."""
    target = 0 if parity.sgn < 0 else p * q  # 2 (aq + bp) mod 2pq
    return sum(2 * (a * q + b * p) % (2 * p * q) == target
               for a in range(1, p) for b in range(1, q))


@pytest.mark.parametrize("pq", [(3, 4), (4, 4), (3, 6), (6, 6)], ids=str)
def test_sebastiani_thom_total_monodromy_and_kernel(pq):
    p, q = pq
    mu = (p - 1) * (q - 1)
    rng = random.Random(f"sebastiani-thom:{p},{q}")
    nullity = {}
    for parity in all_parities():
        N = sebastiani_thom(parity, p, q)
        want, dim = sebastiani_thom_polynomial(parity, p, q), sebastiani_thom_nullity(parity, p, q)
        nullity[parity.n_mod_4] = dim
        for step in range(3):  # along a random walk in the braid orbit
            assert picard_lefschetz_holds(N)
            assert charpoly(rho(N, total(mu))) == want, (parity.n_mod_4, step)
            rank, basis = kernel_basis(N)
            assert (rank, len(basis)) == (mu - dim, dim), (parity.n_mod_4, step)
            N = cocycle_and_action(rand_braid(rng, mu, rng.randint(1, 3)), N)[1]
    # the counts by hand: n odd, then n even
    assert (nullity[1], nullity[0]) == {(3, 4): (0, 0), (4, 4): (3, 2), (3, 6): (2, 2),
                                        (6, 6): (5, 4)}[pq]
    assert nullity[1] == nullity[3] and nullity[0] == nullity[2]
