"""Braid orbits of Dynkin intersection matrices against Deligne's count.

For a simple singularity of type A or D with Milnor number mu, the braid
group acts transitively on distinguished bases up to sign, and there are
mu! h^mu / |W| of them (h the Coxeter number, W the Weyl group): (mu+1)^(mu-1)
for A_mu and 2 (mu-1)^mu for D_mu.  The search starts from the Dynkin matrix
and the identity basis B, moves by every s_k^{+-1} through
cocycle_and_action with B <- B S, and counts the bases with each column's
sign normalised.  It stops one basis past the count, so a wrong sign rule
in the fold fails fast instead of running on.

The counts do not pin which of eps and sgn*eps goes with which letter
exponent in monodromy._fold (swapping them leaves every count unchanged);
test_monodromy_oracle does.
"""

import pytest

from braidmono import BraidWord, ParityClass, cocycle_and_action, validate_N
from braidmono.monodromy import mat_mul


def dynkin(parity, edges, mu):
    rows = [[parity.diag if i == j else 0 for j in range(mu)] for i in range(mu)]
    for a, b in edges:
        rows[a][b] = -1
        rows[b][a] = parity.sgn * rows[a][b]
    return validate_N(parity, rows)


def a_type(mu):
    return [(i, i + 1) for i in range(mu - 1)], (mu + 1) ** (mu - 1)


def d_type(mu):
    return [(i, i + 1) for i in range(mu - 2)] + [(mu - 3, mu - 1)], 2 * (mu - 1) ** mu


def key(B):
    """B with every column's first nonzero entry made positive."""
    cols = []
    for col in zip(*B):
        lead = next(x for x in col if x)
        cols.append(col if lead > 0 else tuple(-x for x in col))
    return tuple(cols)


def orbit_size(N, limit):
    """Distinguished bases reached from the identity, up to sign; at most
    limit + 1 of them are counted."""
    mu = N.m
    moves = [BraidWord(mu, (("s", k, e),)) for k in range(2, mu + 1) for e in (1, -1)]
    B = [[int(i == j) for j in range(mu)] for i in range(mu)]
    seen, todo = {key(B)}, [(B, N)]
    while todo and len(seen) <= limit:
        B, N = todo.pop()
        for b in moves:
            S, N2 = cocycle_and_action(b, N)
            B2 = mat_mul(B, S)
            k = key(B2)
            if k not in seen:
                seen.add(k)
                todo.append((B2, N2))
    return len(seen)


CASES = [
    (f"{name}{mu}", kind(mu), mu, classes)
    for name, kind, mus in (("A", a_type, range(1, 6)), ("D", d_type, (4, 5)))
    for mu in mus
    for classes in [(0, 1, 2, 3) if mu <= 4 else (1, 2)]
]


@pytest.mark.parametrize("name,case,mu,classes", CASES, ids=[c[0] for c in CASES])
def test_orbit_matches_deligne_count(name, case, mu, classes):
    edges, count = case
    for k in classes:
        assert orbit_size(dynkin(ParityClass(k), edges, mu), count) == count, (name, k)
