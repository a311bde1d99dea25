import pytest
from hypothesis import given, strategies as st

from braidmono import (
    FreeWord,
    GroupRingElt,
    LaurentElt,
    WordError,
    abelian_reduce,
    parse_word,
)


def elt(m, *pairs):
    out = GroupRingElt.zero(m)
    for text, c in pairs:
        out = out + GroupRingElt.from_word(parse_word(text, m), c)
    return out


words_st = st.lists(
    st.tuples(st.integers(1, 3), st.integers(-2, 2)), max_size=6
).map(lambda ps: FreeWord.make(3, ps))
elts_st = st.lists(st.tuples(words_st, st.integers(-3, 3)), max_size=4).map(
    lambda ts: GroupRingElt(3, dict(ts) if len({w for w, _ in ts}) == len(ts) else {})
)


@given(elts_st, elts_st, elts_st)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * GroupRingElt.one(3) == a
    assert a - a == GroupRingElt.zero(3)


@given(elts_st, elts_st)
def test_involution_antihomomorphism(a, b):
    assert (a * b).involute() == b.involute() * a.involute()
    assert a.involute().involute() == a


def test_convolution_matches_word_product():
    a = elt(2, ("g1", 2), ("g2'", 1))
    b = elt(2, ("g1'", 1), ("1", 3))
    got = a * b
    want = elt(2, ("1", 2), ("g1", 6), ("g2' g1'", 1), ("g2'", 3))
    assert got == want


def test_format_ring_elt_deterministic():
    a = elt(2, ("g1 g2", 1), ("1", -1), ("g1", 2))
    assert str(a) == "-1 + 2*g1 + g1 g2"
    assert str(GroupRingElt.zero(2)) == "0"


def test_laurent_arithmetic():
    t = LaurentElt.var(0)
    p = (t - LaurentElt.one(0)) * (t + LaurentElt.one(0))
    assert p == LaurentElt(0, {(2,): 1, (0,): -1})
    assert str(p) == "-1 + t^2"
    ti = LaurentElt.var(0, e=-1)
    assert t * ti == LaurentElt.one(0)


def test_laurent_multivariate_format():
    x = LaurentElt.var(3, 1) * LaurentElt.var(3, 2, -1)
    assert str(x) == "t1*t2^-1"


def test_laurent_arity_enforced():
    with pytest.raises(ValueError):
        LaurentElt(2, {(1,): 1})
    with pytest.raises(ValueError):
        LaurentElt.var(0) + LaurentElt.var(2, 1)


def test_mixed_rings_are_one_line_errors():
    cases = [
        (lambda: GroupRingElt.one(2) + LaurentElt.one(0),
         "mixed rings GroupRingElt and LaurentElt"),
        (lambda: LaurentElt.one(0) * GroupRingElt.one(2),
         "mixed rings LaurentElt and GroupRingElt"),
        (lambda: GroupRingElt.one(2) - GroupRingElt.one(3),
         "mixed GroupRingElt rings 2 and 3"),
    ]
    for op, msg in cases:
        with pytest.raises(WordError, match=f"^{msg}$"):
            op()


def test_abelian_reduce_word():
    w = parse_word("g1^2 g2'", 3)
    assert abelian_reduce(w, "univariate") == LaurentElt(0, {(-1,): 1})
    assert abelian_reduce(w, "multivariate") == LaurentElt(3, {(-2, 1, 0): 1})


def test_abelian_reduce_is_ring_hom(rng):
    from conftest import rand_free

    for mode in ("univariate", "multivariate"):
        for _ in range(30):
            a = GroupRingElt.from_word(rand_free(rng, 3, 5), rng.randint(-3, 3))
            b = GroupRingElt.from_word(rand_free(rng, 3, 5), rng.randint(-3, 3))
            assert abelian_reduce(a * b, mode) == abelian_reduce(a, mode) * abelian_reduce(b, mode)
            assert abelian_reduce(a + b, mode) == abelian_reduce(a, mode) + abelian_reduce(b, mode)


def test_abelian_reduce_rejects_unknown():
    with pytest.raises(ValueError):
        abelian_reduce(parse_word("g1", 2), "nope")
