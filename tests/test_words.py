import pytest
from hypothesis import given, strategies as st

from braidmono import (
    BraidWord,
    FreeWord,
    WordError,
    braid_act_word,
    format_braid,
    format_word,
    parse_braid,
    parse_word,
)
from braidmono.words import MAX_BRAID_POWER

pairs_st = st.lists(
    st.tuples(st.integers(1, 4), st.integers(-3, 3)), max_size=10
)


def test_reduction_basics():
    w = FreeWord.make(3, [(1, 1), (1, 1), (2, -1), (2, 1), (1, -2)])
    assert w.letters == ()
    w = FreeWord.make(3, [(1, 2), (2, 1), (2, -1), (1, -1)])
    assert w.letters == ((1, 1),)


def test_reduced_invariants_enforced():
    with pytest.raises(WordError):
        FreeWord(2, ((1, 0),))
    with pytest.raises(WordError):
        FreeWord(2, ((1, 1), (1, 2)))
    with pytest.raises(WordError):
        FreeWord(2, ((3, 1),))


def test_parse_format_roundtrip():
    for text in ["1", "g1", "g2'", "g1^3 g2' g1", "g3^-2"]:
        w = parse_word(text, 3)
        assert parse_word(format_word(w), 3) == w
    assert parse_word("g1 g1 g1", 2) == FreeWord(2, ((1, 3),))
    with pytest.raises(WordError):
        parse_word("h1", 3)
    with pytest.raises(WordError):
        parse_word("g5", 3)


def test_zero_power_index_is_checked():
    # reduction drops g9^0 and g9 g9', so the index is checked before it
    for build in (lambda: FreeWord.make(3, [(9, 0)]), lambda: FreeWord.gen(3, 9, 0),
                  lambda: FreeWord.make(3, [(9, 1), (9, -1)]),
                  lambda: parse_word("g9^0", 3)):
        with pytest.raises(WordError) as exc:
            build()
        assert str(exc.value) == "generator index 9 out of range 1..3"
    # a braid token of power 0 expands to no letter but must name one
    for text, msg in (("s9^0", "sigma index 9 out of range 2..3"),
                      ("s2 s1^0", "sigma index 1 out of range 2..3"),
                      ("e4^0", "epsilon index 4 out of range 1..3")):
        with pytest.raises(WordError) as exc:
            parse_braid(text, 3)
        assert str(exc.value) == msg


@given(pairs_st, pairs_st, pairs_st)
def test_free_group_axioms(a, b, c):
    u, v, w = (FreeWord.make(4, x) for x in (a, b, c))
    assert (u * v) * w == u * (v * w)
    assert u * u.inverse() == FreeWord.identity(4)
    assert u.inverse().inverse() == u
    assert (u * v).inverse() == v.inverse() * u.inverse()


def test_pow():
    g = FreeWord.gen(3, 2)
    assert g ** 4 == FreeWord(3, ((2, 4),))
    assert g ** -2 == FreeWord(3, ((2, -2),))
    assert g ** 0 == FreeWord.identity(3)


def repeated(w, n):
    out = FreeWord.identity(w.m)
    for _ in range(abs(n)):
        out = out * (w if n > 0 else w.inverse())
    return out


@pytest.mark.parametrize(
    "text", ["g1 g2 g1'", "g1^2 g2 g1'", "g1 g2 g1", "g2^-3", "1", "g1 g2 g3 g2' g1'"]
)
def test_pow_matches_repeated_products(text):
    w = parse_word(text, 3)
    for n in range(-9, 10):
        assert w ** n == repeated(w, n), n


@given(pairs_st)
def test_pow_random_words(pairs):
    w = FreeWord.make(4, pairs)
    for n in range(-9, 10):
        assert w ** n == repeated(w, n)


def test_pow_of_conjugate_is_closed_form():
    w = parse_word("g1 g2^3 g1'", 3)
    assert (w ** (10**12)).letters == ((1, 1), (2, 3 * 10**12), (1, -1))
    s2 = parse_braid("s2", 3)
    want = FreeWord.make(3, [(1, 1), (2, 10**12), (1, -1)])
    assert braid_act_word(s2, FreeWord.gen(3, 1, 10**12)) == want


def test_braid_word_validation():
    with pytest.raises(WordError):
        BraidWord(3, (("s", 1, 1),))  # sigma indices start at 2
    with pytest.raises(WordError):
        BraidWord(3, (("e", 4, 1),))
    with pytest.raises(WordError):
        BraidWord(3, (("s", 2, 2),))


def test_braid_letters_must_be_ints():
    # interned letters are shared by value, so 2.0 or True must not pass for 2 or 1
    for letter in (("s", 2.0, 1), ("e", True, 1), ("s", 2, True), ("s", 2, 1.0)):
        with pytest.raises(WordError):
            BraidWord(3, (letter,))


def test_braid_letters_are_interned():
    def fresh():  # new letter tuples on every call
        return tuple((k, i, e) for k, i, e in
                     [("s", 2, 1), ("e", 3, -1), ("s", 3, -1), ("s", 2, 1)])

    raw = fresh()
    u, v = BraidWord(3, fresh()), BraidWord(3, list(fresh()))
    assert all(a is b for a, b in zip(u.letters, v.letters))
    assert u.letters[0] is u.letters[3]
    assert u.letters == raw and hash(u.letters) == hash(raw)
    assert u == v == BraidWord(3, raw) and hash(u) == hash(BraidWord(3, raw))
    assert repr(u) == "BraidWord(3, \"s2 e3' s3' s2\")"
    assert (u * v).letters[4] is u.letters[0]


def test_parse_braid_expands_powers():
    b = parse_braid("s2^3 e1'", 3)
    assert b.letters == (("s", 2, 1),) * 3 + (("e", 1, -1),)
    assert format_braid(b) == "s2^3 e1'"
    assert parse_braid("", 3) == BraidWord.identity(3)
    assert parse_braid("s2^0", 3) == BraidWord.identity(3)
    # powers are expanded only up to a letter budget, then refused by token
    assert len(parse_braid(f"e1^-{MAX_BRAID_POWER}", 2).letters) == MAX_BRAID_POWER
    for tok in (f"s2^{MAX_BRAID_POWER + 1}", "s2^4611686018427387904",
                "e1^-10000000000000000000"):
        with pytest.raises(WordError) as exc:
            parse_braid(f"s2 {tok}", 3)
        assert str(exc.value) == (
            f"braid token {tok} expands to more than {MAX_BRAID_POWER} letters"
        )


def test_action_on_generators():
    m = 3
    s2 = parse_braid("s2", m)
    assert braid_act_word(s2, FreeWord.gen(m, 1)) == parse_word("g1 g2 g1'", m)
    assert braid_act_word(s2, FreeWord.gen(m, 2)) == parse_word("g1", m)
    assert braid_act_word(s2, FreeWord.gen(m, 3)) == parse_word("g3", m)
    s2i = parse_braid("s2'", m)
    assert braid_act_word(s2i, FreeWord.gen(m, 1)) == parse_word("g2", m)
    assert braid_act_word(s2i, FreeWord.gen(m, 2)) == parse_word("g2' g1 g2", m)
    # framing letters act trivially
    assert braid_act_word(parse_braid("e2^5", m), parse_word("g1 g2", m)) == parse_word("g1 g2", m)
    with pytest.raises(WordError, match="mixed ranks 3 and 2"):
        braid_act_word(s2, FreeWord.gen(2, 1))


def test_action_is_automorphism(rng):
    from conftest import rand_braid, rand_free

    for _ in range(50):
        b = rand_braid(rng, 4, 6)
        u, v = rand_free(rng, 4, 6), rand_free(rng, 4, 6)
        assert braid_act_word(b, u * v) == braid_act_word(b, u) * braid_act_word(b, v)
        assert braid_act_word(b, u.inverse()) == braid_act_word(b, u).inverse()


def test_action_composition_leftmost_last(rng):
    from conftest import rand_braid, rand_free

    for _ in range(50):
        b1 = rand_braid(rng, 4, 4)
        b2 = rand_braid(rng, 4, 4)
        w = rand_free(rng, 4, 5)
        assert braid_act_word(b1 * b2, w) == braid_act_word(b1, braid_act_word(b2, w))


def test_inverse_letter_action_cancels(rng):
    from conftest import rand_braid, rand_free

    for _ in range(30):
        b = rand_braid(rng, 4, 5)
        w = rand_free(rng, 4, 6)
        assert braid_act_word(b.inverse(), braid_act_word(b, w)) == w


BRAID_RELATIONS_M4 = [
    ("s2 s3 s2", "s3 s2 s3"),
    ("s3 s4 s3", "s4 s3 s4"),
    ("s2 s4", "s4 s2"),
    ("e1 s2", "s2 e2"),  # eps_{i-1} sigma_i = sigma_i eps_i
    ("e2 s2", "s2 e1"),
    ("e3 s2", "s2 e3"),
    ("e1 e2", "e2 e1"),
]


@pytest.mark.parametrize("lhs,rhs", BRAID_RELATIONS_M4)
def test_braid_relations_act_equally(lhs, rhs, rng):
    from conftest import rand_free

    u = parse_braid(lhs, 4)
    v = parse_braid(rhs, 4)
    for _ in range(20):
        w = rand_free(rng, 4, 6)
        assert braid_act_word(u, w) == braid_act_word(v, w)
