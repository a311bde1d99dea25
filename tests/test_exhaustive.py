"""Every framed braid word of length at most 4 on 3 strands, checked at
exact equality against the references.

Random draws need not meet the small inputs where most faults show; an
enumeration does.  The ten letters s2, s3, e1, e2, e3 and their inverses
give 1 + 10 + 100 + 1000 + 10000 = 11111 words.  Each test reads the
whole list:
  - braid_permutation and linking_numbers against the letter loops of
    test_braids;
  - reduce_reps, for all five reps, against the word path (abelian_reduce
    on magnus_cocycle or pl_cocycle), refusals and their messages included;
  - format_braid never '' and parse_braid(format_braid(b)) equal to b in
    the braid group.
"""

from itertools import product

import pytest

from braidmono import (
    BraidWord,
    WordError,
    braid_equal,
    braid_permutation,
    format_braid,
    linking_numbers,
    parse_braid,
    reduce_reps,
)
from test_braids import oracle_linking, oracle_permutation
from test_reduce_oracle import REPS, ref_reduce

M = 3
LETTERS = [(kind, i, e) for kind, lo in (("s", 2), ("e", 1))
           for i in range(lo, M + 1) for e in (1, -1)]
WORDS = [BraidWord(M, w) for n in range(5) for w in product(LETTERS, repeat=n)]
IDENTITY = tuple(range(1, M + 1))


def test_the_enumeration():
    assert len(LETTERS) == 10 and len(set(WORDS)) == len(WORDS) == 11111


def test_permutation_and_purity():
    for b in WORDS:
        images, pure = braid_permutation(b)
        assert images == oracle_permutation(b), str(b)
        assert pure is (images == IDENTITY), str(b)


def test_linking_numbers():
    for b in WORDS:
        if oracle_permutation(b) == IDENTITY:
            assert linking_numbers(b).lk == oracle_linking(b), str(b)
        else:
            with pytest.raises(WordError, match="^linking numbers require a pure braid$"):
                linking_numbers(b)


def expected_refusal(b, rep):
    """reduce_reps' message for b, or None: the reps other than tym_framed
    refuse an epsilon letter, then gassner and linking an impure word."""
    if rep != "tym_framed" and b.is_framed():
        return f"{rep} requires a braid word without epsilon letters"
    if rep in ("gassner", "linking") and oracle_permutation(b) != IDENTITY:
        return f"{rep} requires a pure braid word"
    return None


def test_reduce_reps():
    compared = 0
    for b in WORDS:
        for rep in REPS:
            message = expected_refusal(b, rep)
            if message is None:
                assert reduce_reps(b, rep) == ref_reduce(b, rep), (rep, str(b))
                compared += 1
            else:
                with pytest.raises(WordError) as exc:
                    reduce_reps(b, rep)
                assert str(exc.value) == message, (rep, str(b))
    assert compared == 12003


def test_format_then_parse():
    for b in WORDS:
        text = format_braid(b)
        assert text != "", str(b.letters)
        assert braid_equal(parse_braid(text, M), b), text
