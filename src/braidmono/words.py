"""Free group words on g_1..g_m, braid words on s_2..s_m / e_1..e_m, and
the braid action on the free group.

Words are stored run-length: a tuple of (generator index, nonzero exponent)
pairs with adjacent indices distinct.  Braid letters compose like mapping
classes: in a braid word the LEFTMOST letter acts LAST.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction


class WordError(ValueError):
    pass


def _excerpt(r) -> str:
    """str(r), cut to a short prefix and its length when it is long."""
    r = str(r)
    return r if len(r) <= 32 else f"{r[:24]}... ({len(r)} chars)"


# --- numbers from outside: every one from argv or a file is read here ------

_NUMBER = re.compile(
    r"\s*[-+]?(?=\.?[0-9])([0-9]*)(?:/([0-9]+)|(?:\.([0-9]*))?(?:[eE][-+]?([0-9]+))?)\s*\Z"
)


def _digit_limit(text: str, mo: re.Match) -> None:
    """Refuse text, matched by _NUMBER as mo, past the interpreter's limit on
    decimal conversion: by a run of digits, or by an exponent that stands
    for more zeros (Fraction would compute 10**exponent)."""
    limit = sys.get_int_max_str_digits()
    if limit and (max(map(len, mo.groups(""))) > limit or int(mo[4] or 0) > limit):
        raise WordError(f"{_excerpt(repr(text))} has more than {limit} decimal digits")


def read_int(text: str) -> int:
    """The integer written in text as int() reads it, less "_" separators
    and non-ASCII digits: ASCII whitespace around, a sign, ASCII digits."""
    if text.isascii() and "_" not in text:
        try:
            return int(text)
        except ValueError:  # an integer past the digit limit, or no integer
            mo = _NUMBER.match(text)
            if mo and mo.lastindex == 1:  # digits alone: no p/q, point or exponent
                _digit_limit(text, mo)
    raise WordError(f"{_excerpt(repr(text))} is not an integer")


def read_rational(text: str):
    """The rational written in text, as read_int reads an integer or as p/q
    or a decimal with an exponent: an int when it is integral, else a
    Fraction."""
    if text.isascii() and "_" not in text:
        try:
            return int(text)
        except ValueError:  # p/q, a decimal, past the digit limit, or no number
            mo = _NUMBER.match(text)
        if mo:
            _digit_limit(text, mo)
            try:
                x = Fraction(text)
            except ZeroDivisionError:
                raise WordError("zero denominator") from None
            return x.numerator if x.denominator == 1 else x
    raise WordError("not a rational number")


def _check_strands(m: int) -> None:
    if m < 1:
        raise WordError(f"strand count {_excerpt(m)} is below 1")


def _reduce(pairs):
    out = []
    for i, e in pairs:
        if e == 0:
            continue
        if out and out[-1][0] == i:
            e += out[-1][1]
            out.pop()
            if e == 0:
                continue
        out.append((i, e))
    return tuple(out)


def _inv(s: tuple) -> tuple:
    """Inverse of a reduced run-length word."""
    return tuple((i, -e) for i, e in reversed(s))


@dataclass(frozen=True)
class FreeWord:
    """Reduced word in the free group on g_1..g_m."""

    m: int
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_strands(self.m)
        for i, e in self.letters:
            if not 1 <= i <= self.m:
                raise WordError(f"generator index {_excerpt(i)} out of range 1..{self.m}")
            if e == 0:
                raise WordError("zero exponent in reduced word")
        for (i, _), (j, _) in zip(self.letters, self.letters[1:]):
            if i == j:
                raise WordError("word not freely reduced")

    @staticmethod
    def identity(m: int) -> "FreeWord":
        return FreeWord(m, ())

    @staticmethod
    def gen(m: int, i: int, e: int = 1) -> "FreeWord":
        return FreeWord.make(m, ((i, e),))

    @staticmethod
    def make(m: int, pairs) -> "FreeWord":
        """Build from (index, exponent) pairs, checking each index, reducing freely."""
        pairs = tuple(pairs)
        for i, _ in pairs:
            if not 1 <= i <= m:
                raise WordError(f"generator index {_excerpt(i)} out of range 1..{m}")
        return FreeWord(m, _reduce(pairs))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.m != other.m:
            raise WordError(f"mixed ranks {self.m} and {other.m}")
        return FreeWord(self.m, _reduce(self.letters + other.letters))

    def inverse(self) -> "FreeWord":
        return FreeWord(self.m, _inv(self.letters))

    def __pow__(self, n: int) -> "FreeWord":
        """w^n = u c^n u^-1 with w = u c u^-1 and c cyclically reduced: one
        syllable g_i^k gives g_i^(kn), so that case costs O(|u|)."""
        if n < 0:
            return self.inverse() ** (-n)
        s, t = self.letters, 0
        while 2 * t + 1 < len(s) and s[t] == (s[-1 - t][0], -s[-1 - t][1]):
            t += 1
        u, c = s[:t], s[t : len(s) - t]
        if len(c) > 1 and c[0][0] == c[-1][0]:  # a^p X a^q = a^-q (a^(p+q) X) a^q
            (a, p), q = c[0], c[-1][1]
            u, c = u + ((a, -q),), ((a, p + q),) + c[1:-1]
        body = ((c[0][0], c[0][1] * n),) if len(c) == 1 else c * n
        return FreeWord.make(self.m, u + body + _inv(u))

    def is_identity(self) -> bool:
        return not self.letters

    def length(self) -> int:
        return sum(abs(e) for _, e in self.letters)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"FreeWord({self.m}, {format_word(self)!r})"


# --- grammars -------------------------------------------------------------
#
# Free-group words: whitespace-separated tokens  g<i>, g<i>', g<i>^<int>.
# Braid words: tokens s<k> (k >= 2) and e<i>, same suffixes; the leftmost
# token acts last.

_TOKEN = re.compile(r"^([a-z]+)([0-9]+)(?:(')|\^(-?[0-9]+))?$")


def _parse_tokens(text: str):
    if text.strip() == "1":  # the identity, as printed by the formatters
        return
    for tok in text.split():
        mo = _TOKEN.match(tok)
        if not mo:
            raise WordError(f"bad token {_excerpt(repr(tok))}")
        kind, idx, prime, pow_ = mo.groups()
        try:
            i, e = read_int(idx), -1 if prime else read_int(pow_) if pow_ is not None else 1
        except WordError as exc:  # _TOKEN matched, so only the digit limit can fail
            raise WordError(f"bad token {_excerpt(repr(tok))}: {exc}") from None
        yield kind, i, e


def parse_word(text: str, m: int) -> FreeWord:
    pairs = []
    for kind, i, e in _parse_tokens(text):
        if kind != "g":
            raise WordError(f"expected g<i> token, got {_excerpt(kind + str(i))}")
        pairs.append((i, e))
    return FreeWord.make(m, pairs)


def _fmt(letter: str, i: int, e: int) -> str:
    if e == 1:
        return f"{letter}{i}"
    if e == -1:
        return f"{letter}{i}'"
    return f"{letter}{i}^{e}"


def format_word(w: FreeWord) -> str:
    if not w.letters:
        return "1"
    return " ".join(_fmt("g", i, e) for i, e in w.letters)


_LETTERS: dict = {}  # canonical braid letters: 4m - 2 of them for up to m strands


@dataclass(frozen=True, slots=True)
class BraidWord:
    """Word in the framed braid group on m strands.

    Letters are (kind, index, exp) with kind 's' (index 2..m) or 'e'
    (index 1..m) and exp = ±1.
    """

    m: int
    letters: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        _check_strands(self.m)
        for kind, i, e in self.letters:
            if type(i) is not int:
                raise WordError(f"braid letter index {i!r} is not an int")
            if kind == "s":
                if not 2 <= i <= self.m:
                    raise WordError(f"sigma index {_excerpt(i)} out of range 2..{self.m}")
            elif kind == "e":
                if not 1 <= i <= self.m:
                    raise WordError(f"epsilon index {_excerpt(i)} out of range 1..{self.m}")
            else:
                raise WordError(f"unknown braid letter kind {kind!r}")
            if e not in (1, -1) or type(e) is not int:
                raise WordError("braid letters carry exponent ±1")
        # one shared object per distinct letter: a stored word then costs a
        # pointer per letter, not a tuple
        letters = self.letters
        object.__setattr__(self, "letters", tuple(map(_LETTERS.setdefault, letters, letters)))

    @staticmethod
    def identity(m: int) -> "BraidWord":
        return BraidWord(m, ())

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.m != other.m:
            raise WordError(f"mixed strand counts {self.m} and {other.m}")
        return BraidWord(self.m, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(
            self.m, tuple((k, i, -e) for k, i, e in reversed(self.letters))
        )

    def is_framed(self) -> bool:
        """True if the word contains an epsilon letter."""
        return any(k == "e" for k, _, _ in self.letters)

    def __str__(self) -> str:
        return format_braid(self)

    def __repr__(self) -> str:
        return f"BraidWord({self.m}, {format_braid(self)!r})"


MAX_BRAID_POWER = 2**20  # letters one braid token may expand to


def parse_braid(text: str, m: int) -> BraidWord:
    letters = []
    for kind, i, e in _parse_tokens(text):
        if kind not in ("s", "e"):
            raise WordError(f"expected s<k> or e<i> token, got {_excerpt(kind + str(i))}")
        if abs(e) > MAX_BRAID_POWER:
            raise WordError(
                f"braid token {_excerpt(_fmt(kind, i, e))} expands to more than "
                f"{MAX_BRAID_POWER} letters"
            )
        if e == 0:  # no letter, but the token must name a valid one
            BraidWord(m, ((kind, i, 1),))
            continue
        sign = 1 if e > 0 else -1
        letters.extend([(kind, i, sign)] * abs(e))
    return BraidWord(m, tuple(letters))


def format_braid(b: BraidWord) -> str:
    if not b.letters:
        return "1"
    # re-merge runs for readability
    runs: list[list] = []
    for k, i, e in b.letters:
        if runs and runs[-1][0] == k and runs[-1][1] == i:
            runs[-1][2] += e
        else:
            runs.append([k, i, e])
    return " ".join(_fmt(k, i, e) for k, i, e in runs if e != 0)


# --- braid action on the free group ---------------------------------------

def pl_letter(kind: str, k: int, e: int) -> tuple:
    """The path-change cocycle on one braid letter, as (c, r, i, x): its
    monomial matrix has g_i^x at row r of column c (0-based), 1 on the
    diagonal elsewhere, and for sigma letters also 1 at row c of column r."""
    if kind == "e":
        return k - 1, k - 1, k, e
    return (k - 2, k - 1, k - 1, -1) if e > 0 else (k - 1, k - 2, k, 1)


def _act_letter(img: list, kind: str, k: int, e: int) -> None:
    """Turn img[j] = u_*(g_(j+1)) into (u l)_*(g_(j+1)) = u_*(l_*(g_(j+1))) for
    the letter l = kind k^e.  sigma_k sends g_(k-1) -> g_(k-1) g_k g_(k-1)^-1
    and g_k -> g_(k-1); sigma_k^-1 sends g_(k-1) -> g_k and
    g_k -> g_k^-1 g_(k-1) g_k; e_i fixes every g_j."""
    if kind == "e":
        return
    a, b = img[k - 2], img[k - 1]
    if e > 0:
        img[k - 2], img[k - 1] = _reduce(a + b + _inv(a)), a
    else:
        img[k - 2], img[k - 1] = b, _reduce(_inv(b) + a + b)


def _images(b: BraidWord) -> list:
    """b_*(g_1), ..., b_*(g_m) as run-length words: _act_letter folded from the left."""
    img = [((j, 1),) for j in range(1, b.m + 1)]
    for kind, k, e in b.letters:
        _act_letter(img, kind, k, e)
    return img


def braid_act_word(b: BraidWord, w: FreeWord) -> FreeWord:
    """Apply the braid action: substitute b_*(g_i) for each g_i of w."""
    if b.m != w.m:
        raise WordError(f"mixed ranks {b.m} and {w.m}")
    img = [FreeWord(b.m, s) for s in _images(b)]
    pairs = [p for i, e in w.letters for p in (img[i - 1] ** e).letters]
    return FreeWord.make(b.m, pairs)
