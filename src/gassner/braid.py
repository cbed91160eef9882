"""Gassner matrices for pure braid generators and evaluation of braid words.

The pure braid group on n strands is generated by elements A(r,s) for
1 <= r < s <= n.  Its Gassner matrix is the n x n block matrix over
Z[t_1^{±1}, ..., t_n^{±1}] with

    (r,r) = 1 - t_r + t_r*t_s        (r,s) = t_r*(1 - t_r)
    (s,r) = 1 - t_s                  (s,s) = t_r
    (k,r) = (1 - t_k)*(1 - t_s)      (k,s) = (1 - t_k)*(t_r - 1)

for r < k < s, and identity elsewhere.  Every generator specializes to the
identity at t = 1, and its determinant is the unit monomial t_r*t_s.  A(r,s)
differs from the identity only in columns r and s, so its inverse does too
and has a closed form of the same shape; with u = t_r^-1 * t_s^-1,

    (r,r) = t_s^-1                   (r,s) = (t_r - 1)*t_s^-1
    (s,r) = (t_s - 1)*u              (s,s) = 1 - t_s^-1 + u
    (k,r) = (t_k - 1)*(1 - t_s)*u    (k,s) = (t_k - 1)*(t_r - 1)*u

for r < k < s.  Both tables are written once, over any ring, and only
ring operations act on t_i^{±1}.  Exact letters are the closed forms over
Z[t^{±1}]; truncated letters are the closed forms instantiated in the
series ring, with t_i = 1 + u_i and t_i^-1 = sum_k (-u_i)^k for
u_i = t_i - 1; the search's mod-p letters instantiate them at a point.
Truncation and evaluation at a point are ring homomorphisms, so each
equals the image of the exact letter.  Strand counts above MAX_STRANDS
are rejected where they enter, before any n x n matrix is built.

Words in the free subgroup generated by x_j = A(j,n) (the strands linking
the last one) are the main objects of study; ``parse_word`` accepts both
A(r,s) letters and the x_j aliases, plus bracket expressions expanded with
the commutator convention [a, b] = a b a^-1 b^-1.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache, partial
from math import comb

from .laurent import (
    _check_max_deg,
    LaurentPoly,
    SquareMatrix,
    TruncatedSeries,
    UsageError,
    identity_rows,
)

MAX_STRANDS = 64
MAX_SERIES_COEFFICIENTS = 10**6
MAX_EXACT_WORK = 10**6


def check_strand_count(n: int) -> None:
    """Reject a strand count outside 2..MAX_STRANDS (below 2, no generator)."""
    if n < 2:
        raise UsageError("strand count must be at least 2")
    if n > MAX_STRANDS:
        raise UsageError(f"strand count {n} exceeds the cap of {MAX_STRANDS}")


def check_series_budget(n: int, max_deg: int) -> None:
    """Reject an n x n series matrix at ``max_deg`` that may hold too much.

    Each entry has at most C(max_deg + n, n) terms, one per monomial of
    degree at most max_deg in n variables; the bound n^2 C(max_deg + n, n)
    must not exceed MAX_SERIES_COEFFICIENTS.  Checked before any series is
    built.
    """
    _check_max_deg(max_deg)
    size = n * n * comb(max_deg + n, n)
    if size > MAX_SERIES_COEFFICIENTS:
        raise UsageError(
            f"a {n}x{n} series matrix truncated at degree {max_deg} may hold "
            f"{size} coefficients, more than the budget of "
            f"{MAX_SERIES_COEFFICIENTS}"
        )


class BraidLetter(namedtuple("BraidLetter", "r s exponent")):
    """The letter A(r,s)^exponent, exponent +1 or -1."""

    __slots__ = ()

    def inverse(self) -> "BraidLetter":
        return BraidLetter(self.r, self.s, -self.exponent)


def _invert(letters: tuple[BraidLetter, ...]) -> tuple[BraidLetter, ...]:
    """The letters of the inverse word: reversed, each exponent negated."""
    return tuple(l.inverse() for l in reversed(letters))


def bracket_letters(
    a: tuple[BraidLetter, ...], b: tuple[BraidLetter, ...]
) -> tuple[BraidLetter, ...]:
    """The letters of [a, b] = a b a^-1 b^-1."""
    return a + b + _invert(a) + _invert(b)


def _check_letter(letter: BraidLetter, n: int) -> None:
    if not (1 <= letter.r < letter.s <= n):
        raise UsageError(
            f"letter A({letter.r},{letter.s}) violates 1 <= r < s <= {n}"
        )
    if letter.exponent not in (1, -1):
        raise UsageError(f"letter exponent must be ±1, got {letter.exponent}")


class BraidWord:
    """An immutable word in the pure braid generators on ``n`` strands.

    Every letter is checked against ``n`` when the word is built, also
    when a copy or pickle rebuilds it.
    """

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: tuple[BraidLetter, ...]):
        for letter in letters:
            _check_letter(letter, n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, value):
        raise AttributeError("BraidWord is immutable")

    def __delattr__(self, name):
        raise AttributeError("BraidWord is immutable")

    def __reduce__(self):
        return BraidWord, (self.n, self.letters)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.letters) == (other.n, other.letters)

    def __hash__(self) -> int:
        return hash((self.n, self.letters))

    def __repr__(self) -> str:
        return f"BraidWord(n={self.n!r}, letters={self.letters!r})"

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.n != other.n:
            raise UsageError(f"strand count mismatch: {self.n} vs {other.n}")
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.n, _invert(self.letters))

    def __pow__(self, k: int) -> "BraidWord":
        if k < 0:
            return self.inverse() ** (-k)
        return BraidWord(self.n, self.letters * k)

    @classmethod
    def identity(cls, n: int) -> "BraidWord":
        return cls(n, ())

    def __str__(self) -> str:
        if not self.letters:
            return "<empty>"
        parts = []
        for l in self.letters:
            atom = f"A({l.r},{l.s})"
            parts.append(atom if l.exponent == 1 else atom + "^-1")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Generator matrices


def _check_generator(n: int, r: int, s: int) -> None:
    check_strand_count(n)
    if not (1 <= r < s <= n):
        raise UsageError(f"generator indices must satisfy 1 <= r < s <= n, got ({r},{s})")


def _letter_rows(n: int, r: int, s: int, exponent: int, ring) -> list[list]:
    """Rows of the Gassner matrix of A(r,s)^exponent in any ring.

    Both tables of the module docstring, written once; any exponent but 1
    selects the inverse.  ``ring()`` returns the ring's one and t(i, e),
    which is t_i^e for e = ±1; it is called after the indices are checked,
    so a rejected letter builds nothing.  Only +, -, * follow, so a ring
    homomorphism out of Z[t^{±1}] maps the exact letter to this one.
    """
    _check_generator(n, r, s)
    one, t = ring()
    tr, ts = t(r, 1), t(s, 1)
    rows = identity_rows(n, one)
    if exponent == 1:
        rows[r - 1][r - 1] = one - tr + tr * ts
        rows[r - 1][s - 1] = tr * (one - tr)
        rows[s - 1][r - 1] = one - ts
        rows[s - 1][s - 1] = tr
        for k in range(r + 1, s):
            tk = t(k, 1)
            rows[k - 1][r - 1] = (one - tk) * (one - ts)
            rows[k - 1][s - 1] = (one - tk) * (tr - one)
        return rows
    ts_inv = t(s, -1)
    u = t(r, -1) * ts_inv
    rows[r - 1][r - 1] = ts_inv
    rows[r - 1][s - 1] = (tr - one) * ts_inv
    rows[s - 1][r - 1] = (ts - one) * u
    rows[s - 1][s - 1] = one - ts_inv + u
    for k in range(r + 1, s):
        tk = t(k, 1)
        rows[k - 1][r - 1] = (tk - one) * (one - ts) * u
        rows[k - 1][s - 1] = (tk - one) * (tr - one) * u
    return rows


def _laurent_ring(n: int):
    return LaurentPoly.one(n), partial(LaurentPoly.var, n)


def _series_ring(n: int, max_deg: int):
    return TruncatedSeries.one(n, max_deg), partial(TruncatedSeries.var, n, max_deg)


@lru_cache(maxsize=None)
def gassner_generator(n: int, r: int, s: int) -> SquareMatrix:
    """The Gassner matrix of A(r,s) on n strands."""
    return SquareMatrix(_letter_rows(n, r, s, 1, partial(_laurent_ring, n)))


@lru_cache(maxsize=None)
def gassner_generator_inverse(n: int, r: int, s: int) -> SquareMatrix:
    """Exact inverse of the Gassner matrix of A(r,s), in closed form."""
    return SquareMatrix(_letter_rows(n, r, s, -1, partial(_laurent_ring, n)))


@lru_cache(maxsize=None)
def _letter_matrix(n: int, r: int, s: int, exponent: int) -> SquareMatrix:
    if exponent == 1:
        return gassner_generator(n, r, s)
    return gassner_generator_inverse(n, r, s)


@lru_cache(maxsize=None)
def _letter_matrix_truncated(
    n: int, r: int, s: int, exponent: int, max_deg: int
) -> SquareMatrix:
    ring = partial(_series_ring, n, max_deg)
    return SquareMatrix(_letter_rows(n, r, s, exponent, ring))


# ---------------------------------------------------------------------------
# Word evaluation


def evaluate_exact(
    word: BraidWord, max_work: int | None = None
) -> SquareMatrix:
    """Ordered product of exact generator matrices; empty word gives I_n.

    Multiplying by a letter takes time in proportion to the terms of the
    running product, and that count can grow fast: the 56-letter word
    W1 W1 on 4 strands sums 5,181,824 terms in 13 s, while 400 letters x1
    on 2 strands sum 641,600 in 0.7 s.  So with ``max_work`` the product's
    terms are counted after each letter and summed over the letters, and
    ``UsageError`` is raised once the sum passes ``max_work`` (measured on
    a 2-core host at 2 to 7 strands, 1-3 µs per counted term).  Without it
    nothing is counted.
    """
    acc = SquareMatrix(identity_rows(word.n, LaurentPoly.one(word.n)))
    work = 0
    for done, l in enumerate(word.letters, 1):
        acc = acc * _letter_matrix(word.n, l.r, l.s, l.exponent)
        if max_work is not None:
            work += acc.term_count()
            if work > max_work:
                raise UsageError(
                    f"exact evaluation passed the work budget of {max_work} "
                    f"terms (the running product's terms, summed after each "
                    f"letter) at letter {done} of {len(word.letters)}; "
                    "--truncate D evaluates the word in the truncated ring"
                )
    return acc


def evaluate_truncated(word: BraidWord, max_deg: int) -> SquareMatrix:
    """Product of the word's letters in the truncated ring.

    Truncation is a ring homomorphism, so this is the exact evaluation
    truncated at ``max_deg``; it multiplies only closed-form truncated
    letters and never builds an exact matrix.
    """
    acc = SquareMatrix(identity_rows(word.n, TruncatedSeries.one(word.n, max_deg)))
    for l in word.letters:
        acc = acc * _letter_matrix_truncated(word.n, l.r, l.s, l.exponent, max_deg)
    return acc


# ---------------------------------------------------------------------------
# Word grammar
#
#   word := term*
#   term := atom ("^" signed-int)?
#   atom := "A(" int "," int ")" | "x" int | "[" word "," word "]"
#
# An int is ASCII digits and whitespace is ASCII whitespace: other Unicode
# digits and spaces are rejected with their position.
# Exponents other than ±1 expand by repetition; brackets expand with the
# convention [a, b] = a b a^-1 b^-1.  An expansion longer than
# MAX_WORD_LENGTH letters is rejected before it is built, so a large
# exponent or deeply nested brackets cannot exhaust memory.  Brackets
# nested deeper than MAX_BRACKET_DEPTH are rejected before the recursive
# descent can exhaust the stack; a bracket around letters at least doubles
# their count, so one letter inside 17 nested brackets already exceeds
# MAX_WORD_LENGTH.

MAX_WORD_LENGTH = 100_000
MAX_BRACKET_DEPTH = 64


class WordSyntaxError(UsageError):
    """Raised for malformed word text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"""
    (?P<letter>A\(\s*(?P<lr>\d+)\s*,\s*(?P<ls>\d+)\s*\))
  | (?P<alias>x(?P<xj>\d+))
  | (?P<open>\[)
  | (?P<close>\])
  | (?P<comma>,)
  | (?P<caret>\^(?P<exp>[+-]?\d+))
  | (?P<space>\s+)
    """,
    re.VERBOSE | re.ASCII,
)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise WordSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind == "letter":
            tokens.append(("letter", (int(m.group("lr")), int(m.group("ls"))), pos))
        elif kind == "alias":
            tokens.append(("alias", int(m.group("xj")), pos))
        elif kind == "caret":
            tokens.append(("caret", int(m.group("exp")), pos))
        elif kind != "space":
            tokens.append((kind, None, pos))
        pos = m.end()
    return tokens


class _Tokens:
    """Token cursor with the bracket depth cap, shared by ``parse_word``
    and ``hall.parse_commutator``."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.length = len(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][2] if self.i < len(self.tokens) else self.length

    def take(self) -> tuple[object, int]:
        _, value, pos = self.tokens[self.i]
        self.i += 1
        return value, pos

    def expect(self, kind: str, message: str) -> None:
        if self.peek() != kind:
            raise WordSyntaxError(message, self.pos())
        self.i += 1

    def bracket(self, parse):
        """Sides of "[" left "," right "]", each read by ``parse``, and the
        position of the "["."""
        pos = self.pos()
        if self.depth == MAX_BRACKET_DEPTH:
            raise WordSyntaxError(
                f"brackets nested deeper than {MAX_BRACKET_DEPTH}", pos
            )
        self.depth += 1
        self.i += 1
        left = parse()
        self.expect("comma", "expected ',' in bracket")
        right = parse()
        self.expect("close", "expected ']'")
        self.depth -= 1
        return left, right, pos

    def finish(self) -> None:
        if self.i != len(self.tokens):
            raise WordSyntaxError("trailing input", self.pos())


class _WordParser(_Tokens):
    def __init__(self, text: str, n: int):
        super().__init__(text)
        self.n = n

    def parse_word(self) -> tuple[BraidLetter, ...]:
        letters: list[BraidLetter] = []
        while self.peek() in ("letter", "alias", "open"):
            pos = self.pos()
            term = self.parse_term()
            _check_length(len(letters) + len(term), pos)
            letters.extend(term)
        return tuple(letters)

    def parse_term(self) -> tuple[BraidLetter, ...]:
        atom = self.parse_atom()
        if self.peek() == "caret":
            exp, pos = self.take()
            return _power(atom, exp, pos)
        return atom

    def parse_atom(self) -> tuple[BraidLetter, ...]:
        kind = self.peek()
        if kind == "letter":
            (r, s), pos = self.take()
            if not (1 <= r < s <= self.n):
                raise WordSyntaxError(
                    f"A({r},{s}) violates 1 <= r < s <= {self.n}", pos
                )
            return (BraidLetter(r, s, 1),)
        if kind == "alias":
            j, pos = self.take()
            if not (1 <= j <= self.n - 1):
                raise WordSyntaxError(
                    f"x{j} out of range 1..{self.n - 1}", pos
                )
            return (BraidLetter(j, self.n, 1),)
        if kind == "open":
            left, right, pos = self.bracket(self.parse_word)
            _check_length(2 * (len(left) + len(right)), pos)
            return bracket_letters(left, right)
        raise WordSyntaxError("expected a letter, alias, or bracket", self.pos())


def _check_length(length: int, pos: int) -> None:
    if length > MAX_WORD_LENGTH:
        raise WordSyntaxError(
            f"word expands to {length} letters, more than {MAX_WORD_LENGTH}", pos
        )


def _power(
    letters: tuple[BraidLetter, ...], k: int, pos: int
) -> tuple[BraidLetter, ...]:
    _check_length(len(letters) * abs(k), pos)
    if k < 0:
        return _invert(letters) * (-k)
    return letters * k


def parse_word(text: str, n: int) -> BraidWord:
    """Parse word text over n strands; see the module grammar."""
    check_strand_count(n)
    parser = _WordParser(text, n)
    letters = parser.parse_word()
    parser.finish()
    return BraidWord(n, letters)
