"""Basic (Hall) commutators of the free group on m generators.

A commutator term is a binary bracket tree over the generators x_1..x_m.
The basic commutators of weight w, defined recursively by the admissibility
conditions

    (1) [c, d] with c, d basic and weight(c) + weight(d) = w,
    (2) c > d, and if c = [a, b] then d >= b,

form a basis of the weight-w quotient of the lower central series, with the
number of them given by the Witt formula.  The total order used in (2)
compares weight first and then the left and right components recursively,
with generators ordered x_m > ... > x_1; this reproduces the usual ordering
of weights one and two.  Bases are returned as ascending sequences (least
element first) and generation is deterministic.

Commutator text c := "x" int | "[" c "," c "]" is a sub-grammar of the
braid word grammar and is read from the same tokens under the same bracket
depth cap, with the same positioned errors.  A term on n strands expands
to a word as the word grammar expands brackets: x_j is the letter A(j, n)
and [a, b] is a b a^-1 b^-1 (``braid.bracket_letters``).
"""

from __future__ import annotations

from functools import lru_cache

from .braid import BraidLetter, BraidWord, WordSyntaxError, _Tokens, bracket_letters
from .laurent import UsageError

MAX_GENERATORS = 6
MAX_WEIGHT = 8
MAX_BASIS_SIZE = 3000


class CommutatorTerm:
    """A leaf generator x_j or a bracket of two commutator terms.

    Terms are immutable.  The hash of (gen, left, right) is computed once,
    from the children's cached hashes, so a cache keyed by a term does not
    walk its tree, and equality compares identity, then that hash, before
    the fields.  A copy or pickle rebuilds the term from its three fields
    and so recomputes the hash in the process that loads it.
    """

    __slots__ = ("gen", "left", "right", "_hash")

    def __init__(
        self,
        gen: int | None = None,
        left: "CommutatorTerm | None" = None,
        right: "CommutatorTerm | None" = None,
    ):
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_hash", hash((gen, left, right)))

    def __setattr__(self, name, value):
        raise AttributeError("CommutatorTerm is immutable")

    def __delattr__(self, name):
        raise AttributeError("CommutatorTerm is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._hash != other._hash:
            return False
        return (self.gen, self.left, self.right) == (other.gen, other.left, other.right)

    def __reduce__(self):
        return CommutatorTerm, (self.gen, self.left, self.right)

    @classmethod
    def leaf(cls, j: int) -> "CommutatorTerm":
        if j < 1:
            raise UsageError(f"generator index must be positive, got {j}")
        return cls(gen=j)

    @classmethod
    def bracket(cls, left: "CommutatorTerm", right: "CommutatorTerm") -> "CommutatorTerm":
        return cls(left=left, right=right)

    @property
    def is_leaf(self) -> bool:
        return self.gen is not None

    @property
    def weight(self) -> int:
        return weight(self)

    def __lt__(self, other: "CommutatorTerm") -> bool:
        return sort_key(self) < sort_key(other)

    def __le__(self, other: "CommutatorTerm") -> bool:
        return sort_key(self) <= sort_key(other)

    def __gt__(self, other: "CommutatorTerm") -> bool:
        return sort_key(self) > sort_key(other)

    def __ge__(self, other: "CommutatorTerm") -> bool:
        return sort_key(self) >= sort_key(other)

    def __str__(self) -> str:
        if self.is_leaf:
            return f"x{self.gen}"
        return f"[{self.left},{self.right}]"

    def __repr__(self) -> str:
        return f"CommutatorTerm({self})"


@lru_cache(maxsize=None)
def weight(term: CommutatorTerm) -> int:
    if term.is_leaf:
        return 1
    return weight(term.left) + weight(term.right)


@lru_cache(maxsize=None)
def sort_key(term: CommutatorTerm):
    """Recursive comparison key: weight, then left key, then right key."""
    if term.is_leaf:
        return (1, term.gen)
    return (weight(term), sort_key(term.left), sort_key(term.right))


def leaf_sequence(term: CommutatorTerm) -> tuple[int, ...]:
    """Generator indices in left-to-right order; identifies a basic term."""
    if term.is_leaf:
        return (term.gen,)
    return leaf_sequence(term.left) + leaf_sequence(term.right)


def is_left_normed(term: CommutatorTerm) -> bool:
    """True for [...[[x_a, x_b], x_c], ..., x_z] shapes (including leaves)."""
    if term.is_leaf:
        return True
    return term.right.is_leaf and is_left_normed(term.left)


def _check_caps(m: int, w: int) -> None:
    if m < 1 or w < 1:
        raise UsageError("generator count and weight must be positive")
    if m > MAX_GENERATORS or w > MAX_WEIGHT:
        raise UsageError(
            f"basis generation is capped at m <= {MAX_GENERATORS}, "
            f"w <= {MAX_WEIGHT} (got m={m}, w={w})"
        )


@lru_cache(maxsize=None)
def _basic_commutators(m: int, w: int) -> tuple[CommutatorTerm, ...]:
    if w == 1:
        return tuple(CommutatorTerm.leaf(j) for j in range(1, m + 1))
    found = []
    for left_weight in range((w + 1) // 2, w):
        for left in _basic_commutators(m, left_weight):
            for right in _basic_commutators(m, w - left_weight):
                if not left > right:
                    continue
                if not left.is_leaf and not right >= left.right:
                    continue
                found.append(CommutatorTerm.bracket(left, right))
    found.sort(key=sort_key)
    return tuple(found)


def basic_commutators(m: int, w: int) -> tuple[CommutatorTerm, ...]:
    """All basic commutators of weight w on m generators, ascending."""
    _check_caps(m, w)
    return _basic_commutators(m, w)


def witt_rank(m: int, w: int) -> int:
    """Rank of the weight-w lower-central quotient of a free group of rank m.

    Moebius sum (1/w) * sum over divisors d of w of mu(d) * m^(w/d); used as
    an independent count oracle for the generated bases.
    """
    if m < 1 or w < 1:
        raise UsageError("generator count and weight must be positive")
    total = sum(_mobius(d) * m ** (w // d) for d in _divisors(w))
    assert total % w == 0
    return total // w


def check_basis_size(m: int, w: int) -> None:
    """Reject a weight-w basis on m generators of more than MAX_BASIS_SIZE.

    The size is the Witt number, counted before any commutator is built.
    """
    _check_caps(m, w)
    size = witt_rank(m, w)
    if size > MAX_BASIS_SIZE:
        raise UsageError(
            f"the weight-{w} basis on {m} generators has {size} basic "
            f"commutators, more than the budget of {MAX_BASIS_SIZE}"
        )


def _divisors(n: int) -> list[int]:
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    count = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            count += 1
        else:
            d += 1
    if n > 1:
        count += 1
    return -1 if count % 2 else 1


# ---------------------------------------------------------------------------
# Commutator words


def check_leaves(term: CommutatorTerm, n: int) -> None:
    """Reject a leaf x_j with j > n - 1, the free rank on n strands."""
    for j in leaf_sequence(term):
        if j > n - 1:
            raise UsageError(f"leaf x{j} exceeds the free rank {n - 1}")


def commutator_to_word(term: CommutatorTerm, n: int) -> BraidWord:
    """Expand a commutator tree into a word over n strands.

    A leaf x_j becomes the letter A(j, n); a bracket [a, b] expands to
    a b a^-1 b^-1.  Every leaf index must be at most n-1.
    """
    check_leaves(term, n)
    return BraidWord(n, _expand(term, n))


@lru_cache(maxsize=None)
def _expand(term: CommutatorTerm, n: int) -> tuple[BraidLetter, ...]:
    if term.is_leaf:
        return (BraidLetter(term.gen, n, 1),)
    return bracket_letters(_expand(term.left, n), _expand(term.right, n))


# ---------------------------------------------------------------------------
# Commutator grammar:  c := "x" int | "[" c "," c "]"


def parse_commutator(text: str) -> CommutatorTerm:
    tokens = _Tokens(text)
    term = _parse_commutator(tokens)
    tokens.finish()
    return term


def _parse_commutator(tokens: _Tokens) -> CommutatorTerm:
    kind = tokens.peek()
    if kind == "alias":
        j, pos = tokens.take()
        if j < 1:
            raise WordSyntaxError(f"generator index must be positive, got {j}", pos)
        return CommutatorTerm.leaf(j)
    if kind == "open":
        left, right, _ = tokens.bracket(lambda: _parse_commutator(tokens))
        return CommutatorTerm.bracket(left, right)
    raise WordSyntaxError("expected a generator x<j> or a bracket", tokens.pos())
