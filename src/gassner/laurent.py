"""Exact sparse arithmetic in two rings of multivariate polynomials.

* ``LaurentPoly`` is an element of Z[t_1^{±1}, ..., t_n^{±1}] with every
  exponent in -2^30..2^30-1 (``_MIN_EXP.._MAX_EXP``); a value outside that
  range raises ``UsageError`` where it is constructed or produced by a
  product.
* ``TruncatedSeries`` is a polynomial in the shifted variables u_i = t_i - 1
  with every term of total degree greater than ``max_deg`` discarded.  This
  is the ring of residues modulo the (max_deg+1)-th power of the ideal
  generated by all the u_i.  No Laurent polynomial is converted into it:
  ``TruncatedSeries.var`` gives t_i = 1 + u_i and t_i^-1 = sum_k (-u_i)^k,
  and ``braid`` writes its letters in closed form over those.

Values of both rings and square matrices over either have one layout
(``PackedValue``): ``size`` (1 for a value), ``n_vars``, ``max_deg`` (None
over the Laurent ring) and one map from an integer key to a nonzero
coefficient.  The term of packed monomial key m at 0-based row i and
column j has key ``m << 2b | i << b | j`` with ``b = (size - 1).bit_length()``,
so a value's key is its monomial key.  In both rings the key of a product
of monomials is the sum of their keys and the constant monomial has key 0;
so a term of a's column k plus a term of b's row k, less k << b | k, is
the key of their product's term, and each operation has one body over the
map, for values and matrices alike.  A product differs by ring only in
the series cutoff (shifted up by 2b) or the Laurent range check.  A
matrix's grid of entries, ``rows``, is decoded from the map on each read.
The public constructors validate their input; operations check their
operands once and build the result unchecked (``_raw``).
No runtime path inverts a series matrix (generator inverses have a closed
form in every ring; see ``braid``); the geometric-series
``series_matrix_inverse`` stays here because the benchmark's tracer names it.

All values are immutable after construction and every operation is a pure
function, so instances may be shared freely between threads or processes;
copies and pickles rebuild each value without passing through its guard.
So a sum or difference with a zero operand returns the other operand
itself, and the builder sets slots through member descriptors captured
once.
Coefficients are Python ints throughout: word evaluation multiplies many
matrices and coefficient growth is unbounded, so fixed-width arithmetic
would silently corrupt downstream rank computations.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from types import MappingProxyType


class UsageError(ValueError):
    """An argument violates an interface precondition (caller bug)."""


class DomainError(ArithmeticError):
    """The input lies outside the mathematical domain of the operation."""


# ---------------------------------------------------------------------------
# Packed monomial keys
#
# A series key packs the exponent vector into a single integer, one byte per
# variable, with the total degree stored above the exponent bytes.  Keys of
# two terms then add componentwise under plain integer addition, and the
# truncation test "total degree > max_deg" is one comparison against
# (max_deg+1) << (8*n_vars).  The comparison is checked before the sum is
# used, so byte carries inside discarded keys are harmless; kept keys have
# total degree <= max_deg <= 255 and therefore never carry.

_MAX_TRUNC_DEG = 255


def _pack(exps: tuple[int, ...], n_vars: int) -> int:
    key = 0
    deg = 0
    for i, e in enumerate(exps):
        if e < 0:
            raise UsageError(f"negative exponent {e} in series term {exps}")
        key |= e << (8 * i)
        deg += e
    return key | (deg << (8 * n_vars))


def _check_max_deg(max_deg: int) -> None:
    if not 0 <= max_deg <= _MAX_TRUNC_DEG:
        raise UsageError(f"truncation degree must be in 0..{_MAX_TRUNC_DEG}")


def _unpack(key: int, n_vars: int) -> tuple[int, ...]:
    return tuple((key >> (8 * i)) & 0xFF for i in range(n_vars))


# A Laurent monomial key packs each exponent e_i as a signed _FIELD-bit
# field, key = sum of e_i * 2^(_FIELD*i); as for series keys, keys add under
# a product and the constant monomial has key 0.  With exponents in
# _MIN_EXP.._MAX_EXP, adding the bias -_MIN_EXP to each field leaves its top
# (guard) bit clear.  A sum of two keys is exact and distinct per exponent
# vector, and leaves the range just when the biased sum sets a guard bit,
# which ``_check_laurent_keys`` tests: no key wraps unseen.

_FIELD = 32
_MIN_EXP, _MAX_EXP = -(1 << (_FIELD - 2)), (1 << (_FIELD - 2)) - 1


def _pack_laurent(exps: tuple[int, ...]) -> int:
    key = 0
    for i, e in enumerate(exps):
        if not _MIN_EXP <= e <= _MAX_EXP:
            raise UsageError(
                f"exponent {e} in Laurent term {exps} is outside the packed "
                f"range {_MIN_EXP}..{_MAX_EXP}"
            )
        key += e << (_FIELD * i)
    return key


def _laurent_bias(n_vars: int) -> int:
    return sum(-_MIN_EXP << (_FIELD * i) for i in range(n_vars))


def _unpack_laurent(key: int, n_vars: int) -> tuple[int, ...]:
    key += _laurent_bias(n_vars)
    return tuple((key >> _FIELD * i) % (1 << _FIELD) + _MIN_EXP for i in range(n_vars))


def _check_laurent_keys(keys: Iterable[int], n_vars: int) -> None:
    # every key of a product of two Laurent maps
    bias = _laurent_bias(n_vars)
    guard = bias << 1
    if any((key + bias) & guard for key in keys):
        raise UsageError(
            "Laurent product has an exponent outside the packed "
            f"range {_MIN_EXP}..{_MAX_EXP}"
        )


def _cutoff(n_vars: int, max_deg: int | None) -> int:
    # the least key a product drops: the series truncation, or past the sum
    # of any two Laurent keys, so that nothing is cut
    if max_deg is None:
        return 1 << (_FIELD * n_vars)
    return (max_deg + 1) << (8 * n_vars)


def _packed(n_vars: int, max_deg: int | None, terms: dict | None) -> dict[int, int]:
    # a constructor's terms (exponent tuple -> int), validated, under packed keys
    if n_vars < 0:
        raise UsageError("variable count must be nonnegative")
    packed: dict[int, int] = {}
    for exps, coeff in (terms or {}).items():
        exps = tuple(exps)
        if len(exps) != n_vars:
            raise UsageError(
                f"exponent vector {exps} has length {len(exps)}, expected {n_vars}"
            )
        if max_deg is None:
            key = _pack_laurent(exps)
        elif sum(exps) > max_deg:
            raise UsageError(f"term {exps} exceeds truncation degree {max_deg}")
        else:
            key = _pack(exps, n_vars)
        if type(coeff) is not int:
            raise UsageError(
                f"coefficient {coeff!r} of term {exps} is a "
                f"{type(coeff).__name__}, not an int"
            )
        if coeff:
            packed[key] = coeff
    return packed


def _merged(terms: dict, other: dict, sign: int) -> dict:
    """A new map: ``terms`` plus ``sign`` times ``other``, zeros dropped."""
    out = dict(terms)
    for key, coeff in other.items():
        new = out.get(key, 0) + sign * coeff
        if new:
            out[key] = new
        else:
            del out[key]
    return out


# ---------------------------------------------------------------------------
# Values and matrices


def _index_bits(size: int) -> int:
    # b, the width of the row and of the column field of a packed key
    return (size - 1).bit_length()


class PackedValue:
    """A value of either ring, or a square matrix over one, as one term map.

    ``_terms`` maps ``m << 2b | i << b | j`` to a nonzero int, for the term
    of packed monomial key m at 0-based row i and column j, with
    ``b = _index_bits(size)``; a ring value has size 1, so b = 0 and its
    key is the monomial key.  ``max_deg`` is the truncation degree, None
    over the Laurent ring.  This class holds the one body of each ring
    operation for ``LaurentPoly``, ``TruncatedSeries`` and ``SquareMatrix``
    and the one unchecked builder, ``_raw``.  Operands must agree in class,
    ``size``, ``n_vars`` and ``max_deg``.
    """

    __slots__ = ("size", "n_vars", "max_deg", "_terms")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return self._raw, (self.size, self.n_vars, self.max_deg, self._terms)

    @classmethod
    def _raw(cls, size: int, n_vars: int, max_deg: int | None, terms: dict):
        # Internal fast path: ``terms`` maps valid packed keys to nonzero
        # coefficients.
        return _fill(_new(cls), size, n_vars, max_deg, terms)

    def _check_compat(self, other: "PackedValue") -> None:
        if type(other) is not type(self):
            raise UsageError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.size != other.size:
            raise UsageError(f"size mismatch: {self.size} vs {other.size}")
        if self.n_vars != other.n_vars or self.max_deg != other.max_deg:
            raise UsageError(
                f"mismatched rings: (n_vars={self.n_vars}, max_deg={self.max_deg}) "
                f"vs (n_vars={other.n_vars}, max_deg={other.max_deg})"
            )

    def __add__(self, other: "PackedValue") -> "PackedValue":
        self._check_compat(other)
        # values are immutable, so a zero operand returns the other one
        if not other._terms:
            return self
        if not self._terms:
            return other
        return self._raw(
            self.size, self.n_vars, self.max_deg, _merged(self._terms, other._terms, 1)
        )

    def __sub__(self, other: "PackedValue") -> "PackedValue":
        self._check_compat(other)
        if not other._terms:
            return self
        return self._raw(
            self.size, self.n_vars, self.max_deg, _merged(self._terms, other._terms, -1)
        )

    def __neg__(self) -> "PackedValue":
        return self._raw(
            self.size, self.n_vars, self.max_deg, {k: -c for k, c in self._terms.items()}
        )

    def __mul__(self, other: "PackedValue") -> "PackedValue":
        self._check_compat(other)
        size, n_vars, max_deg = self.size, self.n_vars, self.max_deg
        bits = _index_bits(size)
        mask = (1 << bits) - 1
        a, b = self._terms, other._terms
        if size == 1 and len(a) > len(b):
            a, b = b, a  # values commute: the shorter map outside
        # b's terms by row k in increasing key order: a term of a at key k1
        # in column k, less k << b | k, plus one of those is the key of
        # their product's term, and stops at the first at or past the
        # cutoff less that
        by_row: list[list[tuple[int, int]]] = [[] for _ in range(size)]
        for item in sorted(b.items()):
            by_row[item[0] >> bits & mask].append(item)
        step = (1 << bits) + 1
        cutoff = _cutoff(n_vars, max_deg) << 2 * bits
        out: dict[int, int] = {}
        get = out.get
        for k1, v1 in a.items():
            k = k1 & mask
            k1 -= k * step
            limit = cutoff - k1
            for k2, v2 in by_row[k]:
                if k2 >= limit:
                    break
                key = k1 + k2
                new = get(key, 0) + v1 * v2
                if new:
                    out[key] = new
                else:
                    del out[key]
        if max_deg is None:
            _check_laurent_keys((key >> 2 * bits for key in out), n_vars)
        return self._raw(size, n_vars, max_deg, out)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.size == other.size
            and self.n_vars == other.n_vars
            and self.max_deg == other.max_deg
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash(
            (self.size, self.n_vars, self.max_deg, frozenset(self._terms.items()))
        )

    def is_zero(self) -> bool:
        return not self._terms


# The builder sets slots through member descriptors captured once: this
# bypasses the immutability guard without the by-name lookup of
# ``object.__setattr__``.
_new = object.__new__
_set_size = PackedValue.size.__set__
_set_vars = PackedValue.n_vars.__set__
_set_deg = PackedValue.max_deg.__set__
_set_terms = PackedValue._terms.__set__


def _fill(value: PackedValue, size, n_vars, max_deg, terms) -> PackedValue:
    _set_size(value, size)
    _set_vars(value, n_vars)
    _set_deg(value, max_deg)
    _set_terms(value, terms)
    return value


class RingElement(PackedValue):
    """A value of either ring, size 1; its keys are packed monomial keys.

    Display and serialization list the terms in sorted exponent order, so
    equal values have identical external forms.
    """

    __slots__ = ()

    def _exponent_terms(self) -> dict[tuple[int, ...], int]:
        n = self.n_vars
        unpack = _unpack_laurent if self.max_deg is None else _unpack
        return {unpack(k, n): c for k, c in self._terms.items()}

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self._exponent_terms().items())

    def to_dict(self) -> dict:
        out: dict = {"n_vars": self.n_vars}
        if self.max_deg is not None:
            out["max_deg"] = self.max_deg
        out["terms"] = [{"e": list(e), "c": str(c)} for e, c in self.sorted_terms()]
        return out

    def __str__(self) -> str:
        var = "t{}" if self.max_deg is None else "(t{}-1)"
        chunks: list[str] = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                var.format(i + 1) + (f"^{e}" if e != 1 else "")
                for i, e in enumerate(exps)
                if e
            )
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks) or "0"


class LaurentPoly(RingElement):
    """Sparse Laurent polynomial with integer coefficients.

    ``terms`` maps exponent tuples of length ``n_vars`` to nonzero integers;
    each exponent must lie in ``_MIN_EXP.._MAX_EXP``.

    >>> t1, one = LaurentPoly.var(2, 1), LaurentPoly.one(2)
    >>> print((t1 - one) * (t1 + one))
    -1 + t1^2
    """

    __slots__ = ()
    # perfbench/tracer.py patches each class's own __mul__ (and the series'
    # __add__), so each class binds the shared bodies by name
    __mul__ = PackedValue.__mul__

    def __init__(self, n_vars: int, terms: dict[tuple[int, ...], int] | None = None):
        _fill(self, 1, n_vars, None, _packed(n_vars, None, terms))

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        """The terms keyed by exponent tuple, a read-only decoded view."""
        return MappingProxyType(self._exponent_terms())

    @classmethod
    def zero(cls, n_vars: int) -> "LaurentPoly":
        return cls(n_vars, {})

    @classmethod
    def one(cls, n_vars: int) -> "LaurentPoly":
        return cls(n_vars, {(0,) * n_vars: 1})

    @classmethod
    def var(cls, n_vars: int, i: int, power: int = 1) -> "LaurentPoly":
        """The monomial t_i^power; ``i`` is 1-based."""
        if not 1 <= i <= n_vars:
            raise UsageError(f"variable index {i} out of range 1..{n_vars}")
        exps = [0] * n_vars
        exps[i - 1] = power
        return cls(n_vars, {tuple(exps): 1})

    def __repr__(self) -> str:
        return f"LaurentPoly({self.n_vars}, {self})"


class TruncatedSeries(RingElement):
    """Polynomial in u_i = t_i - 1 truncated past total degree ``max_deg``.

    Arithmetic is exact followed by truncation, i.e. computation in the
    quotient by the (max_deg+1)-th power of the ideal (u_1, ..., u_n).
    """

    __slots__ = ()
    __add__ = PackedValue.__add__
    __mul__ = PackedValue.__mul__

    def __init__(
        self,
        n_vars: int,
        max_deg: int,
        terms: dict[tuple[int, ...], int] | None = None,
    ):
        _check_max_deg(max_deg)
        _fill(self, 1, n_vars, max_deg, _packed(n_vars, max_deg, terms))

    @classmethod
    def zero(cls, n_vars: int, max_deg: int) -> "TruncatedSeries":
        return cls(n_vars, max_deg, {})

    @classmethod
    def one(cls, n_vars: int, max_deg: int) -> "TruncatedSeries":
        return cls(n_vars, max_deg, {(0,) * n_vars: 1})

    @classmethod
    def var(cls, n_vars: int, max_deg: int, i: int, power: int) -> "TruncatedSeries":
        """t_i^power for power = ±1; ``i`` is 1-based.

        t_i = 1 + u_i, and t_i^-1 = sum_k (-u_i)^k is a geometric series
        that the truncation makes finite.
        """
        if power not in (1, -1):
            raise UsageError(f"series variable power must be ±1, got {power}")
        head, tail = (0,) * (i - 1), (0,) * (n_vars - i)
        top = max_deg if power == -1 else min(1, max_deg)
        return cls(
            n_vars, max_deg, {head + (k,) + tail: power**k for k in range(top + 1)}
        )

    def terms(self) -> dict[tuple[int, ...], int]:
        return self._exponent_terms()

    def constant_term(self) -> int:
        return self._terms.get(0, 0)

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.n_vars}, D={self.max_deg}, {self})"


def identity_rows(size: int, one: RingElement | int) -> list[list]:
    """The identity grid over the ring of ``one``, as lists callers may fill.

    ``one`` may also be a plain int, for letters specialized mod p.
    """
    zero = one - one
    return [[one if i == j else zero for j in range(size)] for i in range(size)]


class SquareMatrix(PackedValue):
    """Immutable n x n matrix whose entries all live in one ring.

    Entries are either all ``LaurentPoly`` over a common variable count or
    all ``TruncatedSeries`` over a common variable count and truncation
    degree; the constructor enforces this.  ``n_vars`` is the entries'
    variable count and ``max_deg`` their truncation degree, None over the
    Laurent ring.  The matrix is stored as a value is, in one term map
    whose keys also carry the row and column (see ``PackedValue``), and
    its arithmetic is the values' own; ``rows``, a tuple of tuples, is
    decoded from that map on each read.
    """

    __slots__ = ()
    __mul__ = PackedValue.__mul__

    def __init__(self, rows: Iterable[Iterable[RingElement]]):
        try:
            grid = tuple(tuple(row) for row in rows)
        except TypeError as exc:
            raise UsageError(
                f"matrix rows must be iterables of entries: {exc}"
            ) from None
        n = len(grid)
        if any(len(row) != n for row in grid):
            raise UsageError("matrix rows must all have length equal to the size")
        if n == 0:
            raise UsageError("empty matrix")
        sample = grid[0][0]
        if not isinstance(sample, RingElement):
            raise UsageError(
                "matrix entries must be LaurentPoly or TruncatedSeries, "
                f"not {type(sample).__name__}"
            )
        for row in grid:
            for e in row:
                if type(e) is not type(sample):
                    raise UsageError("mixed entry types in matrix")
                sample._check_compat(e)
        bits = _index_bits(n)
        terms = {
            key << 2 * bits | i << bits | j: coeff
            for i, row in enumerate(grid)
            for j, e in enumerate(row)
            for key, coeff in e._terms.items()
        }
        _fill(self, n, sample.n_vars, sample.max_deg, terms)

    @property
    def rows(self) -> tuple[tuple[RingElement, ...], ...]:
        """The grid of entries, decoded from the term map on each read."""
        size, bits = self.size, _index_bits(self.size)
        mask = (1 << bits) - 1
        cells = [[{} for _ in range(size)] for _ in range(size)]
        for key, coeff in self._terms.items():
            cells[key >> bits & mask][key & mask][key >> 2 * bits] = coeff
        entry = LaurentPoly if self.max_deg is None else TruncatedSeries
        return tuple(
            tuple(entry._raw(1, self.n_vars, self.max_deg, terms) for terms in row)
            for row in cells
        )

    @classmethod
    def identity_series(cls, size: int, n_vars: int, max_deg: int) -> "SquareMatrix":
        return cls(identity_rows(size, TruncatedSeries.one(n_vars, max_deg)))

    def is_identity(self) -> bool:
        terms, bits = self._terms, _index_bits(self.size)
        return len(terms) == self.size and all(
            terms.get(i << bits | i) == 1 for i in range(self.size)
        )

    def term_count(self) -> int:
        """The number of nonzero terms over all entries."""
        return len(self._terms)

    def entry(self, i: int, j: int) -> RingElement:
        """1-based entry access."""
        return self.rows[i - 1][j - 1]

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "ring": "laurent" if self.max_deg is None else "series",
            "entries": [[e.to_dict() for e in row] for row in self.rows],
        }

    def __str__(self) -> str:
        cells = [[str(e) for e in row] for row in self.rows]
        widths = [
            max(len(cells[i][j]) for i in range(self.size))
            for j in range(self.size)
        ]
        return "\n".join(
            "[ " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " ]"
            for row in cells
        )

    def __repr__(self) -> str:
        return f"SquareMatrix(size={self.size})"


# ---------------------------------------------------------------------------
# Matrix-level operations


def series_matrix_inverse(m: SquareMatrix) -> SquareMatrix:
    """Inverse of a truncated-series matrix congruent to the identity.

    With N = I - M nilpotent modulo the truncation, the inverse is the
    finite geometric series I + N + N^2 + ...; the loop stops as soon as a
    power truncates to zero.
    """
    if m.max_deg is None:
        raise UsageError("series_matrix_inverse expects a series matrix")
    for i, row in enumerate(m.rows):
        for j, e in enumerate(row):
            expected = 1 if i == j else 0
            if e.constant_term() != expected:
                raise DomainError(
                    "matrix is not congruent to the identity: entry "
                    f"({i + 1},{j + 1}) has constant term {e.constant_term()}"
                )
    identity = SquareMatrix.identity_series(m.size, m.n_vars, m.max_deg)
    n_mat = identity - m
    acc = identity
    power = identity
    for _ in range(m.max_deg):
        power = power * n_mat
        if power.is_zero():
            break
        acc = acc + power
    return acc
