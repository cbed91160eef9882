"""Exact sparse arithmetic in two rings of multivariate polynomials.

* ``LaurentPoly`` is an element of Z[t_1^{±1}, ..., t_n^{±1}]: a sparse map
  from exponent vectors (negative entries allowed) to arbitrary-precision
  integer coefficients.
* ``TruncatedSeries`` is a polynomial in the shifted variables u_i = t_i - 1
  with every term of total degree greater than ``max_deg`` discarded.  This
  is the ring of residues modulo the (max_deg+1)-th power of the ideal
  generated by all the u_i.  No Laurent polynomial is converted into it:
  ``TruncatedSeries.var`` gives t_i = 1 + u_i and t_i^-1 = sum_k (-u_i)^k,
  and ``braid`` writes its letters in closed form over those.

``SquareMatrix`` holds an n x n grid over either ring and provides the matrix
operations the representation needs: products, sums and entrywise maps.
No runtime path inverts a series matrix (generator inverses have a closed
form in every ring; see ``braid``); the geometric-series
``series_matrix_inverse`` stays here because the benchmark's tracer names it.

All values are immutable after construction and every operation is a pure
function, so instances may be shared freely between threads or processes;
copies and pickles rebuild each value without passing through its guard.
Coefficients are Python ints throughout: word evaluation multiplies many
matrices and coefficient growth is unbounded, so fixed-width arithmetic
would silently corrupt downstream rank computations.
"""

from __future__ import annotations

from typing import Callable, Iterable, Union


class UsageError(ValueError):
    """An argument violates an interface precondition (caller bug)."""


class DomainError(ArithmeticError):
    """The input lies outside the mathematical domain of the operation."""


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPoly:
    """Sparse Laurent polynomial with integer coefficients.

    Terms map exponent tuples of length ``n_vars`` to nonzero integers.
    Zero coefficients are never stored, and iteration for display or
    serialization is always in sorted exponent order, so equal polynomials
    have identical external representations.

    >>> t1, t2 = LaurentPoly.var(2, 1), LaurentPoly.var(2, 2)
    >>> print((t1 - 1) * (t1 + 1))
    t1^2 - 1
    """

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms: dict[tuple[int, ...], int] | None = None):
        if n_vars < 0:
            raise UsageError("variable count must be nonnegative")
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != n_vars:
                raise UsageError(
                    f"exponent vector {exps} has length {len(exps)}, expected {n_vars}"
                )
            if coeff:
                clean[tuple(exps)] = coeff
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        return _raw_laurent, (self.n_vars, self.terms)

    # -- constructors

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

    # -- ring structure

    def zero_like(self) -> "LaurentPoly":
        return LaurentPoly.zero(self.n_vars)

    def _check_compat(self, other: "LaurentPoly") -> None:
        if not isinstance(other, LaurentPoly):
            raise UsageError(f"cannot combine LaurentPoly with {type(other).__name__}")
        if self.n_vars != other.n_vars:
            raise UsageError(
                f"mismatched variable counts: {self.n_vars} vs {other.n_vars}"
            )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compat(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            new = out.get(exps, 0) + coeff
            if new:
                out[exps] = new
            else:
                out.pop(exps, None)
        return _raw_laurent(self.n_vars, out)

    def __neg__(self) -> "LaurentPoly":
        return _raw_laurent(self.n_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compat(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            new = out.get(exps, 0) - coeff
            if new:
                out[exps] = new
            else:
                del out[exps]
        return _raw_laurent(self.n_vars, out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compat(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                new = out.get(key, 0) + c1 * c2
                if new:
                    out[key] = new
                else:
                    del out[key]
        return _raw_laurent(self.n_vars, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.n_vars == other.n_vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.n_vars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.n_vars: 1}

    # -- queries

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items())

    # -- serialization and display

    def to_dict(self) -> dict:
        return {
            "n_vars": self.n_vars,
            "terms": [
                {"e": list(e), "c": str(c)} for e, c in self.sorted_terms()
            ],
        }

    def __str__(self) -> str:
        return _format_poly(self.sorted_terms(), _format_t_monomial)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.n_vars}, {self})"


def _raw_laurent(n_vars: int, terms: dict) -> LaurentPoly:
    # Internal fast path: terms are already validated and pruned.
    p = object.__new__(LaurentPoly)
    object.__setattr__(p, "n_vars", n_vars)
    object.__setattr__(p, "terms", terms)
    return p


def _format_t_monomial(exps: tuple[int, ...]) -> str:
    parts = [
        f"t{i + 1}" + (f"^{e}" if e != 1 else "")
        for i, e in enumerate(exps)
        if e != 0
    ]
    return "*".join(parts)


def _format_u_monomial(exps: tuple[int, ...]) -> str:
    parts = [
        f"(t{i + 1}-1)" + (f"^{e}" if e != 1 else "")
        for i, e in enumerate(exps)
        if e != 0
    ]
    return "*".join(parts)


def _format_poly(sorted_terms, mono_fmt) -> str:
    if not sorted_terms:
        return "0"
    chunks: list[str] = []
    for exps, coeff in sorted_terms:
        mono = mono_fmt(exps)
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
    return " ".join(chunks)


# ---------------------------------------------------------------------------
# Truncated power series in u_i = t_i - 1
#
# A term's key packs the exponent vector into a single integer, one byte per
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


class TruncatedSeries:
    """Polynomial in u_i = t_i - 1 truncated past total degree ``max_deg``.

    Arithmetic is exact followed by truncation, i.e. computation in the
    quotient by the (max_deg+1)-th power of the ideal (u_1, ..., u_n).
    Operands must agree in both ``n_vars`` and ``max_deg``.
    """

    __slots__ = ("n_vars", "max_deg", "_terms")

    def __init__(
        self,
        n_vars: int,
        max_deg: int,
        terms: dict[tuple[int, ...], int] | None = None,
    ):
        if n_vars < 0:
            raise UsageError("variable count must be nonnegative")
        _check_max_deg(max_deg)
        packed: dict[int, int] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != n_vars:
                raise UsageError(
                    f"exponent vector {exps} has length {len(exps)}, expected {n_vars}"
                )
            if sum(exps) > max_deg:
                raise UsageError(
                    f"term {exps} exceeds truncation degree {max_deg}"
                )
            if coeff:
                packed[_pack(tuple(exps), n_vars)] = coeff
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "max_deg", max_deg)
        object.__setattr__(self, "_terms", packed)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def __reduce__(self):
        return _raw_series, (self.n_vars, self.max_deg, self._terms)

    # -- constructors

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

    # -- ring structure

    def zero_like(self) -> "TruncatedSeries":
        return TruncatedSeries.zero(self.n_vars, self.max_deg)

    def _check_compat(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise UsageError(
                f"cannot combine TruncatedSeries with {type(other).__name__}"
            )
        if self.n_vars != other.n_vars or self.max_deg != other.max_deg:
            raise UsageError(
                "mismatched series parameters: "
                f"({self.n_vars}, D={self.max_deg}) vs "
                f"({other.n_vars}, D={other.max_deg})"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compat(other)
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            new = out.get(key, 0) + coeff
            if new:
                out[key] = new
            else:
                del out[key]
        return _raw_series(self.n_vars, self.max_deg, out)

    def __neg__(self) -> "TruncatedSeries":
        return _raw_series(
            self.n_vars, self.max_deg, {k: -c for k, c in self._terms.items()}
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compat(other)
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            new = out.get(key, 0) - coeff
            if new:
                out[key] = new
            else:
                del out[key]
        return _raw_series(self.n_vars, self.max_deg, out)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compat(other)
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        cutoff = (self.max_deg + 1) << (8 * self.n_vars)
        items_b = sorted(b.items())
        out: dict[int, int] = {}
        for k1, v1 in a.items():
            limit = cutoff - k1
            for k2, v2 in items_b:
                if k2 >= limit:
                    break
                key = k1 + k2
                new = out.get(key, 0) + v1 * v2
                if new:
                    out[key] = new
                else:
                    del out[key]
        return _raw_series(self.n_vars, self.max_deg, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.n_vars == other.n_vars
            and self.max_deg == other.max_deg
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.n_vars, self.max_deg, frozenset(self._terms.items())))

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {0: 1}

    # -- queries

    def terms(self) -> dict[tuple[int, ...], int]:
        n = self.n_vars
        return {_unpack(k, n): c for k, c in self._terms.items()}

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms().items())

    def constant_term(self) -> int:
        return self._terms.get(0, 0)

    # -- serialization and display

    def to_dict(self) -> dict:
        return {
            "n_vars": self.n_vars,
            "max_deg": self.max_deg,
            "terms": [
                {"e": list(e), "c": str(c)} for e, c in self.sorted_terms()
            ],
        }

    def __str__(self) -> str:
        return _format_poly(self.sorted_terms(), _format_u_monomial)

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.n_vars}, D={self.max_deg}, {self})"


def _raw_series(n_vars: int, max_deg: int, packed: dict) -> TruncatedSeries:
    s = object.__new__(TruncatedSeries)
    object.__setattr__(s, "n_vars", n_vars)
    object.__setattr__(s, "max_deg", max_deg)
    object.__setattr__(s, "_terms", packed)
    return s


def retruncate(s: TruncatedSeries, max_deg: int) -> TruncatedSeries:
    """The series ``s`` under truncation degree ``max_deg``.

    Lowering the degree drops the terms above it; that is truncation, a
    ring homomorphism.  Raising it keeps the terms and reads every degree
    above ``s.max_deg`` as zero, which is no homomorphism: a product with
    the raised series is exact only when the other factor vanishes below
    the gap.  If ``s`` is known through degree d and y has no terms below
    degree max_deg - d, then s·y is known through degree max_deg.
    """
    _check_max_deg(max_deg)
    if max_deg >= s.max_deg:
        return _raw_series(s.n_vars, max_deg, s._terms)
    cutoff = (max_deg + 1) << (8 * s.n_vars)
    return _raw_series(
        s.n_vars, max_deg, {k: c for k, c in s._terms.items() if k < cutoff}
    )


RingElement = Union[LaurentPoly, TruncatedSeries]


def identity_rows(size: int, one: RingElement | int) -> list[list]:
    """The identity grid over the ring of ``one``, as lists callers may fill.

    ``one`` may also be a plain int, for letters specialized mod p.
    """
    zero = one - one
    return [[one if i == j else zero for j in range(size)] for i in range(size)]


# ---------------------------------------------------------------------------
# Square matrices over either ring


class SquareMatrix:
    """Immutable n x n matrix whose entries all live in one ring.

    Entries are either all ``LaurentPoly`` over a common variable count or
    all ``TruncatedSeries`` over a common variable count and truncation
    degree; the constructor enforces this.
    """

    __slots__ = ("size", "rows")

    def __init__(self, rows: Iterable[Iterable[RingElement]]):
        grid = tuple(tuple(row) for row in rows)
        n = len(grid)
        if any(len(row) != n for row in grid):
            raise UsageError("matrix rows must all have length equal to the size")
        if n == 0:
            raise UsageError("empty matrix")
        sample = grid[0][0]
        for row in grid:
            for e in row:
                if type(e) is not type(sample):
                    raise UsageError("mixed entry types in matrix")
                sample._check_compat(e)
        object.__setattr__(self, "size", n)
        object.__setattr__(self, "rows", grid)

    def __setattr__(self, name, value):
        raise AttributeError("SquareMatrix is immutable")

    def __reduce__(self):
        return SquareMatrix, (self.rows,)

    @classmethod
    def identity_series(cls, size: int, n_vars: int, max_deg: int) -> "SquareMatrix":
        return cls(identity_rows(size, TruncatedSeries.one(n_vars, max_deg)))

    def _check_compat(self, other: "SquareMatrix") -> None:
        if not isinstance(other, SquareMatrix):
            raise UsageError(f"cannot combine matrix with {type(other).__name__}")
        if self.size != other.size:
            raise UsageError(f"size mismatch: {self.size} vs {other.size}")
        self.rows[0][0]._check_compat(other.rows[0][0])

    def __mul__(self, other: "SquareMatrix") -> "SquareMatrix":
        self._check_compat(other)
        n = self.size
        zero = self.rows[0][0].zero_like()
        out = []
        for i in range(n):
            arow = self.rows[i]
            row = []
            for j in range(n):
                acc = zero
                for k in range(n):
                    a = arow[k]
                    if a.is_zero():
                        continue
                    b = other.rows[k][j]
                    if b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return SquareMatrix(out)

    def __add__(self, other: "SquareMatrix") -> "SquareMatrix":
        self._check_compat(other)
        return SquareMatrix(
            [
                [a + b for a, b in zip(arow, brow)]
                for arow, brow in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "SquareMatrix") -> "SquareMatrix":
        self._check_compat(other)
        return SquareMatrix(
            [
                [a - b for a, b in zip(arow, brow)]
                for arow, brow in zip(self.rows, other.rows)
            ]
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SquareMatrix)
            and self.size == other.size
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash(self.rows)

    def is_identity(self) -> bool:
        return all(
            e.is_one() if i == j else e.is_zero()
            for i, row in enumerate(self.rows)
            for j, e in enumerate(row)
        )

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def map_entries(self, fn: Callable[[RingElement], RingElement]) -> "SquareMatrix":
        return SquareMatrix([[fn(e) for e in row] for row in self.rows])

    def entry(self, i: int, j: int) -> RingElement:
        """1-based entry access."""
        return self.rows[i - 1][j - 1]

    def to_dict(self) -> dict:
        ring = "laurent" if isinstance(self.rows[0][0], LaurentPoly) else "series"
        return {
            "size": self.size,
            "ring": ring,
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
    sample = m.rows[0][0]
    if not isinstance(sample, TruncatedSeries):
        raise UsageError("series_matrix_inverse expects a series matrix")
    for i, row in enumerate(m.rows):
        for j, e in enumerate(row):
            expected = 1 if i == j else 0
            if e.constant_term() != expected:
                raise DomainError(
                    "matrix is not congruent to the identity: entry "
                    f"({i + 1},{j + 1}) has constant term {e.constant_term()}"
                )
    identity = SquareMatrix.identity_series(m.size, sample.n_vars, sample.max_deg)
    n_mat = identity - m
    acc = identity
    power = identity
    for _ in range(m.rows[0][0].max_deg):
        power = power * n_mat
        if power.is_zero():
            break
        acc = acc + power
    return acc
