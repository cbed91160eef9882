"""Graded coefficient data of matrices congruent to the identity.

A matrix M over the truncated ring with M = I mod J^i (J the ideal generated
by all u_k = t_k - 1) determines, for each monomial u_{l_1}...u_{l_i} with
l_1 <= ... <= l_i, an integer matrix of degree-i coefficients of M - I.
Images are cached, composed (``_compose``) and read as that deviation
X = M - I; a child image is raised to its parent's truncation degree by
``_lift``, which only relabels the degree of its term map.  One reader,
``_degree_terms``, slices the degree-i terms of X from the matrix's term
map, keyed ``m << 2b | row << b | col`` (``laurent.PackedValue``); ``pi``
keeps them, undecoded, as a ``GradedClass``, and ``phi`` composes that with
the image of a commutator, giving the induced map from the weight-i
lower-central quotient of the free subgroup into the degree-i graded piece
of the congruence filtration.  ``first_degree`` reads the least degree.

``assemble_phi_matrix`` stacks the classes of all weight-w basic commutators
into one sparse integer matrix, each row a map from column index to nonzero
entry, its columns the packed keys sorted on their monomial's rank.
``integer_rank`` reduces the rows, shortest first, against the pivots kept
so far (``_echelon``).  One exact fraction-free elimination of the matrix
augmented with the identity yields a primitive integer basis of its left
kernel (``integer_kernel``), as supports ((i, m_i), ...).  It takes the
pivots of Bareiss elimination, found by filing each row once under its
least column, so it returns the same kernel basis.  Both sweeps reduce a
row by one step, ``_reduce``.
``verify_tables`` and ``sfold_property_check`` compare computed classes
against the embedded reference tables and the left-normed contribution law.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping
from functools import lru_cache
from math import gcd
from types import MappingProxyType

from .braid import _letter_matrix_truncated, check_strand_count
from .hall import (
    CommutatorTerm,
    basic_commutators,
    check_basis_size,
    check_leaves,
    is_left_normed,
    leaf_sequence,
    weight,
    witt_rank,
)
from .laurent import (
    _MAX_TRUNC_DEG,
    DomainError,
    PackedValue,
    SquareMatrix,
    UsageError,
    _add_product,
    _check_coeff,
    _fill,
    _index_bits,
    _pack,
    _unpack,
)

Coord = tuple[tuple[int, ...], int, int]  # (monomial, row, col), all 1-based


class GradedClass(PackedValue):
    """Degree-i element of the direct sum of matrix blocks over monomials.

    A ``PackedValue`` of size n over n variables and ``max_deg`` i, with
    keys of degree i only and no product.  ``coords`` maps (monomial, row,
    col) to a nonzero integer, the monomial the sorted tuple (l_1 <= ... <=
    l_i) of variable indices: a read-only view decoded from ``_terms``.
    """

    __slots__ = ()
    __mul__ = None

    def __init__(self, n: int, degree: int, coords: dict[Coord, int] | None = None):
        if type(n) is not int or n < 1:
            raise UsageError(f"a class needs an int n >= 1, got {n!r}")
        if type(degree) is not int or not 1 <= degree <= _MAX_TRUNC_DEG:
            raise UsageError(f"class degree must be an int in 1..{_MAX_TRUNC_DEG}")
        bits = _index_bits(n)
        terms: dict[int, int] = {}
        for key, value in (coords or {}).items():
            ok = type(key) is tuple and len(key) == 3 and type(key[0]) is tuple
            if not ok or any(type(x) is not int for x in (*key[0], *key[1:])):
                raise UsageError(
                    f"a class coordinate is (monomial, row, col) of ints, got {key!r}"
                )
            mono, row, col = key
            if len(mono) != degree or any(not 1 <= l <= n for l in mono):
                raise UsageError(f"bad monomial {mono} for degree {degree}, n={n}")
            if tuple(sorted(mono)) != mono:
                raise UsageError(f"monomial {mono} is not sorted")
            if not (1 <= row <= n and 1 <= col <= n):
                raise UsageError(f"position ({row},{col}) out of range 1..{n}")
            _check_coeff(value, (mono, row, col))
            if value:
                m = _pack(tuple(map(mono.count, range(1, n + 1))), n)
                terms[m << 2 * bits | (row - 1) << bits | (col - 1)] = value
        _fill(self, n, n, degree, terms)

    def _check_compat(self, other: PackedValue) -> None:
        if type(other) is GradedClass and (other.n, other.degree) != (self.n, self.degree):
            raise UsageError(f"mismatched classes: {self!r} vs {other!r}")
        PackedValue._check_compat(self, other)

    @property
    def n(self) -> int:
        return self.size

    @property
    def degree(self) -> int:
        return self.max_deg

    @property
    def coords(self) -> Mapping[Coord, int]:
        """The terms keyed by (monomial, row, col), a read-only decoded view."""
        return MappingProxyType(
            dict(zip(_decode(self.n, self._terms), self._terms.values()))
        )

    def monomials(self) -> list[tuple[int, ...]]:
        return sorted({mono for mono, _, _ in self.coords})

    def matrix_at(self, mono: tuple[int, ...]) -> dict[tuple[int, int], int]:
        """The integer matrix attached to one monomial, as a sparse dict."""
        return {
            (row, col): v
            for (m, row, col), v in self.coords.items()
            if m == tuple(mono)
        }

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "degree": self.degree,
            "coords": [
                {"mono": list(mono), "row": row, "col": col, "c": str(v)}
                for (mono, row, col), v in sorted(self.coords.items())
            ],
        }

    def __repr__(self) -> str:
        return f"GradedClass(n={self.n}, degree={self.degree}, {len(self._terms)} coords)"


def _monomial_of(exps: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(i + 1 for i, e in enumerate(exps) for _ in range(e))


@lru_cache(maxsize=None)
def _monomials(n_vars: int) -> dict[int, tuple[int, ...]]:
    # The monomial of each packed monomial key decoded so far (``_decode``,
    # ``_stack``), in a functools cache, cleared with the image caches.
    return {}


def _decode(n: int, keys: Iterable[int]) -> Iterator[Coord]:
    """The (monomial, row, col), all 1-based, of each packed class key."""
    bits, monomials = _index_bits(n), _monomials(n)
    mask = (1 << bits) - 1
    for key in keys:
        m = key >> 2 * bits
        mono = monomials.get(m)
        if mono is None:
            mono = monomials[m] = _monomial_of(_unpack(m, n))
        yield mono, (key >> bits & mask) + 1, (key & mask) + 1


def _degree_terms(x: SquareMatrix, i: int, low: int) -> dict[int, int]:
    """Packed degree-i terms of X = M - I, for i >= low and M = I mod J^low.

    A key of the series matrix's term map has total degree
    ``key >> (2b + 8*n_vars)``; a map of degree-i keys only is returned as
    it is (``phi``).  Raises ``DomainError`` naming the least term below
    degree ``low``, by degree, 1-based row and column, then exponents.
    """
    terms, n_vars, bits = x._terms, x.n_vars, _index_bits(x.size)
    if not terms:
        return terms
    shift, mask = 2 * bits + 8 * n_vars, (1 << bits) - 1
    least = min(terms) >> shift
    if least < low:
        row, col, exps = min(
            (k >> bits & mask, k & mask, _unpack(k >> 2 * bits, n_vars))
            for k in terms
            if k >> shift == least
        )
        raise DomainError(
            f"matrix is not congruent to I mod J^{low}: entry ({row + 1},{col + 1}) "
            f"has a degree-{least} term at monomial {_monomial_of(exps)}"
        )
    if least == i and max(terms) >> shift == i:
        return terms
    return {k: c for k, c in terms.items() if k >> shift == i}


def _check_series(x: SquareMatrix) -> None:
    if x.max_deg is None:
        raise UsageError("coefficient extraction expects a series matrix")


def first_degree(x: SquareMatrix) -> int | None:
    """First degree where M = I + X differs from I; None where it does not.

    The least packed key of the series term map carries the least degree.
    """
    _check_series(x)
    if not x._terms:
        return None
    return min(x._terms) >> (2 * _index_bits(x.size) + 8 * x.n_vars)


def pi(x: SquareMatrix, i: int) -> GradedClass:
    """Degree-i coefficient data of X = M - I (given X, not M) for M = I mod J^i.

    The usage checks, then ``_degree_terms(x, i, i)``: its ``DomainError``
    names the least term below degree i when M is not congruent to the
    identity modulo J^i.
    """
    if i < 1:
        raise UsageError("degree must be positive")
    _check_series(x)
    if x.max_deg < i:
        raise UsageError(f"matrix truncation degree {x.max_deg} is below {i}")
    if x.n_vars != x.size:
        raise UsageError("a class is read from an n x n matrix over n variables")
    return GradedClass._raw(x.size, x.size, i, _degree_terms(x, i, i))


# ---------------------------------------------------------------------------
# The induced map on basic commutators


@lru_cache(maxsize=None)
def _commutator_matrix(
    term: CommutatorTerm, n: int, max_deg: int, sign: int
) -> SquareMatrix:
    # X = M - I for the image M of the term (sign 1) or of its inverse
    # (sign -1) truncated at max_deg, by bracket recursion with
    # [a, b]^-1 = [b, a].  Below its weight X is zero.  Otherwise
    # [A, B] - I = c + c E with c = xy - yx for x = A - I and y = B - I,
    # taken in one product map (``_ring_bracket``), and E = A^-1 B^-1 - I
    # composed from the children's sign -1 deviations.  So x is needed only
    # through max_deg - weight(b), y through max_deg - weight(a), and E
    # through max_deg - weight(term), where E is zero if that is below both
    # child weights.  Children are lifted back to max_deg (``_lift``), sound
    # because each partner vanishes below the gap.  Leaves are truncated
    # closed-form letters with 1 taken off each diagonal constant term (key
    # i << b | i): nothing is inverted, and I + X truncates the flat word.
    if max_deg < weight(term):
        return SquareMatrix._raw(n, n, max_deg, {})
    if term.is_leaf:
        terms = dict(_letter_matrix_truncated(n, term.gen, n, sign, max_deg)._terms)
        bits = _index_bits(n)
        for key in (i << bits | i for i in range(n)):
            new = terms.get(key, 0) - 1
            if new:
                terms[key] = new
            else:
                del terms[key]
        return SquareMatrix._raw(n, n, max_deg, terms)
    a, b = (term.left, term.right) if sign == 1 else (term.right, term.left)
    i, j = weight(a), weight(b)
    x = _lift(_commutator_matrix(a, n, max_deg - j, 1), max_deg)
    y = _lift(_commutator_matrix(b, n, max_deg - i, 1), max_deg)
    c = _ring_bracket(x, y)
    rest = max_deg - i - j
    if rest >= min(i, j):
        e = _compose(
            _commutator_matrix(a, n, rest, -1), _commutator_matrix(b, n, rest, -1)
        )
        c = c + c * _lift(e, max_deg)
    return c


def _ring_bracket(x: SquareMatrix, y: SquareMatrix) -> SquareMatrix:
    """xy - yx: y·x is subtracted in place from the fresh term map of x * y."""
    c = x * y
    _add_product(c._terms, y._terms, x._terms, c, -1)
    return c


def _compose(p: SquareMatrix, x: SquareMatrix) -> SquareMatrix:
    """(I + P)(I + X) - I = P + X + P X: the product of two deviations."""
    return p + x + p * x


def _lift(m: SquareMatrix, max_deg: int) -> SquareMatrix:
    """``m`` read at the truncation degree ``max_deg >= m.max_deg``, its
    term map shared.  That is no ring homomorphism: a product with the
    lifted matrix is exact only when the other factor vanishes below the
    gap, as in ``_commutator_matrix``."""
    return SquareMatrix._raw(m.size, m.n_vars, max_deg, m._terms)


def phi(term: CommutatorTerm, n: int) -> GradedClass:
    """Class of a weight-i basic commutator in the degree-i graded piece.

    ``pi`` of the image minus I truncated at the weight (``_commutator_matrix``,
    each child truncated at its own weight).  That image is zero below the
    weight, so every key has degree i and the class keeps its term map.
    """
    w = weight(term)
    check_leaves(term, n)
    return pi(_commutator_matrix(term, n, w, 1), w)


# ---------------------------------------------------------------------------
# Integer matrices over the commutator basis


class IntMatrix(namedtuple("IntMatrix", "row_labels col_labels rows")):
    """Sparse integer matrix with commutator row labels and coordinate columns.

    ``row_labels`` is a tuple of ``CommutatorTerm``, ``col_labels`` a tuple
    of ``Coord`` and ``rows`` a tuple of dicts: each row maps a column index
    to its nonzero entry; absent columns are 0.
    """

    __slots__ = ()

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def col_count(self) -> int:
        return len(self.col_labels)


def assemble_phi_matrix(n: int, w: int) -> IntMatrix:
    """Stack the classes of all weight-w basic commutators on n strands.

    Rows follow the basis order; columns are the (monomial, row, col)
    coordinates that actually occur, sorted.  The strand count and the
    basis size are checked before any commutator is built.
    """
    check_strand_count(n)
    check_basis_size(n - 1, w)
    basis = basic_commutators(n - 1, w)
    return _stack(basis, [phi(term, n) for term in basis])


def _stack(labels: Iterable[CommutatorTerm], classes: list[GradedClass]) -> IntMatrix:
    """Sparse rows of ``classes``, all over one n, over the coordinates that
    occur, sorted as ``rank(monomial) << 2b | row << b | col``."""
    keys = set().union(*[cls._terms for cls in classes])
    n = classes[0].n if classes else 1
    shift, monomials = 2 * _index_bits(n), _monomials(n)
    used = {key >> shift for key in keys}
    for m in used - monomials.keys():
        monomials[m] = _monomial_of(_unpack(m, n))
    rank = {m: r for r, m in enumerate(sorted(used, key=monomials.get))}
    low = (1 << shift) - 1
    order = sorted(keys, key=lambda key: rank[key >> shift] << shift | key & low)
    index = {key: k for k, key in enumerate(order)}
    rows = tuple({index[key]: v for key, v in cls._terms.items()} for cls in classes)
    return IntMatrix(tuple(labels), tuple(_decode(n, order)), rows)


def integer_rank(m: IntMatrix) -> int:
    """Rank over the rationals: the pivots of the rows, shortest first."""
    return len(_echelon(sorted(m.rows, key=len)))


def _echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Pivot rows by leading column c: a row meeting pivot p at c is
    reduced by it (``_reduce``) until its leading column is free.  No given
    row dict is mutated."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            c = min(row)
            pivot_row = pivots.setdefault(c, row)
            if pivot_row is row:
                break
            row = _reduce(row, pivot_row, c)
    return pivots


def _reduce(row: dict[int, int], pivot_row: dict[int, int], c: int) -> dict[int, int]:
    """A new row ``(p[c]/g)·row - (row[c]/g)·p``, zero at c, for the pivot
    row p and g = gcd(p[c], row[c]), divided by its content."""
    g = gcd(pivot_row[c], row[c])
    a, b = pivot_row[c] // g, row[c] // g
    new = {j: a * v for j, v in row.items()} if a != 1 else dict(row)
    for j, v in pivot_row.items():
        value = new.get(j, 0) - b * v
        if value:
            new[j] = value
        else:
            del new[j]
    content = gcd(*new.values())
    return {j: v // content for j, v in new.items()} if content > 1 else new


def integer_kernel(m: IntMatrix) -> list[tuple[tuple[int, int], ...]]:
    """Primitive integer basis of the left kernel (vectors v with v·M = 0).

    Fraction-free elimination runs on the matrix augmented with the
    identity; the rows below the rank have a vanishing matrix part, and
    their identity part, normalized to content 1 with positive leading
    entry, is a kernel vector.  Each such row is a rational multiple of the
    row dense Bareiss elimination leaves there, so the basis is the same.
    Only a row's nonzero entries are read; all of them lie in the identity
    part.  Each vector is returned as its support ((i, v_i), ...).
    """
    n_cols = m.col_count
    rows = [{**row, n_cols + i: 1} for i, row in enumerate(m.rows)]
    rank = _bareiss(rows, n_cols)
    return [_primitive({j - n_cols: v for j, v in row.items()}) for row in rows[rank:]]


def _bareiss(rows: list[dict[int, int]], pivot_cols: int) -> int:
    """Fraction-free elimination of sparse rows (column -> nonzero entry) in place.

    Pivots are sought in columns ``0..pivot_cols-1`` only; every later
    column is carried along by the same row operations.  Returns the rank
    of the first ``pivot_cols`` columns.  Only the list's slots are
    reassigned and no row dict is mutated, so the list may hold rows that
    the caller keeps.

    The pivot rule is Bareiss's: the first row at or below ``r`` with a
    nonzero entry in column ``c`` is swapped into row ``r``, and each later
    row with a nonzero entry there is reduced by it (``_reduce``).  By
    induction every row stays a nonzero rational multiple of the row dense
    Bareiss has at the same position, so the zero pattern, the pivots, the
    swaps and the rank agree with it, while entries stay as small as the
    content allows.

    ``leading`` files each row not yet used as a pivot once, under its
    least column.  Every such row is zero left of the column being swept,
    so it is nonzero there exactly when it is filed there, and the pivot
    row is the least position filed under that column.  A row that a swap
    displaces, and each updated row, is filed under its own least column.
    """
    n_rows = len(rows)
    leading: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        if row:
            leading.setdefault(min(row), set()).add(i)
    r = 0
    for c in range(pivot_cols):
        if r == n_rows:
            break
        held = leading.pop(c, None)
        if not held:
            continue
        pivot_row = min(held)
        held.remove(pivot_row)
        row_r = rows[pivot_row]
        if pivot_row != r:
            displaced = rows[r]
            if displaced:
                filed = leading[min(displaced)]
                filed.remove(r)
                filed.add(pivot_row)
            rows[r], rows[pivot_row] = row_r, displaced
        for i in held:
            rows[i] = new = _reduce(rows[i], row_r, c)
            if new:
                leading.setdefault(min(new), set()).add(i)
        r += 1
    return r


def _primitive(entries: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """The support ((position, value), ...) of the vector with these nonzero
    entries (position -> value), made primitive.

    Divided by its content, with a positive leading entry; positions
    increase.  Only the nonzero entries are read.
    """
    content = gcd(*entries.values())
    if content == 0:
        raise UsageError("zero vector has no primitive form")
    if entries[min(entries)] < 0:
        content = -content
    return tuple((k, v // content) for k, v in sorted(entries.items()))


class KernelReport(
    namedtuple("KernelReport", "n weight rank expected row_labels kernel")
):
    """Rank/kernel summary of the weight-w class matrix.

    ``expected`` is the Witt number, ``row_labels`` the basis terms and
    ``kernel`` a list of primitive supports ((i, m_i), ...) over them.
    """

    __slots__ = ()

    @property
    def injective(self) -> bool:
        return self.rank == len(self.row_labels)

    def label_texts(self) -> dict[int, str]:
        """The text of each row label some kernel vector uses, by row index."""
        used = {i for vec in self.kernel for i, _ in vec}
        return {i: str(self.row_labels[i]) for i in used}

    def to_dict(self) -> dict:
        texts = self.label_texts()
        return {
            "n": self.n,
            "weight": self.weight,
            "rank": self.rank,
            "expected": self.expected,
            "injective": self.injective,
            "kernel": [
                [{"commutator": texts[i], "m": str(v)} for i, v in vec]
                for vec in self.kernel
            ],
        }


def kernel_report(n: int, w: int) -> KernelReport:
    matrix = assemble_phi_matrix(n, w)
    kernel = integer_kernel(matrix)
    return KernelReport(
        n=n,
        weight=w,
        rank=matrix.row_count - len(kernel),
        expected=witt_rank(n - 1, w),
        row_labels=matrix.row_labels,
        kernel=kernel,
    )


# ---------------------------------------------------------------------------
# Reference-table verification


CellMismatch = namedtuple("CellMismatch", "commutator mono row col expected computed")


class TableCheck(
    namedtuple("TableCheck", "shape commutators_checked cells_checked mismatches")
):
    """Comparison of computed classes against one reference table.

    ``mismatches`` maps each fixture variant name to a list of
    ``CellMismatch``.
    """

    __slots__ = ()

    def ok(self, variant: str) -> bool:
        return not self.mismatches.get(variant)

    def to_dict(self) -> dict:
        return {
            **self._asdict(),
            "mismatches": {
                variant: [m._asdict() for m in found]
                for variant, found in self.mismatches.items()
            },
        }


class TablesReport(namedtuple("TablesReport", "n checks")):
    """The ``TableCheck`` of each table shape at n strands."""

    __slots__ = ()

    def ok(self, variant: str = "corrected") -> bool:
        return all(c.ok(variant) for c in self.checks)

    def duplicate_resolution(self) -> str:
        """Which reading of the once-repeated table term the computation matches.

        The weight-4 left-normed table repeats one term: summing it as
        printed means coefficient -2, reading the repetition as an erratum
        means -1.  With the other repairs applied, exactly one of the two
        variants should match every cell; returns "-1", "-2", or
        "ambiguous" when neither (or both) fully match.
        """
        for check in self.checks:
            if check.shape != "weight4_left_normed":
                continue
            single = not check.mismatches["corrected"]
            double = not check.mismatches["corrected_dup2"]
            if single and not double:
                return "-1"
            if double and not single:
                return "-2"
            return "ambiguous"
        return "not checked"

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "duplicate_resolution": self.duplicate_resolution(),
            "checks": [c.to_dict() for c in self.checks],
        }


def verify_tables(n: int) -> TablesReport:
    """Compare computed classes of weights 1..4 against the reference tables.

    Every listed factor is instantiated with its Kronecker deltas evaluated
    (rows whose concrete monomials collide are summed), and factors absent
    from a table must carry zero.  Mismatches are collected per fixture
    variant, never raised.
    """
    from . import tables

    if n not in (4, 5):
        raise UsageError("table verification is defined for n in {4, 5}")
    checks = []
    for w in (1, 2, 3, 4):
        for shape in tables.shapes_for_weight(w):
            commutators = [
                c for c in basic_commutators(n - 1, w) if tables.shape_of(c) == shape
            ]
            mismatches: dict[str, list[CellMismatch]] = {
                v: [] for v in tables.VARIANTS
            }
            cells = 0
            for term in commutators:
                computed = phi(term, n).coords
                for variant in tables.VARIANTS:
                    expected = tables.instantiate(shape, term, n, variant)
                    keys = set(expected) | set(computed)
                    if variant == tables.VARIANTS[0]:
                        cells += len(keys)
                    for key in sorted(keys):
                        want = expected.get(key, 0)
                        got = computed.get(key, 0)
                        if want != got:
                            mono, row, col = key
                            mismatches[variant].append(
                                CellMismatch(str(term), mono, row, col, want, got)
                            )
            checks.append(
                TableCheck(
                    shape=shape,
                    commutators_checked=len(commutators),
                    cells_checked=cells,
                    mismatches=mismatches,
                )
            )
    return TablesReport(n=n, checks=checks)


# ---------------------------------------------------------------------------
# Left-normed (s-fold) contribution law


class SFoldReport(
    namedtuple(
        "SFoldReport",
        "n weight left_normed_count other_count failures_a failures_b "
        "submatrix_rank",
    )
):
    """Checks of the left-normed contribution law at one weight.

    (a) each left-normed basic commutator with leaf sequence l_1..l_s has,
        at the n-free factor t_{l_1}...t_{l_s}, exactly the matrix
        e[l_1, n](-1) + e[l_2, n](+1);
    (b) every other basic commutator vanishes at all n-free factors;
    (c) the left-normed rows of the class matrix are linearly independent.

    ``failures_a`` and ``failures_b`` list the commutators failing (a) and (b).
    """

    __slots__ = ()

    @property
    def full_rank(self) -> bool:
        return self.submatrix_rank == self.left_normed_count

    @property
    def ok(self) -> bool:
        return not self.failures_a and not self.failures_b and self.full_rank

    def to_dict(self) -> dict:
        return {**self._asdict(), "full_rank": self.full_rank, "ok": self.ok}


def sfold_property_check(n: int, s: int) -> SFoldReport:
    check_strand_count(n)
    if s < 3:
        raise UsageError("the left-normed law is checked for weights >= 3")
    check_basis_size(n - 1, s)
    basis = basic_commutators(n - 1, s)
    failures_a: list[str] = []
    failures_b: list[str] = []
    left_terms = []
    left_rows = []
    for term in basis:
        cls = phi(term, n)
        if is_left_normed(term):
            leaves = leaf_sequence(term)
            mono = tuple(sorted(leaves))
            expected = {(leaves[0], n): -1, (leaves[1], n): 1}
            if cls.matrix_at(mono) != expected:
                failures_a.append(str(term))
            left_terms.append(term)
            left_rows.append(cls)
        else:
            if any(n not in mono for mono in cls.monomials()):
                failures_b.append(str(term))
    rank = integer_rank(_stack(left_terms, left_rows))
    return SFoldReport(
        n=n,
        weight=s,
        left_normed_count=len(left_rows),
        other_count=len(basis) - len(left_rows),
        failures_a=failures_a,
        failures_b=failures_b,
        submatrix_rank=rank,
    )
