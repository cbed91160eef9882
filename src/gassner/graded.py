"""Graded coefficient data of matrices congruent to the identity.

A matrix M over the truncated ring with M = I mod J^i (J the ideal generated
by all u_k = t_k - 1) determines, for each monomial u_{l_1}...u_{l_i} with
l_1 <= ... <= l_i, an integer matrix of degree-i coefficients of M - I.
Images are cached, composed (``_compose``) and read as that deviation
X = M - I, so no identity matrix is built or subtracted; each child image
is raised to its parent's truncation degree once (``_lifted``), which only
relabels the degree of its term map.  One reader, ``_degree_coords``,
decodes the degree-i data of X from the matrix's term map, whose key packs
the series monomial key m, the row and the column as ``m << 2b | row << b
| col`` (``laurent.PackedValue``), each m once per command (``_monomials``);
``pi`` returns it as a ``GradedClass``, and ``phi`` composes
that with the image of a commutator, giving the induced map from the
weight-i lower-central quotient of the free subgroup into the degree-i
graded piece of the congruence filtration.  ``first_degree`` reads only
the least packed degree.

``assemble_phi_matrix`` stacks the classes of all weight-w basic commutators
into one sparse integer matrix, each row a map from column index to nonzero
entry, and the elimination works on those rows as they are.  One exact
fraction-free elimination of that matrix augmented with the identity yields
both its rank and a primitive integer basis of its left kernel
(``integer_kernel``); ``integer_rank`` runs the same elimination without the
augmentation.  The elimination divides each updated row by its content; it
takes the same pivots as Bareiss elimination, found through an index of
the rows holding each column, and returns the same rank and kernel basis,
without the dense rescaling and growing minors.
``verify_tables`` and ``sfold_property_check`` compare computed classes
against the embedded reference tables and the left-normed contribution law.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd

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
    DomainError,
    SquareMatrix,
    UsageError,
    _index_bits,
    _merged,
    _unpack,
)

Coord = tuple[tuple[int, ...], int, int]  # (monomial, row, col), all 1-based


class GradedClass:
    """Degree-i element of the direct sum of matrix blocks over monomials.

    ``coords`` maps (monomial, row, col) to a nonzero integer, where the
    monomial is the sorted tuple (l_1 <= ... <= l_i) of variable indices.
    """

    __slots__ = ("n", "degree", "coords")

    def __init__(self, n: int, degree: int, coords: dict[Coord, int] | None = None):
        clean: dict[Coord, int] = {}
        for (mono, row, col), value in (coords or {}).items():
            mono = tuple(mono)
            if len(mono) != degree or any(not 1 <= l <= n for l in mono):
                raise UsageError(f"bad monomial {mono} for degree {degree}, n={n}")
            if tuple(sorted(mono)) != mono:
                raise UsageError(f"monomial {mono} is not sorted")
            if not (1 <= row <= n and 1 <= col <= n):
                raise UsageError(f"position ({row},{col}) out of range 1..{n}")
            if value:
                clean[(mono, row, col)] = value
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coords", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GradedClass is immutable")

    def __reduce__(self):
        return GradedClass, (self.n, self.degree, self.coords)

    def _check_compat(self, other: "GradedClass") -> None:
        if self.n != other.n or self.degree != other.degree:
            raise UsageError(
                f"mismatched classes: (n={self.n}, i={self.degree}) vs "
                f"(n={other.n}, i={other.degree})"
            )

    def __add__(self, other: "GradedClass") -> "GradedClass":
        self._check_compat(other)
        return GradedClass(self.n, self.degree, _merged(self.coords, other.coords, 1))

    def __neg__(self) -> "GradedClass":
        return GradedClass(
            self.n, self.degree, {k: -v for k, v in self.coords.items()}
        )

    def __sub__(self, other: "GradedClass") -> "GradedClass":
        return self + (-other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedClass)
            and self.n == other.n
            and self.degree == other.degree
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((self.n, self.degree, frozenset(self.coords.items())))

    def is_zero(self) -> bool:
        return not self.coords

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
        return f"GradedClass(n={self.n}, degree={self.degree}, {len(self.coords)} coords)"


_set_class_n = GradedClass.n.__set__
_set_class_degree = GradedClass.degree.__set__
_set_class_coords = GradedClass.coords.__set__


def _raw_class(n: int, degree: int, coords: dict[Coord, int]) -> GradedClass:
    # Internal fast path: coords are valid, sorted-monomial and nonzero;
    # slots are set as in ``laurent.PackedValue._raw``.
    cls = object.__new__(GradedClass)
    _set_class_n(cls, n)
    _set_class_degree(cls, degree)
    _set_class_coords(cls, coords)
    return cls


def _monomial_of(exps: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(i + 1 for i, e in enumerate(exps) for _ in range(e))


@lru_cache(maxsize=None)
def _monomials(n_vars: int) -> dict[int, tuple[int, ...]]:
    # The monomial of each packed monomial key decoded so far, filled by
    # ``_degree_coords``.  A functools cache rather than a module dict, so
    # it is cleared with the image caches and holds no state across them.
    return {}


def _degree_coords(x: SquareMatrix, i: int, low: int) -> dict[Coord, int]:
    """Degree-i coordinates of X = M - I for a series matrix M = I mod J^low.

    Reads the packed keys ``m << 2b | row << b | col`` of the matrix's
    term map directly: a key's total degree is ``key >> (2b + 8*n_vars)``,
    and only degree-i keys are decoded into a monomial, through the table
    ``_monomials(n_vars)`` that keeps each decoded monomial key m until the
    caches are cleared.  Raises ``DomainError`` naming the least offending
    term, by degree, 1-based row and column, then exponents, when some key
    has degree below ``low``, that is when M is not congruent to the
    identity modulo J^low.
    """
    n_vars, bits = x.n_vars, _index_bits(x.size)
    mask, shift = (1 << bits) - 1, 2 * bits + 8 * n_vars
    monomials = _monomials(n_vars)
    coords: dict[Coord, int] = {}
    below = []
    for key, coeff in x._terms.items():
        d = key >> shift
        if d == i:
            m = key >> 2 * bits
            mono = monomials.get(m)
            if mono is None:
                mono = monomials[m] = _monomial_of(_unpack(m, n_vars))
            coords[(mono, (key >> bits & mask) + 1, (key & mask) + 1)] = coeff
        elif d < low:
            exps = _unpack(key >> 2 * bits, n_vars)
            below.append((d, (key >> bits & mask) + 1, (key & mask) + 1, exps))
    if below:
        d, row, col, exps = min(below)
        raise DomainError(
            f"matrix is not congruent to I mod J^{low}: entry ({row},{col}) "
            f"has a degree-{d} term at monomial {_monomial_of(exps)}"
        )
    return coords


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

    The usage checks, then ``_degree_coords(x, i, i)``: its ``DomainError``
    names the least term below degree i when M is not congruent to the
    identity modulo J^i.
    """
    if i < 1:
        raise UsageError("degree must be positive")
    _check_series(x)
    if x.max_deg < i:
        raise UsageError(f"matrix truncation degree {x.max_deg} is below {i}")
    return _raw_class(x.size, i, _degree_coords(x, i, i))


# ---------------------------------------------------------------------------
# The induced map on basic commutators


@lru_cache(maxsize=None)
def _commutator_matrix(
    term: CommutatorTerm, n: int, max_deg: int, sign: int
) -> SquareMatrix:
    # X = M - I for the image M of the term (sign 1) or of its inverse
    # (sign -1) truncated at max_deg, by bracket recursion with
    # [a, b]^-1 = [b, a].  A term of weight w is I plus terms of degree
    # >= w, so below its weight X is zero.  Otherwise [A, B] - I = c + c E
    # with c = xy - yx for x = A - I from degree weight(a) and y = B - I
    # from degree weight(b), and E = A^-1 B^-1 - I composed from the
    # children's sign -1 deviations.  So x is needed only through
    # max_deg - weight(b), y through max_deg - weight(a), and E through
    # max_deg - weight(term), where E is zero if that is below both child
    # weights.  Children are lifted back to max_deg, sound because each
    # partner vanishes below the gap; ``_lifted`` caches each child's lift,
    # which many parents share.  Leaves are truncated closed-form letters
    # minus I, 1 off each diagonal constant term (key i << b | i): nothing is
    # inverted, and I + X truncates the flat word.
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
    x = _lifted(a, n, max_deg - j, max_deg)
    y = _lifted(b, n, max_deg - i, max_deg)
    c = x * y - y * x
    rest = max_deg - i - j
    if rest >= min(i, j):
        e = _compose(
            _commutator_matrix(a, n, rest, -1), _commutator_matrix(b, n, rest, -1)
        )
        c = c + c * _lift(e, max_deg)
    return c


def _compose(p: SquareMatrix, x: SquareMatrix) -> SquareMatrix:
    """(I + P)(I + X) - I = P + X + P X: the product of two deviations."""
    return p + x + p * x


@lru_cache(maxsize=None)
def _lifted(
    term: CommutatorTerm, n: int, known: int, max_deg: int
) -> SquareMatrix:
    """The sign 1 deviation of ``term`` known through ``known``, at ``max_deg``."""
    return _lift(_commutator_matrix(term, n, known, 1), max_deg)


def _lift(m: SquareMatrix, max_deg: int) -> SquareMatrix:
    """``m`` read at the truncation degree ``max_deg >= m.max_deg``.

    Raising the degree keeps every term and reads the degrees above
    ``m.max_deg`` as zero, so only the degree is relabelled and the
    term map is shared (values are immutable).  That is no ring
    homomorphism: a product with the lifted matrix is exact only when the
    other factor vanishes below the gap, as in ``_commutator_matrix``.
    """
    return SquareMatrix._raw(m.size, m.n_vars, max_deg, m._terms)


def phi(term: CommutatorTerm, n: int) -> GradedClass:
    """Class of a weight-i basic commutator in the degree-i graded piece.

    Builds the image minus I truncated at the weight by the depth-aware
    bracket recursion of ``_commutator_matrix``, which truncates each child
    at the weight minus its sibling's weight, that is at its own weight,
    and extracts the top coefficient data.  The recursion returns zero
    below a term's weight without computing there, so the congruence check
    inside ``pi`` is only a consistency check here; the tests run it on the
    flat commutator word minus I, which verifies that commutators of weight
    i land in the i-th congruence subgroup.
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


def _stack(
    labels: tuple[CommutatorTerm, ...] | list[CommutatorTerm],
    classes: list[GradedClass],
) -> IntMatrix:
    """Sparse rows of ``classes`` over the sorted coordinates that occur."""
    col_labels = tuple(sorted({key for cls in classes for key in cls.coords}))
    index = {key: k for k, key in enumerate(col_labels)}
    rows = tuple(
        {index[key]: value for key, value in cls.coords.items()} for cls in classes
    )
    return IntMatrix(tuple(labels), col_labels, rows)


def integer_rank(m: IntMatrix) -> int:
    """Rank over the rationals by exact fraction-free sparse elimination."""
    return _bareiss(list(m.rows), m.col_count)


def integer_kernel(m: IntMatrix) -> list[tuple[int, ...]]:
    """Primitive integer basis of the left kernel (vectors v with v·M = 0).

    Fraction-free elimination runs on the matrix augmented with the
    identity; the rows below the rank have a vanishing matrix part, and
    their identity part, normalized to content 1 with positive leading
    entry, is a kernel vector.  Each such row is a rational multiple of the
    row dense Bareiss elimination leaves there, so the basis is the same.
    Only a row's nonzero entries are read; all of them lie in the identity
    part.
    """
    n_rows = m.row_count
    n_cols = m.col_count
    rows = [{**row, n_cols + i: 1} for i, row in enumerate(m.rows)]
    rank = _bareiss(rows, n_cols)
    return [
        _dense(_primitive({j - n_cols: v for j, v in row.items()}), n_rows)
        for row in rows[rank:]
    ]


def _bareiss(rows: list[dict[int, int]], pivot_cols: int) -> int:
    """Fraction-free elimination of sparse rows (column -> nonzero entry) in place.

    Pivots are sought in columns ``0..pivot_cols-1`` only; every later
    column is carried along by the same row operations.  Returns the rank
    of the first ``pivot_cols`` columns.  Only the list's slots are
    reassigned and no row dict is mutated, so the list may hold rows that
    the caller keeps.

    The pivot rule is Bareiss's: the first row at or below ``r`` with a
    nonzero entry in column ``c`` is swapped into row ``r``.  Each later row
    with a nonzero entry there becomes ``(pivot/g)·row_i - (factor/g)·row_r``
    with ``g = gcd(pivot, factor)``, divided by its content.  By induction
    every row stays a nonzero rational multiple of the row dense Bareiss
    has at the same position, so the zero pattern, the pivots, the swaps
    and the rank agree with it, while entries stay as small as the
    content allows.

    ``holding`` maps each pivot column to the positions of the rows not yet
    used as pivots that are nonzero there, kept through swaps and row
    updates, so the pivot row is the least position in it.
    """
    n_rows = len(rows)
    holding: dict[int, set[int]] = {c: set() for c in range(pivot_cols)}

    def place(row: dict[int, int], i: int) -> None:
        for j in row:
            if j < pivot_cols:
                holding[j].add(i)

    def remove(row: dict[int, int], i: int) -> None:
        for j in row:
            if j < pivot_cols:
                holding[j].discard(i)

    for i, row in enumerate(rows):
        place(row, i)
    r = 0
    for c in range(pivot_cols):
        if r == n_rows:
            break
        if not holding[c]:
            continue
        pivot_row = min(holding[c])
        row_r = rows[pivot_row]
        remove(row_r, pivot_row)
        if pivot_row != r:
            remove(rows[r], r)
            place(rows[r], pivot_row)
            rows[r], rows[pivot_row] = row_r, rows[r]
        pivot = row_r[c]
        for i in list(holding[c]):
            row_i = rows[i]
            factor = row_i[c]
            g = gcd(pivot, factor)
            a, b = pivot // g, factor // g
            new = {j: a * v for j, v in row_i.items()}
            for j, v in row_r.items():
                value = new.get(j, 0) - b * v
                if value:
                    new[j] = value
                else:
                    del new[j]
            content = gcd(*new.values())
            if content > 1:
                new = {j: v // content for j, v in new.items()}
            remove(row_i, i)
            place(new, i)
            rows[i] = new
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


def _dense(support: tuple[tuple[int, int], ...], length: int) -> tuple[int, ...]:
    """The length-``length`` vector with this support ((position, value), ...)."""
    vector = [0] * length
    for k, v in support:
        vector[k] = v
    return tuple(vector)


class KernelReport(
    namedtuple("KernelReport", "n weight rank expected row_labels kernel")
):
    """Rank/kernel summary of the weight-w class matrix.

    ``expected`` is the Witt number, ``row_labels`` the basis terms and
    ``kernel`` a list of integer vectors over them.
    """

    __slots__ = ()

    @property
    def injective(self) -> bool:
        return self.rank == len(self.row_labels)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "weight": self.weight,
            "rank": self.rank,
            "expected": self.expected,
            "injective": self.injective,
            "kernel": [
                [
                    {"commutator": str(label), "m": str(v)}
                    for label, v in zip(self.row_labels, vec)
                    if v
                ]
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
                computed = phi(term, n)
                for variant in tables.VARIANTS:
                    expected = tables.instantiate(shape, term, n, variant)
                    keys = set(expected) | set(computed.coords)
                    if variant == tables.VARIANTS[0]:
                        cells += len(keys)
                    for key in sorted(keys):
                        want = expected.get(key, 0)
                        got = computed.coords.get(key, 0)
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
