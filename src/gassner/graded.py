"""Graded coefficient data of matrices congruent to the identity.

A matrix M over the truncated ring with M = I mod J^i (J the ideal generated
by all u_k = t_k - 1) determines, for each monomial u_{l_1}...u_{l_i} with
l_1 <= ... <= l_i, an integer matrix of degree-i coefficients of M - I.
Images are cached, composed (``_compose``) and read as that deviation
X = M - I, so no identity matrix is built or subtracted.  ``pi`` extracts
the degree-i data as a ``GradedClass``; ``phi`` composes it with the image
of a commutator, giving the induced map from the weight-i lower-central
quotient of the free subgroup into the degree-i graded piece of the
congruence filtration.

``assemble_phi_matrix`` stacks the classes of all weight-w basic commutators
into one sparse integer matrix, each row a map from column index to nonzero
entry, and the elimination works on those rows as they are.  One exact
fraction-free elimination of that matrix augmented with the identity yields
both its rank and a primitive integer basis of its left kernel
(``integer_kernel``); ``integer_rank`` runs the same elimination without the
augmentation.  The elimination divides each updated row by its content; it
takes the same pivots as Bareiss elimination and returns the same rank and
kernel basis, without the dense rescaling and growing minors.
``verify_tables`` and ``sfold_property_check`` compare computed classes
against the embedded reference tables and the left-normed contribution law.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache
from math import gcd

from .braid import _letter_matrix_truncated
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
    TruncatedSeries,
    UsageError,
    retruncate,
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
        out = dict(self.coords)
        for key, value in other.coords.items():
            new = out.get(key, 0) + value
            if new:
                out[key] = new
            else:
                del out[key]
        return GradedClass(self.n, self.degree, out)

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


def _monomial_of(exps: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(i + 1 for i, e in enumerate(exps) for _ in range(e))


Part = dict[tuple[int, int, tuple[int, ...]], int]


def graded_parts(x: SquareMatrix) -> dict[int, Part]:
    """Homogeneous parts of the deviation X = M - I of a series matrix M.

    Keyed by degree; each part maps (row, col, exponents), with 0-based row
    and column, to a nonzero coefficient.  Degrees without a nonzero
    coefficient are absent.
    """
    parts: dict[int, Part] = {}
    for row, entries in enumerate(x.rows):
        for col, e in enumerate(entries):
            for exps, coeff in e.terms().items():
                parts.setdefault(sum(exps), {})[(row, col, exps)] = coeff
    return parts


def first_degree(x: SquareMatrix) -> int | None:
    """First degree where M = I + X differs from I; None where it does not."""
    return min(graded_parts(x), default=None)


def congruent_parts(x: SquareMatrix, i: int) -> dict[int, Part]:
    """``graded_parts(x)`` for X = M - I with M = I mod J^i.

    Raises ``DomainError`` naming the first offending term when X carries
    a nonzero coefficient in some degree below i (i.e. M is not congruent
    to the identity modulo J^i).
    """
    parts = graded_parts(x)
    d = min(parts, default=i)
    if d < i:
        row, col, exps = min(parts[d])
        raise DomainError(
            f"matrix is not congruent to I mod J^{i}: entry ({row + 1},{col + 1}) "
            f"has a degree-{d} term at monomial {_monomial_of(exps)}"
        )
    return parts


def pi(x: SquareMatrix, i: int) -> GradedClass:
    """Degree-i coefficient data of X = M - I (given X, not M) for M = I mod J^i.

    Raises ``DomainError`` as ``congruent_parts`` does when M is not
    congruent to the identity modulo J^i.
    """
    if i < 1:
        raise UsageError("degree must be positive")
    sample = x.rows[0][0]
    if not isinstance(sample, TruncatedSeries):
        raise UsageError("coefficient extraction expects a series matrix")
    if sample.max_deg < i:
        raise UsageError(
            f"matrix truncation degree {sample.max_deg} is below {i}"
        )
    coords = {
        (_monomial_of(exps), row + 1, col + 1): coeff
        for (row, col, exps), coeff in congruent_parts(x, i).get(i, {}).items()
    }
    return GradedClass(x.size, i, coords)


def bracket(x: GradedClass, y: GradedClass) -> GradedClass:
    """Graded commutator [x, y]: matrix brackets with monomials multiplied.

    Induced by the group commutator: for matrices A = I mod J^i and
    B = I mod J^j, the class of A B A^-1 B^-1 in degree i+j is the bracket
    of the classes of A and B.
    """
    if x.n != y.n:
        raise UsageError(f"mismatched sizes: {x.n} vs {y.n}")
    coords: dict[Coord, int] = {}
    for (m1, r1, c1), v1 in x.coords.items():
        for (m2, r2, c2), v2 in y.coords.items():
            mono = tuple(sorted(m1 + m2))
            if c1 == r2:
                key = (mono, r1, c2)
                new = coords.get(key, 0) + v1 * v2
                if new:
                    coords[key] = new
                else:
                    del coords[key]
            if c2 == r1:
                key = (mono, r2, c1)
                new = coords.get(key, 0) - v1 * v2
                if new:
                    coords[key] = new
                else:
                    del coords[key]
    return GradedClass(x.n, x.degree + y.degree, coords)


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
    # partner vanishes below the gap.  Leaves are truncated closed-form
    # letters minus I: nothing is inverted, and I + X truncates the flat word.
    if max_deg < weight(term):
        zero = TruncatedSeries.zero(n, max_deg)
        return SquareMatrix([[zero] * n for _ in range(n)])
    if term.is_leaf:
        letter = _letter_matrix_truncated(n, term.gen, n, sign, max_deg)
        one = TruncatedSeries.one(n, max_deg)
        return SquareMatrix(
            [
                [e - one if i == j else e for j, e in enumerate(row)]
                for i, row in enumerate(letter.rows)
            ]
        )
    a, b = (term.left, term.right) if sign == 1 else (term.right, term.left)
    i, j = weight(a), weight(b)
    x = _lift(_commutator_matrix(a, n, max_deg - j, 1), max_deg)
    y = _lift(_commutator_matrix(b, n, max_deg - i, 1), max_deg)
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


def _lift(m: SquareMatrix, max_deg: int) -> SquareMatrix:
    """``m`` with every entry raised to truncation degree ``max_deg``."""
    return m.map_entries(lambda e: retruncate(e, max_deg))


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


@dataclass(frozen=True)
class IntMatrix:
    """Sparse integer matrix with commutator row labels and coordinate columns.

    Each row maps a column index to its nonzero entry; absent columns are 0.
    """

    row_labels: tuple[CommutatorTerm, ...]
    col_labels: tuple[Coord, ...]
    rows: tuple[dict[int, int], ...]

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def col_count(self) -> int:
        return len(self.col_labels)


def assemble_phi_matrix(n: int, w: int) -> IntMatrix:
    """Stack the classes of all weight-w basic commutators on n strands.

    Rows follow the basis order; columns are the (monomial, row, col)
    coordinates that actually occur, sorted.
    """
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
    """
    n_rows = m.row_count
    n_cols = m.col_count
    rows = [{**row, n_cols + i: 1} for i, row in enumerate(m.rows)]
    rank = _bareiss(rows, n_cols)
    return [
        _primitive([row.get(n_cols + i, 0) for i in range(n_rows)])
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
    """
    n_rows = len(rows)
    r = 0
    for c in range(pivot_cols):
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if c in rows[i]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        row_r = rows[r]
        pivot = row_r[c]
        for i in range(r + 1, n_rows):
            row_i = rows[i]
            factor = row_i.get(c)
            if factor is None:
                continue
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
            rows[i] = new
        r += 1
    return r


def _primitive(vector: list[int]) -> tuple[int, ...]:
    content = 0
    for v in vector:
        content = gcd(content, v)
    if content == 0:
        raise UsageError("zero vector has no primitive form")
    leading = next(v for v in vector if v)
    sign = 1 if leading > 0 else -1
    return tuple(sign * v // content for v in vector)


@dataclass
class KernelReport:
    """Rank/kernel summary of the weight-w class matrix."""

    n: int
    weight: int
    rank: int
    expected: int
    row_labels: tuple[CommutatorTerm, ...]
    kernel: list[tuple[int, ...]]

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
    check_basis_size(n - 1, w)
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


@dataclass(frozen=True)
class CellMismatch:
    commutator: str
    mono: tuple[int, ...]
    row: int
    col: int
    expected: int
    computed: int


@dataclass
class TableCheck:
    """Comparison of computed classes against one reference table."""

    shape: str
    commutators_checked: int
    cells_checked: int
    # keyed by fixture variant name
    mismatches: dict[str, list[CellMismatch]] = field(default_factory=dict)

    def ok(self, variant: str) -> bool:
        return not self.mismatches.get(variant)


@dataclass
class TablesReport:
    n: int
    checks: list[TableCheck]

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
            "checks": [asdict(c) for c in self.checks],
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


@dataclass
class SFoldReport:
    """Checks of the left-normed contribution law at one weight.

    (a) each left-normed basic commutator with leaf sequence l_1..l_s has,
        at the n-free factor t_{l_1}...t_{l_s}, exactly the matrix
        e[l_1, n](-1) + e[l_2, n](+1);
    (b) every other basic commutator vanishes at all n-free factors;
    (c) the left-normed rows of the class matrix are linearly independent.
    """

    n: int
    weight: int
    left_normed_count: int
    other_count: int
    failures_a: list[str]
    failures_b: list[str]
    submatrix_rank: int

    @property
    def full_rank(self) -> bool:
        return self.submatrix_rank == self.left_normed_count

    @property
    def ok(self) -> bool:
        return not self.failures_a and not self.failures_b and self.full_rank

    def to_dict(self) -> dict:
        return {**asdict(self), "full_rank": self.full_rank, "ok": self.ok}


def sfold_property_check(n: int, s: int) -> SFoldReport:
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
