"""Independent exact routes that the tests check the library against.

None of these has a caller in ``gassner`` itself, so they live here rather
than in the package: the zero of a value's ring (``zero_like``) and the
test for 1 (``is_one``), exact determinants, deviations ``M - I`` of full
matrices, the per-commutator screen the search used before it worked in
kernel coordinates, the substitution t_var = 1 with last-strand deletion
(``specialize_poly``, ``drop_var``, ``specialize``,
``delete_strand_reduction``), the admissibility test for basic commutators
(``is_basic``), the graded commutator of two classes (``bracket``), the
rank of dense integer rows (``dense_rank``), and dense Bareiss elimination
(``dense_bareiss``), the reference for the pivots, swaps and rows of
``graded._bareiss``.

``SquareMatrix`` ring operations and ``graded.pi`` build their results
without rechecking them.  The routes they replaced are kept here:
``matrix_product`` sums every entry product ``acc + a*b`` from zero over
all n³ index triples and ``matrix_entrywise`` applies ``+`` or ``-``, both
rebuilding through the validating constructor; ``pi_from_parts`` reads the
degree-i part from ``congruent_parts`` and decodes each exponent vector
with ``graded._monomial_of`` into a validated ``GradedClass``.

The library reads the degree-d data of a deviation X = M - I through one
routine, ``graded._degree_terms``, which keeps the packed series keys, and
a ``GradedClass`` holds that packed map.  The readers it replaced split X
into homogeneous parts through the public ``terms()`` of each entry, keyed
by 0-based (row, col, exponents): ``graded_parts`` all of them,
``congruent_parts`` after checking that none lies below a given degree.
They are kept here as the reference the one reader, ``pi`` and
``first_degree`` are checked against, and the old breakdown route, ``pi``
of the difference of the two images, is checked against the breakdown's
difference class in the tests.  The tuple route between them, which
decoded each degree-d key into a (monomial, row, col) coordinate
(``degree_coords``) and stacked classes by those coordinates
(``stack_coords``), is kept as the reference for ``assemble_phi_matrix``.

The library writes the Gassner letters once in closed form and
instantiates them in each ring.  The two conversions of exact Laurent
matrices it used before are kept here as the routes those letters are
checked against: ``from_laurent`` expands a Laurent polynomial in
u_i = t_i - 1 by binomial series, and ``_specialize_matrix`` evaluates
every Laurent term at a point mod p.  ``map_entries`` applies such a
conversion to every entry of a matrix through the validating constructor.

A series matrix stores one term map, keyed by the packed monomial key, row
and column, and the library raises a child image to its parent's degree by
relabelling that map's degree.  The entry-wise route it replaced,
``retruncate``, which lowers or raises one series, is kept here as the
reference for truncation and for that lift.

The mod-p rung of the search pushes probe row vectors through a
candidate's specialized powers, each stored as packed rows.  The route it
replaced, which multiplies those powers into one matrix at each point and
compares it with I, is kept as ``specialized_products``, with its
``_mod_identity`` and its tuple product ``_mod_matmul``; ``unpack_rows``
and ``pack_rows`` convert between the two layouts.
"""

import math
from functools import lru_cache, reduce
from itertools import combinations

from gassner.graded import (
    Coord,
    GradedClass,
    IntMatrix,
    _bareiss,
    _commutator_matrix,
    _monomial_of,
    _monomials,
)
from gassner.hall import CommutatorTerm, basic_commutators
from gassner.laurent import (
    DomainError,
    LaurentPoly,
    SquareMatrix,
    TruncatedSeries,
    UsageError,
    _check_max_deg,
    _index_bits,
    _unpack,
)
from gassner.search import (
    _SPECIALIZATION_COUNT,
    _SPECIALIZATION_PRIME,
    _field_width,
    _specialized_commutator,
)


def zero_like(x):
    """The zero of the ring or matrix ring of ``x``, built unchecked."""
    return type(x)._raw(x.size, x.n_vars, x.max_deg, {})


def is_one(x) -> bool:
    """Whether the ring value ``x`` is 1: one term, at the constant key 0."""
    return x.size == 1 and x._terms == {0: 1}


def minus_identity(m: SquareMatrix) -> SquareMatrix:
    """M - I for a series matrix M, the form the library reads and caches.

    The tests evaluate flat words letter by letter to full matrices M and
    compare the library's deviations with this.
    """
    sample = m.rows[0][0]
    return m - SquareMatrix.identity_series(m.size, sample.n_vars, sample.max_deg)


def matrix_product(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    """a·b with every entry summed as ``acc + a_ik * b_kj`` from zero."""
    n = a.size
    zero = zero_like(a.rows[0][0])
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = acc + a.rows[i][k] * b.rows[k][j]
            row.append(acc)
        out.append(row)
    return SquareMatrix(out)


def map_entries(m: SquareMatrix, fn) -> SquareMatrix:
    """The matrix of ``fn(m_ij)``, through the validating constructor."""
    return SquareMatrix([[fn(e) for e in row] for row in m.rows])


def matrix_entrywise(a: SquareMatrix, b: SquareMatrix, op) -> SquareMatrix:
    """The matrix of ``op(a_ij, b_ij)``, through the validating constructor."""
    return SquareMatrix(
        [[op(x, y) for x, y in zip(arow, brow)] for arow, brow in zip(a.rows, b.rows)]
    )


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


def pi_from_parts(x: SquareMatrix, i: int) -> GradedClass:
    """Degree-i class of X = M - I read from its homogeneous parts.

    Raises ``congruent_parts``'s ``DomainError`` when X has a term below
    degree i.
    """
    coords = {
        (_monomial_of(exps), row + 1, col + 1): coeff
        for (row, col, exps), coeff in congruent_parts(x, i).get(i, {}).items()
    }
    return GradedClass(x.size, i, coords)


def degree_coords(x: SquareMatrix, i: int, low: int) -> dict[Coord, int]:
    """Degree-i coordinates of X = M - I for a series matrix M = I mod J^low.

    Decodes each degree-i packed key into a (monomial, row, col) coordinate,
    1-based, through ``graded._monomials``; raises ``DomainError`` naming
    the least term below degree ``low``, by degree, row, column, then
    exponents.
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


def stack_coords(labels, coords: list[dict[Coord, int]]) -> IntMatrix:
    """Sparse rows of classes given by their coordinates, over the sorted
    coordinates that occur."""
    col_labels = tuple(sorted({key for c in coords for key in c}))
    index = {key: k for k, key in enumerate(col_labels)}
    rows = tuple({index[key]: v for key, v in c.items()} for c in coords)
    return IntMatrix(tuple(labels), col_labels, rows)


def laurent_determinant(m: SquareMatrix) -> LaurentPoly:
    """Exact determinant by Laplace expansion with subset memoization.

    The minors of the last k rows on every k-subset of the columns come
    from the minors of the last k-1 rows, so the cost is O(2^n * n)
    polynomial multiplications, fine for the sizes the tests use.
    """
    n = m.size
    n_vars = m.rows[0][0].n_vars
    zero = LaurentPoly.zero(n_vars)
    minors = {(): LaurentPoly.one(n_vars)}
    for k in range(1, n + 1):
        row = m.rows[-k]
        new = {}
        for cols in combinations(range(n), k):
            acc = zero
            for idx, c in enumerate(cols):
                if row[c].is_zero():
                    continue
                prod = row[c] * minors[cols[:idx] + cols[idx + 1 :]]
                acc = acc - prod if idx % 2 else acc + prod
            new[cols] = acc
        minors = new
    return minors[tuple(range(n))]


@lru_cache(maxsize=None)
def _image_parts(term, n: int, w: int, depth: int):
    return congruent_parts(_commutator_matrix(term, n, depth, 1), w)


def per_commutator_first_degree(vector, basis, n: int, w: int, depth: int):
    """First degree d in w..depth where sum m_i (g_i - I)_d is nonzero.

    The screen ``run_search`` used before it worked in kernel coordinates:
    every basic commutator in the vector's support is read from its image
    truncated at ``depth`` (at most 2w - 1), and the multiplicities m_i
    combine those parts degree by degree.  None if all of them vanish.
    """
    support = [(_image_parts(t, n, w, depth), m) for t, m in zip(basis, vector) if m]
    for d in range(w, depth + 1):
        acc = {}
        for parts, m in support:
            for key, c in parts.get(d, {}).items():
                acc[key] = acc.get(key, 0) + m * c
        if any(acc.values()):
            return d
    return None


def specialize_poly(p: LaurentPoly, var: int) -> LaurentPoly:
    """Substitute t_var = 1 (``var`` is 1-based)."""
    if not 1 <= var <= p.n_vars:
        raise UsageError(f"variable index {var} out of range 1..{p.n_vars}")
    i = var - 1
    out: dict[tuple[int, ...], int] = {}
    for exps, coeff in p.terms.items():
        key = exps[:i] + (0,) + exps[i + 1 :]
        new = out.get(key, 0) + coeff
        if new:
            out[key] = new
        else:
            del out[key]
    return LaurentPoly(p.n_vars, out)


def drop_var(p: LaurentPoly, var: int) -> LaurentPoly:
    """Remove variable ``var`` (1-based); it must not occur in any term."""
    i = var - 1
    out = {}
    for exps, coeff in p.terms.items():
        if exps[i] != 0:
            raise UsageError(f"variable t{var} still occurs in {p}")
        out[exps[:i] + exps[i + 1 :]] = coeff
    return LaurentPoly(p.n_vars - 1, out)


def specialize(m: SquareMatrix, var: int) -> SquareMatrix:
    """Substitute t_var = 1 in every entry of a Laurent matrix."""
    if not isinstance(m.rows[0][0], LaurentPoly):
        raise UsageError("specialization is defined for Laurent matrices")
    return map_entries(m, lambda e: specialize_poly(e, var))


def delete_strand_reduction(m: SquareMatrix, n: int) -> SquareMatrix:
    """Project an n x n Gassner image to n-1 strands.

    Sets t_n = 1 and deletes the last row and column (and the now-unused
    last variable).  Images of words avoiding the last strand commute with
    this projection, and free-subgroup words collapse to the identity.
    """
    if m.size != n:
        raise UsageError(f"expected a {n}x{n} matrix, got size {m.size}")
    reduced = specialize(m, n)
    rows = [
        [drop_var(reduced.rows[i][j], n) for j in range(n - 1)]
        for i in range(n - 1)
    ]
    return SquareMatrix(rows)


def is_basic(term: CommutatorTerm, m: int) -> bool:
    """Check the admissibility conditions over generators x_1..x_m."""
    if term.is_leaf:
        return 1 <= term.gen <= m
    left, right = term.left, term.right
    if not (is_basic(left, m) and is_basic(right, m)):
        return False
    if not left > right:
        return False
    if not left.is_leaf and not right >= left.right:
        return False
    return True


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


def dense_rank(rows: list[list[int]]) -> int:
    """Rational rank of dense integer rows, by ``graded._bareiss``.

    That is the kernel's elimination, a route independent of the row order
    ``graded.integer_rank`` reduces in.  ``integer_rank`` takes only an
    ``IntMatrix``; the tests that hold plain vectors (kernel bases,
    candidate lists) pass them here.
    """
    return _bareiss(
        [{j: v for j, v in enumerate(row) if v} for row in rows],
        len(rows[0]) if rows else 0,
    )


def dense_bareiss(rows, pivot_cols):
    """Dense fraction-free (Bareiss) elimination in place; the test oracle.

    Same pivot rule as ``graded._bareiss``: the first row at or below ``r``
    with a nonzero entry in column ``c`` is swapped into row ``r``; every
    row below is rescaled and divided by the previous pivot.
    """
    n_rows = len(rows)
    width = len(rows[0]) if rows else 0
    prev = 1
    r = 0
    for c in range(pivot_cols):
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        row_r = rows[r]
        for i in range(r + 1, n_rows):
            factor = rows[i][c]
            row_i = rows[i]
            for j in range(c + 1, width):
                row_i[j] = (pivot * row_i[j] - factor * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        r += 1
    return r


def from_laurent(p: LaurentPoly, max_deg: int) -> TruncatedSeries:
    """Expand a Laurent polynomial in powers of u_i = t_i - 1.

    Negative exponents expand through the binomial series of
    (1+u)^e, which for e < 0 has the integer coefficients
    binom(e, k) = (-1)^k * binom(-e+k-1, k); truncation makes the
    expansion finite.  The map is a ring homomorphism onto the
    truncated ring.  Terms use the series' packed keys: one byte per
    exponent, with the total degree above them.
    """
    _check_max_deg(max_deg)
    n = p.n_vars
    shift = 8 * n
    cutoff = (max_deg + 1) << shift
    acc: dict[int, int] = {}
    for exps, coeff in p.terms.items():
        term: dict[int, int] = {0: coeff}
        for i, e in enumerate(exps):
            if e == 0:
                continue
            expansion = _binomial_expansion(e, max_deg)
            step = 1 << (8 * i)
            new: dict[int, int] = {}
            for key, val in term.items():
                for k, b in expansion:
                    nk = key + k * (step + (1 << shift))
                    if nk >= cutoff:
                        break
                    cur = new.get(nk, 0) + val * b
                    if cur:
                        new[nk] = cur
                    else:
                        del new[nk]
                # expansion is ordered by k, so later k only increase nk
            term = new
            if not term:
                break
        for key, val in term.items():
            cur = acc.get(key, 0) + val
            if cur:
                acc[key] = cur
            else:
                del acc[key]
    return TruncatedSeries._raw(1, n, max_deg, acc)


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
        return TruncatedSeries._raw(1, s.n_vars, max_deg, s._terms)
    cutoff = (max_deg + 1) << (8 * s.n_vars)
    return TruncatedSeries._raw(
        1, s.n_vars, max_deg, {k: c for k, c in s._terms.items() if k < cutoff}
    )


def _binomial_expansion(e: int, max_deg: int) -> list[tuple[int, int]]:
    """Coefficients [(k, binom(e, k))] of (1+u)^e up to degree max_deg."""
    if e >= 0:
        top = min(e, max_deg)
        return [(k, math.comb(e, k)) for k in range(top + 1)]
    return [
        (k, (-1) ** k * math.comb(-e + k - 1, k)) for k in range(max_deg + 1)
    ]


def _specialize_matrix(
    mat: SquareMatrix, point: tuple[int, ...], p: int
) -> tuple[tuple[int, ...], ...]:
    """A Laurent matrix evaluated at t = point, entry by entry mod p."""
    out = []
    for row in mat.rows:
        out_row = []
        for e in row:
            total = 0
            for exps, c in e.terms.items():
                v = c % p
                for t, k in zip(point, exps):
                    if k:
                        v = v * pow(t, k, p) % p
                total = (total + v) % p
            out_row.append(total)
        out.append(tuple(out_row))
    return tuple(out)


def _mod_identity(size):
    return tuple(
        tuple(1 if i == j else 0 for j in range(size)) for i in range(size)
    )


def _mod_matmul(a, b):
    """a·b mod p for matrices as tuples of rows, one dot product per entry."""
    p, cols = _SPECIALIZATION_PRIME, tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols) for row in a
    )


def unpack_rows(rows) -> tuple[tuple[int, ...], ...]:
    """The matrix whose packed rows (``search._push``) are ``rows``.

    Each row must hold n fields of residues mod p and nothing above them.
    """
    n = len(rows)
    width = _field_width(n)
    assert all(0 <= row < 1 << (width * n) for row in rows)
    matrix = tuple(
        tuple(row >> (width * j) & ((1 << width) - 1) for j in range(n))
        for row in rows
    )
    assert all(x < _SPECIALIZATION_PRIME for r in matrix for x in r)
    return matrix


def pack_rows(matrix) -> tuple[int, ...]:
    """Each row of a matrix of residues mod p as one packed integer."""
    width = _field_width(len(matrix))
    return tuple(sum(x << (width * j) for j, x in enumerate(row)) for row in matrix)


def specialized_matrix(term, n: int, point_index: int, seed: int, m: int):
    """``search._specialized_commutator`` as a tuple of rows of residues."""
    return unpack_rows(_specialized_commutator(term, n, point_index, seed, m))


def specialized_products(vector, n: int, w: int, seed: int):
    """The candidate's product matrix mod p at each specialization point.

    One ``_mod_matmul`` per power in the support, from the identity; the
    zero vector gives I at every point.
    """
    basis = basic_commutators(n - 1, w)
    return [
        reduce(
            _mod_matmul,
            (
                specialized_matrix(t, n, point_index, seed, m)
                for t, m in zip(basis, vector)
                if m
            ),
            _mod_identity(n),
        )
        for point_index in range(_SPECIALIZATION_COUNT)
    ]
