"""Independent exact routes that the tests check the library against.

None of these has a caller in ``gassner`` itself, so they live here rather
than in the package: exact determinants, deviations ``M - I`` of full
matrices, the per-commutator screen the search used before it worked in
kernel coordinates, the substitution t_var = 1 with last-strand deletion
(``specialize_poly``, ``drop_var``, ``specialize``,
``delete_strand_reduction``), the admissibility test for basic commutators
(``is_basic``), and the rank of dense integer rows (``dense_rank``).

The library writes the Gassner letters once in closed form and
instantiates them in each ring.  The two conversions of exact Laurent
matrices it used before are kept here as the routes those letters are
checked against: ``from_laurent`` expands a Laurent polynomial in
u_i = t_i - 1 by binomial series, and ``_specialize_matrix`` evaluates
every Laurent term at a point mod p.
"""

import math
from functools import lru_cache
from itertools import combinations

from gassner.graded import _bareiss, _commutator_matrix, congruent_parts
from gassner.hall import CommutatorTerm
from gassner.laurent import (
    LaurentPoly,
    SquareMatrix,
    TruncatedSeries,
    UsageError,
    _check_max_deg,
    _raw_series,
)


def minus_identity(m: SquareMatrix) -> SquareMatrix:
    """M - I for a series matrix M, the form the library reads and caches.

    The tests evaluate flat words letter by letter to full matrices M and
    compare the library's deviations with this.
    """
    sample = m.rows[0][0]
    return m - SquareMatrix.identity_series(m.size, sample.n_vars, sample.max_deg)


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
    return m.map_entries(lambda e: specialize_poly(e, var))


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


def dense_rank(rows: list[list[int]]) -> int:
    """Rational rank of dense integer rows, by the library's one elimination.

    ``graded.integer_rank`` takes only an ``IntMatrix``; the tests that
    hold plain vectors (kernel bases, candidate lists) pass them here.
    """
    return _bareiss(
        [{j: v for j, v in enumerate(row) if v} for row in rows],
        len(rows[0]) if rows else 0,
    )


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
    return _raw_series(n, max_deg, acc)


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
