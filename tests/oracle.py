"""Independent exact routes that the tests check the library against."""

from functools import lru_cache
from itertools import combinations

from gassner.graded import _commutator_matrix, congruent_parts
from gassner.laurent import LaurentPoly, SquareMatrix


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
