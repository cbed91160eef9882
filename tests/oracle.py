"""Independent exact routes that the tests check the library against."""

from itertools import combinations

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
