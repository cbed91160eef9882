"""Ring arithmetic, the series variables, and matrix operations.

The tests reach the series ring from Laurent polynomials through the
oracle's binomial expansion ``from_laurent``; the package has no such
conversion.
"""

import copy
import operator
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gassner.graded import GradedClass
from gassner.laurent import (
    DomainError,
    LaurentPoly,
    SquareMatrix,
    TruncatedSeries,
    UsageError,
    _MAX_EXP,
    _MIN_EXP,
    _pack,
    _pack_laurent,
    identity_rows,
    series_matrix_inverse,
)
from oracle import (
    from_laurent,
    is_one,
    laurent_determinant,
    matrix_entrywise,
    matrix_product,
    retruncate,
    specialize,
    specialize_poly,
    zero_like,
)


def t(i, n=2):
    return LaurentPoly.var(n, i)


def u(i, n, d):
    return from_laurent(t(i, n) - LaurentPoly.one(n), d)


class TestLaurentArithmetic:
    def test_difference_of_squares(self):
        t1 = t(1)
        one = LaurentPoly.one(2)
        assert (t1 - one) * (t1 + one) == t1 * t1 - one

    def test_unit_cancellation(self):
        t1 = LaurentPoly.var(2, 1)
        t1_inv = LaurentPoly.var(2, 1, -1)
        assert is_one(t1 * t1_inv)

    def test_two_by_two_determinant_identity(self):
        # expansion of the 2x2 generator determinant done two ways
        t1, t2 = t(1), t(2)
        one = LaurentPoly.one(2)
        lhs = (one - t1 + t1 * t2) * t1 - t1 * (one - t1) * (one - t2)
        assert lhs == t1 * t2

    def test_mismatched_vars_rejected(self):
        with pytest.raises(UsageError):
            LaurentPoly.var(2, 1) + LaurentPoly.var(3, 1)

    @pytest.mark.parametrize(
        "build",
        [lambda terms: LaurentPoly(2, terms), lambda terms: TruncatedSeries(2, 3, terms)],
        ids=["laurent", "series"],
    )
    @pytest.mark.parametrize(
        "coeff", [1.5, 2.0, True, False, "x", None], ids=repr
    )
    def test_non_int_coefficients_rejected(self, build, coeff):
        # also falsy ones, which would otherwise be dropped as zeros
        with pytest.raises(UsageError, match="not an int"):
            build({(1, 0): coeff})

    def test_zero_coefficients_pruned(self):
        p = LaurentPoly(2, {(1, 0): 1}) - LaurentPoly(2, {(1, 0): 1})
        assert p.is_zero() and p.terms == {}

    def test_specialize(self):
        t1, t2 = t(1), t(2)
        assert specialize_poly(t1 * t2, 2) == t1
        p = LaurentPoly(2, {(1, 1): 1, (1, 0): 1})  # t1*t2 + t1
        assert specialize_poly(p, 2) == t1 + t1


_small_polys = st.builds(
    lambda terms: LaurentPoly(2, dict(terms)),
    st.lists(
        st.tuples(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            st.integers(-9, 9),
        ),
        max_size=5,
    ),
)


class TestRingLaws:
    @settings(max_examples=100, deadline=None)
    @given(_small_polys, _small_polys, _small_polys)
    def test_laurent_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=100, deadline=None)
    @given(_small_polys, _small_polys, st.integers(0, 6))
    def test_series_conversion_is_ring_homomorphism(self, a, b, d):
        fa, fb = from_laurent(a, d), from_laurent(b, d)
        assert from_laurent(a * b, d) == fa * fb
        assert from_laurent(a + b, d) == fa + fb

    @settings(max_examples=100, deadline=None)
    @given(_small_polys, _small_polys)
    def test_laurent_subtraction_matches_negated_sum(self, a, b):
        # subtraction runs its own loop; a + (-b) is the independent route
        assert a - b == a + (-b)
        assert (a - b) + b == a
        assert (a - a).is_zero()

    @settings(max_examples=100, deadline=None)
    @given(_small_polys, _small_polys, st.integers(0, 6))
    def test_series_subtraction_matches_negated_sum(self, a, b, d):
        # subtraction runs its own loop; a + (-b) and the Laurent
        # difference converted are the independent routes
        fa, fb = from_laurent(a, d), from_laurent(b, d)
        assert fa - fb == fa + (-fb)
        assert fa - fb == from_laurent(a - b, d)
        assert (fa - fa).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        st.sampled_from([-1, 1]),
        st.integers(0, 6),
    )
    def test_unit_monomial_inverse_maps_to_one(self, exps, sign, d):
        p = LaurentPoly(2, {exps: sign})
        p_inv = LaurentPoly(2, {tuple(-e for e in exps): sign})
        assert is_one(from_laurent(p * p_inv, d))

    @settings(max_examples=100, deadline=None)
    @given(_small_polys, _small_polys, _small_polys, st.integers(0, 5))
    def test_series_ring_laws(self, pa, pb, pc, d):
        a, b, c = (from_laurent(p, d) for p in (pa, pb, pc))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def _laurent_polys(exponents, max_size):
    return st.dictionaries(
        st.tuples(exponents, exponents),
        st.integers(-9, 9),
        min_size=1,
        max_size=max_size,
    ).map(lambda terms: LaurentPoly(2, terms))


_near_zero = st.integers(-3, 3)
_packed_polys = _laurent_polys(
    st.one_of(
        _near_zero,
        st.integers(_MIN_EXP, _MIN_EXP + 6),
        st.integers(_MAX_EXP - 6, _MAX_EXP),
    ),
    4,
)


def _sympy_expr(p, xs):
    return sum((c * xs[0] ** e[0] * xs[1] ** e[1] for e, c in p.terms.items()), 0)


def _sympy_terms(expr, xs):
    # the expanded expression as {exponent tuple: coefficient}
    import sympy

    return {
        tuple(int(mono.as_powers_dict().get(x, 0)) for x in xs): int(c)
        for mono, c in sympy.expand(expr).as_coefficients_dict().items()
        if c
    }


class TestPackedLaurent:
    # a LaurentPoly stores packed keys; sympy is the independent route, with
    # exponents near 0 and near both ends of the packed range
    @settings(max_examples=100, deadline=None)
    @given(_packed_polys, st.one_of(_packed_polys, _laurent_polys(_near_zero, 2)))
    def test_arithmetic_agrees_with_sympy(self, a, b):
        import sympy

        xs = sympy.symbols("t1 t2")
        ea, eb = _sympy_expr(a, xs), _sympy_expr(b, xs)
        assert dict(a.terms) == _sympy_terms(ea, xs)
        with pytest.raises(TypeError):
            a.terms[(0, 0)] = 1  # a read-only view of the packed terms
        assert dict((a + b).terms) == _sympy_terms(ea + eb, xs)
        assert dict((a - b).terms) == _sympy_terms(ea - eb, xs)
        assert dict((-a).terms) == _sympy_terms(-ea, xs)
        product = _sympy_terms(ea * eb, xs)
        if all(_MIN_EXP <= e <= _MAX_EXP for exps in product for e in exps):
            assert dict((a * b).terms) == product
        else:
            with pytest.raises(UsageError, match="outside the packed range"):
                a * b

    @pytest.mark.parametrize("var", [1, 2])
    @pytest.mark.parametrize(
        "edge,step", [(_MAX_EXP, 1), (_MIN_EXP, -1)], ids=["max", "min"]
    )
    def test_product_past_the_range_raises(self, var, edge, step):
        # checked where the value is built, not only when it enters a matrix
        product = LaurentPoly.var(2, var, edge - step) * LaurentPoly.var(2, var, step)
        assert product == LaurentPoly.var(2, var, edge)
        half = LaurentPoly.var(2, var, edge // 2 + step)
        with pytest.raises(UsageError, match="outside the packed range"):
            half * half
        with pytest.raises(UsageError, match="outside the packed range"):
            LaurentPoly.var(2, var, edge + step)


class TestRetruncate:
    @settings(max_examples=100, deadline=None)
    @given(_small_polys, st.integers(0, 6), st.integers(0, 6), st.integers(0, 3))
    def test_lower_truncates_and_lift_round_trips(self, p, top, low, extra):
        low = min(low, top)
        s = from_laurent(p, top)
        lowered = retruncate(s, low)
        assert lowered == from_laurent(p, low)
        assert lowered == TruncatedSeries(
            2, low, {e: c for e, c in s.terms.items() if sum(e) <= low}
        )
        assert retruncate(retruncate(s, top + extra), top) == s

    @settings(max_examples=100, deadline=None)
    @given(_small_polys, _small_polys, st.integers(0, 6), st.integers(0, 6))
    def test_lift_is_exact_against_a_factor_vanishing_below_the_gap(
        self, p, q, top, gap
    ):
        # x known through degree top - gap times y with no terms below
        # degree gap is known through degree top
        gap = min(gap, top)
        x = from_laurent(p, top)
        y = from_laurent(q, top)
        y = TruncatedSeries(
            2, top, {e: c for e, c in y.terms.items() if sum(e) >= gap}
        )
        assert retruncate(retruncate(x, top - gap), top) * y == x * y

    def test_degree_cap_checked(self):
        with pytest.raises(UsageError):
            retruncate(TruncatedSeries.one(2, 2), -1)


class TestSeries:
    def test_from_laurent_variable(self):
        s = from_laurent(t(1), 2)
        assert s == TruncatedSeries(2, 2, {(0, 0): 1, (1, 0): 1})

    def test_from_laurent_negative_exponent(self):
        s = from_laurent(LaurentPoly.var(2, 1, -1), 2)
        assert s == TruncatedSeries(2, 2, {(0, 0): 1, (1, 0): -1, (2, 0): 1})

    def test_from_laurent_generator_entry(self):
        # 1 - t_r + t_r*t_s expands to 1 + u_s + u_r*u_s
        one = LaurentPoly.one(2)
        t1, t2 = t(1), t(2)
        s = from_laurent(one - t1 + t1 * t2, 2)
        assert s == TruncatedSeries(2, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})

    @pytest.mark.parametrize("d", [0, 1, 2, 5, 12])
    def test_var_is_the_expanded_laurent_variable(self, d):
        # t_i = 1 + u_i and t_i^-1 = sum (-u_i)^k, checked against the
        # oracle's binomial expansion and against each other
        for i in (1, 2, 3):
            for power in (1, -1):
                s = TruncatedSeries.var(3, d, i, power)
                assert s == from_laurent(LaurentPoly.var(3, i, power), d)
            product = TruncatedSeries.var(3, d, i, 1) * TruncatedSeries.var(3, d, i, -1)
            assert is_one(product)

    @pytest.mark.parametrize("power", [0, 2, -2, 3])
    def test_var_rejects_powers_other_than_plus_minus_one(self, power):
        with pytest.raises(UsageError, match="must be ±1"):
            TruncatedSeries.var(2, 3, 1, power)

    def test_inverse_pair_truncates_to_one(self):
        one = TruncatedSeries.one(2, 2)
        a = one + u(1, 2, 2)
        b = TruncatedSeries(2, 2, {(0, 0): 1, (1, 0): -1, (2, 0): 1})
        assert is_one(a * b)

    def test_truncation_drops_high_degree(self):
        prod = u(1, 2, 1) * u(2, 2, 1)
        assert prod.is_zero()

    def test_expansion(self):
        one = TruncatedSeries.one(2, 2)
        a, b = one + u(1, 2, 2), one + u(2, 2, 2)
        assert a * b == TruncatedSeries(
            2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
        )

    def test_mismatched_truncation_rejected(self):
        with pytest.raises(UsageError):
            TruncatedSeries.one(2, 2) + TruncatedSeries.one(2, 3)
        with pytest.raises(UsageError):
            TruncatedSeries.one(2, 2) - TruncatedSeries.one(2, 3)

    def test_term_exceeding_degree_rejected(self):
        with pytest.raises(UsageError):
            TruncatedSeries(2, 1, {(2, 0): 1})


class TestMatrices:
    def _series_matrix(self, entries, n, d):
        return SquareMatrix(
            [[TruncatedSeries(n, d, e) for e in row] for row in entries]
        )

    def test_series_inverse_identity(self):
        m = SquareMatrix.identity_series(3, 3, 4)
        assert series_matrix_inverse(m) == m

    def test_series_inverse_nilpotent(self):
        one, zero = {(0, 0): 1}, {}
        e12 = {(1, 0): 1}
        m = self._series_matrix([[one, e12], [zero, one]], 2, 3)
        inv = self._series_matrix([[one, {(1, 0): -1}], [zero, one]], 2, 3)
        assert series_matrix_inverse(m) == inv
        assert (m * series_matrix_inverse(m)).is_identity()

    def test_series_inverse_requires_identity_congruence(self):
        zero, two = {}, {(0, 0): 2}
        m = self._series_matrix([[two, zero], [zero, two]], 2, 3)
        with pytest.raises(DomainError):
            series_matrix_inverse(m)

    def test_identity_rows_over_both_rings(self):
        # one grid builder serves the generators, both evaluators and the
        # series identity; its rows are fresh lists the caller may fill
        for one in (LaurentPoly.one(2), TruncatedSeries.one(2, 3)):
            rows = identity_rows(3, one)
            assert SquareMatrix(rows).is_identity()
            rows[0][1] = one
            assert SquareMatrix(identity_rows(3, one)).is_identity()
        # and plain ints, for the letters the search specializes mod p
        assert identity_rows(2, 1) == [[1, 0], [0, 1]]
        assert SquareMatrix.identity_series(3, 2, 3) == SquareMatrix(
            identity_rows(3, TruncatedSeries.one(2, 3))
        )

    def test_determinant_of_identity(self):
        for n in (1, 2, 3, 4):
            m = SquareMatrix(identity_rows(n, LaurentPoly.one(2)))
            assert is_one(laurent_determinant(m))

    def test_determinant_against_sympy(self):
        # cross-checks the tests' determinant oracle on random small
        # Laurent matrices
        import sympy

        rng = random.Random(7)
        xs = sympy.symbols("t1 t2")
        for _ in range(20):
            size = rng.choice((2, 3))
            entries = [
                [
                    {
                        (rng.randint(-1, 1), rng.randint(-1, 1)): rng.randint(-2, 2)
                        for _ in range(rng.randint(0, 2))
                    }
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
            m = SquareMatrix(
                [[LaurentPoly(2, e) for e in row] for row in entries]
            )
            sm = sympy.Matrix(
                [
                    [
                        sum(
                            c * xs[0] ** e[0] * xs[1] ** e[1]
                            for e, c in poly.terms.items()
                        )
                        for poly in row
                    ]
                    for row in m.rows
                ]
            )
            ours = laurent_determinant(m)
            theirs = sympy.expand(sm.det())
            mine = sum(
                c * xs[0] ** e[0] * xs[1] ** e[1] for e, c in ours.terms.items()
            )
            assert sympy.simplify(mine - theirs) == 0

    @pytest.mark.parametrize(
        "rows",
        [
            [[LaurentPoly.one(2), LaurentPoly.one(2)], [LaurentPoly.one(2)]],
            [],
            [[LaurentPoly.one(2)] * 2, [TruncatedSeries.one(2, 3)] * 2],
            [[TruncatedSeries.one(2, 3)] * 2, [TruncatedSeries.one(2, 4)] * 2],
            [[1]],
            [[1, LaurentPoly.one(2)], [LaurentPoly.one(2)] * 2],
            [[LaurentPoly.one(2), 1], [LaurentPoly.one(2)] * 2],
            [[SquareMatrix([[LaurentPoly.one(2)]])]],
            [[SquareMatrix(identity_rows(2, LaurentPoly.one(2)))] * 2] * 2,
            5,
            [1],
            [[LaurentPoly.one(2)], 3],
        ],
        ids=[
            "ragged",
            "empty",
            "laurent-beside-series",
            "mixed-max-deg",
            "int",
            "int-before-elements",
            "int-after-elements",
            "matrix",
            "grid-of-matrices",
            "rows-not-iterable",
            "row-not-iterable",
            "second-row-not-iterable",
        ],
    )
    def test_constructor_rejects(self, rows):
        with pytest.raises(UsageError):
            SquareMatrix(rows)

    def test_specialize_matrix(self):
        from gassner.braid import gassner_generator

        g = gassner_generator(2, 1, 2)
        reduced = specialize(g, 2)
        t1 = LaurentPoly.var(2, 1)
        one = LaurentPoly.one(2)
        assert reduced.entry(1, 1) == one
        assert reduced.entry(1, 2) == t1 * (one - t1)
        assert reduced.entry(2, 1).is_zero()
        assert reduced.entry(2, 2) == t1


@st.composite
def matrix_pairs(draw):
    """Two matrices of one size over one ring, most entries zero.

    Laurent entries take exponents in -2..2, each variable of the first
    matrix shifted by 0 or to 4 inside either end of the packed range, so
    its products with the second reach both ends exactly; series entries
    have total degree at most the truncation degree.
    """
    size = draw(st.integers(1, 4))
    if draw(st.booleans()):
        small = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
        s1, s2 = draw(
            st.lists(
                st.sampled_from([0, _MAX_EXP - 4, _MIN_EXP + 4]), min_size=2, max_size=2
            )
        )
        shifted = small.map(lambda e: (e[0] + s1, e[1] + s2))
        exps = (shifted, small)
        make = lambda terms: LaurentPoly(2, terms)
    else:
        max_deg = draw(st.integers(0, 4))
        exps = (
            st.integers(0, max_deg).flatmap(
                lambda d: st.integers(0, d).map(lambda a: (a, d - a))
            ),
        ) * 2
        make = lambda terms: TruncatedSeries(2, max_deg, terms)

    def matrix(exps):
        entry = st.one_of(
            st.just({}), st.dictionaries(exps, st.integers(-3, 3), max_size=3)
        ).map(make)
        return SquareMatrix(
            [[draw(entry) for _ in range(size)] for _ in range(size)]
        )

    return matrix(exps[0]), matrix(exps[1])


@st.composite
def series_matrix_pairs(draw, min_size=1):
    """Two series matrices of one size and ring, each with its own sparsity.

    Term degrees are drawn as 0, as the truncation degree or in between, so
    products meet the cutoff exactly.  The pair is dense beside sparse
    (every entry drawn against at most one), either way round, or two
    matrices of any fill.
    """
    size = draw(st.integers(min_size, 4))
    n_vars = draw(st.integers(1, 3))
    max_deg = draw(st.integers(0, 5))
    degree = st.one_of(st.just(0), st.just(max_deg), st.integers(0, max_deg))
    exps = degree.flatmap(
        lambda d: st.lists(st.integers(0, n_vars - 1), min_size=d, max_size=d)
    ).map(lambda vs: tuple(vs.count(v) for v in range(n_vars)))
    entry = st.dictionaries(exps, st.integers(-3, 3), min_size=1, max_size=3).map(
        lambda terms: TruncatedSeries(n_vars, max_deg, terms)
    )
    zero = TruncatedSeries.zero(n_vars, max_deg)
    cells = size * size
    positions = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))

    def matrix(fill):
        if fill == "dense":
            flat = draw(st.lists(entry, min_size=cells, max_size=cells))
            return SquareMatrix([flat[i * size : (i + 1) * size] for i in range(size)])
        chosen = draw(
            st.dictionaries(positions, entry, max_size=1 if fill == "sparse" else cells)
        )
        return SquareMatrix(
            [[chosen.get((i, j), zero) for j in range(size)] for i in range(size)]
        )

    fills = draw(
        st.sampled_from([("dense", "sparse"), ("sparse", "dense"), ("any", "any")])
    )
    return matrix(fills[0]), matrix(fills[1])


@st.composite
def packed_matrix_pairs(draw):
    """Two matrices of one ring and size 1-5, so index widths b = 0..3.

    Over the Laurent ring the first matrix's exponents sit near 0 or 4
    inside either end of the packed range, per variable, and the second's
    are small and may be negative, so products reach both ends; series
    terms have any degree up to the truncation degree.
    """
    size = draw(st.integers(1, 5))
    n_vars = draw(st.integers(1, 3))
    if draw(st.booleans()):
        small = st.tuples(*[st.integers(-2, 2)] * n_vars)
        shifts = draw(
            st.lists(
                st.sampled_from([0, _MAX_EXP - 4, _MIN_EXP + 4]),
                min_size=n_vars,
                max_size=n_vars,
            )
        )
        shifted = small.map(lambda e: tuple(x + y for x, y in zip(e, shifts)))
        exps = (shifted, small)
        make = lambda terms: LaurentPoly(n_vars, terms)
    else:
        max_deg = draw(st.integers(0, 4))
        monomial = st.integers(0, max_deg).flatmap(
            lambda d: st.lists(st.integers(0, n_vars - 1), min_size=d, max_size=d)
        ).map(lambda vs: tuple(vs.count(v) for v in range(n_vars)))
        exps = (monomial, monomial)
        make = lambda terms: TruncatedSeries(n_vars, max_deg, terms)

    def matrix(exps):
        entry = st.dictionaries(exps, st.integers(-3, 3), max_size=2).map(make)
        return SquareMatrix(
            [[draw(entry) for _ in range(size)] for _ in range(size)]
        )

    return matrix(exps[0]), matrix(exps[1])


_MATRIX_OPS = {
    "mul": (operator.mul, matrix_product),
    "add": (operator.add, lambda a, b: matrix_entrywise(a, b, operator.add)),
    "sub": (operator.sub, lambda a, b: matrix_entrywise(a, b, operator.sub)),
}


class TestMatrixFastPath:
    # products, sums and differences build their result without the
    # constructor's checks; the oracle rebuilds through it
    @settings(max_examples=150, deadline=None)
    @given(matrix_pairs(), st.sampled_from(sorted(_MATRIX_OPS)))
    def test_ring_ops_match_the_validated_route(self, pair, op):
        a, b = pair
        fast, slow = _MATRIX_OPS[op]
        got = fast(a, b)
        assert got == slow(a, b)
        assert got == SquareMatrix(got.rows)
        assert type(got.rows) is tuple
        assert all(type(row) is tuple for row in got.rows)
        assert got.size == len(got.rows) == a.size
        assert hash(got) == hash(slow(a, b))
        for how in COPIES.values():
            assert how(got) == got

    # a series matrix is one map from m << 2b | row << b | col, m the
    # packed monomial key, to a coefficient; the oracle multiplies and adds
    # its entries one by one
    @settings(max_examples=200, deadline=None)
    @given(series_matrix_pairs(), st.sampled_from(sorted(_MATRIX_OPS)))
    def test_series_ops_match_the_entrywise_oracle(self, pair, op):
        a, b = pair
        fast, slow = _MATRIX_OPS[op]
        got, want = fast(a, b), slow(a, b)
        assert got == want and hash(got) == hash(want)
        assert got.rows == want.rows
        assert got.is_zero() == all(e.is_zero() for row in want.rows for e in row)
        # no zero is stored and no key lies past the truncation degree
        assert 0 not in got._terms.values()
        cutoff = (a.max_deg + 1) << (8 * a.n_vars)
        bits = (a.size - 1).bit_length()
        assert all(key >> 2 * bits < cutoff for key in got._terms)

    @settings(max_examples=100, deadline=None)
    @given(series_matrix_pairs(min_size=2))
    def test_products_that_cancel_are_the_zero_matrix(self, pair):
        # columns 0 and 1 of a equal, rows 0 and 1 of b opposite, every
        # other row of b zero: each entry of a·b is a sum that cancels
        a, b = pair
        zero = zero_like(a.rows[0][0])
        a = SquareMatrix([(row[0], row[0]) + row[2:] for row in a.rows])
        b = SquareMatrix(
            [b.rows[0], tuple(-e for e in b.rows[0])]
            + [(zero,) * a.size] * (a.size - 2)
        )
        product = a * b
        assert product.is_zero() and product._terms == {}
        assert product == matrix_product(a, b)
        assert hash(product) == hash(matrix_product(a, b))
        for cancelled in (a - a, b + SquareMatrix([[-e for e in row] for row in b.rows])):
            assert cancelled.is_zero() and cancelled == SquareMatrix(
                identity_rows(a.size, zero)
            )

    def test_terms_at_the_cutoff(self):
        # degree 4: u1^2 · u1^2 is kept, u1^2 · u1^3 and u2^4 · u2 are dropped
        d = 4
        u1, u2 = u(1, 2, d), u(2, 2, d)
        zero, one = zero_like(u1), TruncatedSeries.one(2, d)
        a = SquareMatrix([[u1 * u1, zero], [zero, u2 * u2 * u2 * u2]])
        b = SquareMatrix([[u1 * u1 + u1 * u1 * u1, zero], [zero, one + u2]])
        product = a * b
        assert product == SquareMatrix(
            [[TruncatedSeries(2, d, {(4, 0): 1}), zero], [zero, u2 * u2 * u2 * u2]]
        )
        assert product == matrix_product(a, b)
        # a product of terms all past the cutoff is zero
        assert (a * a * a).is_zero()

    @settings(max_examples=100, deadline=None)
    @given(series_matrix_pairs(), st.sampled_from(sorted(_MATRIX_OPS)))
    def test_rows_round_trip(self, pair, op):
        # the grid of a matrix built from its map rebuilds the same matrix
        got = _MATRIX_OPS[op][0](*pair)
        rebuilt = SquareMatrix(got.rows)
        assert rebuilt == got and hash(rebuilt) == hash(got)
        assert rebuilt._terms == got._terms and rebuilt.rows == got.rows
        for how in COPIES.values():
            copied = how(got)
            assert copied == rebuilt and hash(copied) == hash(rebuilt)

    @pytest.mark.parametrize("var", [1, 2])
    @pytest.mark.parametrize(
        "edge,past", [(_MAX_EXP, 1), (_MIN_EXP, -1)], ids=["max", "min"]
    )
    def test_constructor_packs_exponents_up_to_the_bound(self, var, edge, past):
        def diagonal(power):
            return SquareMatrix(identity_rows(2, LaurentPoly.var(2, var, power)))

        m = diagonal(edge)
        assert m.entry(1, 1) == LaurentPoly.var(2, var, edge)
        assert SquareMatrix(m.rows) == m
        with pytest.raises(UsageError, match="outside the packed range"):
            diagonal(edge + past)

    @pytest.mark.parametrize("var", [1, 2])
    @pytest.mark.parametrize(
        "edge,step", [(_MAX_EXP, 1), (_MIN_EXP, -1)], ids=["max", "min"]
    )
    def test_products_reach_the_bound_and_raise_past_it(self, var, edge, step):
        # a product landing on the last exponent in range is exact; a
        # diagonal monomial matrix squared past it raises, never wraps
        def diagonal(power):
            return SquareMatrix(identity_rows(2, LaurentPoly.var(2, var, power)))

        product = diagonal(edge - step) * diagonal(step)
        assert product == diagonal(edge)
        assert product.rows == diagonal(edge).rows
        half = edge // 2 + step
        with pytest.raises(UsageError, match="outside the packed range"):
            diagonal(half) * diagonal(half)
        # a product whose terms past the range all cancel is still exact
        t = LaurentPoly.var(2, var, half)
        a = SquareMatrix([[t, t], [t, t]])
        b = SquareMatrix([[t, t], [-t, -t]])
        assert (a * b).is_zero()

    def test_laurent_rows_round_trip(self):
        # entries near both ends of the packed range, and products of them
        high, low = LaurentPoly.var(2, 1, _MAX_EXP - 1), LaurentPoly.var(2, 2, _MIN_EXP + 1)
        one, t1, t2_inv = LaurentPoly.one(2), t(1), LaurentPoly.var(2, 2, -1)
        a = SquareMatrix([[high + one, low - high], [-one, high * t2_inv]])
        b = SquareMatrix([[t1, one], [one - t2_inv, one]])
        for got in (a, a * b, b * a, a + b, a - b):
            rebuilt = SquareMatrix(got.rows)
            assert rebuilt == got and hash(rebuilt) == hash(got)
            assert rebuilt._terms == got._terms and rebuilt.rows == got.rows
            for how in COPIES.values():
                copied = how(got)
                assert copied == rebuilt and hash(copied) == hash(rebuilt)
                assert copied.rows == rebuilt.rows

    @pytest.mark.parametrize("op", sorted(_MATRIX_OPS))
    @pytest.mark.parametrize(
        "left,right",
        [
            (TruncatedSeries.one(2, 3), TruncatedSeries.one(2, 4)),
            (LaurentPoly.one(2), TruncatedSeries.one(2, 3)),
            (TruncatedSeries.one(2, 3), LaurentPoly.one(2)),
        ],
        ids=["max-deg", "laurent-series", "series-laurent"],
    )
    def test_mismatched_rings_rejected(self, op, left, right):
        a = SquareMatrix(identity_rows(2, left))
        b = SquareMatrix(identity_rows(2, right))
        with pytest.raises(UsageError):
            _MATRIX_OPS[op][0](a, b)

    @pytest.mark.parametrize("op", sorted(_MATRIX_OPS))
    def test_mismatched_sizes_rejected(self, op):
        one = TruncatedSeries.one(2, 3)
        a = SquareMatrix(identity_rows(2, one))
        b = SquareMatrix(identity_rows(3, one))
        with pytest.raises(UsageError, match="size mismatch"):
            _MATRIX_OPS[op][0](a, b)
        with pytest.raises(UsageError, match="size mismatch"):
            _MATRIX_OPS[op][0](b, a)


class TestPackedMatrixKeys:
    # a matrix term's key packs the monomial key, row and column as
    # m << 2b | i << b | j; each operation on that map agrees with the
    # oracles that combine entries one by one
    @settings(max_examples=200, deadline=None)
    @given(packed_matrix_pairs())
    def test_ops_match_the_entrywise_oracles(self, pair):
        a, b = pair
        for op, (fast, slow) in _MATRIX_OPS.items():
            got, want = fast(a, b), slow(a, b)
            assert got == want and hash(got) == hash(want), op
            assert got.rows == want.rows, op
        assert -a == SquareMatrix([[-e for e in row] for row in a.rows])
        same = all(x == y for x, y in zip(a.rows, b.rows))
        assert (a == b) == same and (b == a) == same
        assert a == SquareMatrix(a.rows)

    @settings(max_examples=100, deadline=None)
    @given(packed_matrix_pairs())
    def test_rows_round_trip_and_copies(self, pair):
        for m in pair:
            rebuilt = SquareMatrix(m.rows)
            assert rebuilt == m and hash(rebuilt) == hash(m)
            assert rebuilt._terms == m._terms and rebuilt.rows == m.rows
            bits = (m.size - 1).bit_length()
            assert all(
                (key >> bits & (1 << bits) - 1) < m.size
                and (key & (1 << bits) - 1) < m.size
                for key in m._terms
            )
            for how in COPIES.values():
                copied = how(m)
                assert type(copied) is SquareMatrix
                assert copied == m and hash(copied) == hash(m)
                assert copied.rows == m.rows

    @settings(max_examples=100, deadline=None)
    @given(packed_matrix_pairs())
    def test_a_one_by_one_matrix_is_not_its_entry(self, pair):
        # size 1 has b = 0, so the matrix's map is its entry's map
        e = pair[0].rows[0][0]
        m = SquareMatrix([[e]])
        assert m._terms == e._terms
        assert m != e and e != m
        assert m.rows == ((e,),)
        with pytest.raises(UsageError, match="cannot combine"):
            m + e
        with pytest.raises(UsageError, match="cannot combine"):
            e * m


class TestJson:
    def test_terms_sorted(self):
        p = LaurentPoly(2, {(1, 0): 1, (-1, 0): 1, (0, 1): 1})
        es = [tuple(item["e"]) for item in p.to_dict()["terms"]]
        assert es == sorted(es)
        # coefficients print exactly, as decimal strings
        big = LaurentPoly(2, {(1, -2): 3, (0, 0): -(10**30)})
        assert big.to_dict()["terms"][0]["c"] == str(-(10**30))
        s = TruncatedSeries(2, 4, {(1, 2): 7, (0, 0): 1})
        assert s.to_dict() == {
            "n_vars": 2,
            "max_deg": 4,
            "terms": [{"e": [0, 0], "c": "1"}, {"e": [1, 2], "c": "7"}],
        }


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


class TestCopyAndPickle:
    # the immutability guard refuses __setattr__, so copies and pickles
    # must rebuild a value rather than restore its slots through it
    @pytest.mark.parametrize("how", sorted(COPIES))
    @pytest.mark.parametrize("kind", ["laurent", "series", "matrix"])
    def test_round_trip_to_an_equal_immutable_value(self, kind, how):
        value = {
            "laurent": LaurentPoly(2, {(1, -2): 3, (0, 0): -(10**30)}),
            "series": TruncatedSeries(2, 4, {(1, 2): 7, (0, 0): 1}),
            "matrix": SquareMatrix(identity_rows(2, u(1, 2, 3))),
        }[kind]
        got = COPIES[how](value)
        assert type(got) is type(value)
        assert got == value and hash(got) == hash(value)
        with pytest.raises(AttributeError, match="is immutable"):
            got.n_vars = 0


class TestRawBuilders:
    # the unchecked builder sets slots through member descriptors; what it
    # builds must be indistinguishable from a constructor-built value.  A
    # 2 x 2 matrix has index width b = 1: the term of monomial key m at row
    # i and column j has key m << 2 | i << 1 | j.  A class on 3 strands has
    # b = 2, and keys of 0-based row and column over the exponents of its
    # 1-based monomial
    @staticmethod
    def _pair(kind):
        rows = identity_rows(2, u(1, 2, 3))
        u1 = _pack((1, 0), 2)
        exact = identity_rows(2, LaurentPoly(2, {(1, -2): 3, (0, 0): -(10**30)}))
        coords = {((1, 2), 1, 3): -4, ((2, 2), 2, 1): 10**30}
        return {
            "laurent": (
                LaurentPoly(2, {(1, -2): 3, (0, 0): -(10**30)}),
                LaurentPoly._raw(1, 2, None, {_pack_laurent((1, -2)): 3, 0: -(10**30)}),
            ),
            "series": (
                TruncatedSeries(2, 4, {(1, 2): 7, (0, 0): 1}),
                TruncatedSeries._raw(1, 2, 4, {_pack((1, 2), 2): 7, 0: 1}),
            ),
            "matrix": (
                SquareMatrix(rows),
                SquareMatrix._raw(2, 2, 3, {u1 << 2: 1, u1 << 2 | 1 << 1 | 1: 1}),
            ),
            "laurent-matrix": (
                SquareMatrix(exact),
                SquareMatrix._raw(2, 2, None, {
                    key << 2 | i << 1 | i: coeff
                    for i in range(2)
                    for key, coeff in ((_pack_laurent((1, -2)), 3), (0, -(10**30)))
                }),
            ),
            "class": (
                GradedClass(3, 2, coords),
                GradedClass._raw(3, 3, 2, {
                    _pack((1, 1, 0), 3) << 4 | 0 << 2 | 2: -4,
                    _pack((0, 2, 0), 3) << 4 | 1 << 2 | 0: 10**30,
                }),
            ),
        }[kind]

    @pytest.mark.parametrize("how", sorted(COPIES))
    @pytest.mark.parametrize(
        "kind", ["laurent", "series", "matrix", "laurent-matrix", "class"]
    )
    def test_equal_to_the_constructed_value(self, kind, how):
        built, raw = self._pair(kind)
        assert type(raw) is type(built)
        assert raw == built and hash(raw) == hash(built)
        copied = COPIES[how](raw)
        assert type(copied) is type(built)
        assert copied == built and hash(copied) == hash(built)
        for value in (raw, copied):
            # the ring elements' slots are declared on their shared base
            slots = [n for c in type(value).__mro__ for n in getattr(c, "__slots__", ())]
            assert slots
            for name in slots:
                with pytest.raises(AttributeError, match="is immutable"):
                    setattr(value, name, None)
                with pytest.raises(AttributeError, match="is immutable"):
                    delattr(value, name)


class TestZeroOperands:
    # a + 0, 0 + b and a - 0 return the nonzero operand itself: values are
    # immutable, so nothing is copied, and the result is the same value
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 4).flatmap(
            lambda d: st.dictionaries(
                st.integers(0, d).flatmap(
                    lambda k: st.integers(0, k).map(lambda a: (a, k - a))
                ),
                st.integers(-3, 3),
                max_size=4,
            ).map(lambda terms: TruncatedSeries(2, d, terms))
        ).filter(lambda s: not s.is_zero())
    )
    def test_zero_operand_returns_the_other(self, a):
        zero = zero_like(a)
        rebuilt = TruncatedSeries(a.n_vars, a.max_deg, a.terms)
        for got in (a + zero, zero + a, a - zero):
            assert got is a
            assert got == rebuilt and hash(got) == hash(rebuilt)
        assert zero - a == -a
        assert (a - a).is_zero()

    def test_zero_of_another_ring_still_rejected(self):
        a = TruncatedSeries(2, 3, {(1, 0): 1})
        for zero in (TruncatedSeries.zero(2, 4), TruncatedSeries.zero(3, 3)):
            for op in (operator.add, operator.sub):
                with pytest.raises(UsageError):
                    op(a, zero)
                with pytest.raises(UsageError):
                    op(zero, a)
