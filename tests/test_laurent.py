"""Ring arithmetic, the series variables, and matrix operations.

The tests reach the series ring from Laurent polynomials through the
oracle's binomial expansion ``from_laurent``; the package has no such
conversion.
"""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gassner.laurent import (
    DomainError,
    LaurentPoly,
    SquareMatrix,
    TruncatedSeries,
    UsageError,
    identity_rows,
    retruncate,
    series_matrix_inverse,
)
from oracle import from_laurent, laurent_determinant, specialize, specialize_poly


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
        assert (t1 * t1_inv).is_one()

    def test_two_by_two_determinant_identity(self):
        # expansion of the 2x2 generator determinant done two ways
        t1, t2 = t(1), t(2)
        one = LaurentPoly.one(2)
        lhs = (one - t1 + t1 * t2) * t1 - t1 * (one - t1) * (one - t2)
        assert lhs == t1 * t2

    def test_mismatched_vars_rejected(self):
        with pytest.raises(UsageError):
            LaurentPoly.var(2, 1) + LaurentPoly.var(3, 1)

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
        assert from_laurent(p * p_inv, d).is_one()

    @settings(max_examples=100, deadline=None)
    @given(_small_polys, _small_polys, _small_polys, st.integers(0, 5))
    def test_series_ring_laws(self, pa, pb, pc, d):
        a, b, c = (from_laurent(p, d) for p in (pa, pb, pc))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestRetruncate:
    @settings(max_examples=100, deadline=None)
    @given(_small_polys, st.integers(0, 6), st.integers(0, 6), st.integers(0, 3))
    def test_lower_truncates_and_lift_round_trips(self, p, top, low, extra):
        low = min(low, top)
        s = from_laurent(p, top)
        lowered = retruncate(s, low)
        assert lowered == from_laurent(p, low)
        assert lowered == TruncatedSeries(
            2, low, {e: c for e, c in s.terms().items() if sum(e) <= low}
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
            2, top, {e: c for e, c in y.terms().items() if sum(e) >= gap}
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
            assert product.is_one()

    @pytest.mark.parametrize("power", [0, 2, -2, 3])
    def test_var_rejects_powers_other_than_plus_minus_one(self, power):
        with pytest.raises(UsageError, match="must be ±1"):
            TruncatedSeries.var(2, 3, 1, power)

    def test_inverse_pair_truncates_to_one(self):
        one = TruncatedSeries.one(2, 2)
        a = one + u(1, 2, 2)
        b = TruncatedSeries(2, 2, {(0, 0): 1, (1, 0): -1, (2, 0): 1})
        assert (a * b).is_one()

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
            assert laurent_determinant(m).is_one()

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
        ],
        ids=["ragged", "empty", "laurent-beside-series", "mixed-max-deg"],
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
