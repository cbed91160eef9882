"""Coefficient extraction, graded classes, and exact rank/kernel."""

import hashlib
import json
import operator
import random
import sys
from collections import Counter
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gassner import graded
from gassner.braid import evaluate_truncated, gassner_generator, parse_word
from gassner.graded import (
    GradedClass,
    IntMatrix,
    _commutator_matrix,
    _compose,
    _decode,
    _degree_terms,
    _lift,
    _ring_bracket,
    assemble_phi_matrix,
    first_degree,
    integer_kernel,
    integer_rank,
    kernel_report,
    phi,
    pi,
)
from gassner.hall import (
    basic_commutators,
    commutator_to_word,
    parse_commutator,
    weight,
)
from gassner.laurent import (
    DomainError,
    SquareMatrix,
    TruncatedSeries,
    UsageError,
    series_matrix_inverse,
)
from oracle import (
    bracket,
    congruent_parts,
    degree_coords,
    dense_bareiss,
    dense_rank,
    graded_parts,
    matrix_entrywise,
    matrix_product,
    minus_identity,
    pi_from_parts,
    retruncate,
    stack_coords,
)
from test_laurent import COPIES, series_matrix_pairs


def _oracle_rank(rows):
    rows = [list(r) for r in rows]
    return dense_bareiss(rows, len(rows[0]) if rows else 0)


def _oracle_kernel(rows):
    """Identity parts below the rank of dense Bareiss on [M | I], made primitive."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    aug = [list(r) + [int(i == k) for k in range(n_rows)] for i, r in enumerate(rows)]
    rank = dense_bareiss(aug, n_cols)
    kernel = []
    for row in aug[rank:]:
        vec = row[n_cols:]
        content = gcd(*vec)
        sign = 1 if next(v for v in vec if v) > 0 else -1
        kernel.append(tuple(sign * v // content for v in vec))
    return kernel


@st.composite
def degenerate_int_matrices(draw):
    """Small integer matrices with zero rows, repeated rows and zero columns."""
    n_cols = draw(st.integers(1, 6))
    rows = draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=n_cols, max_size=n_cols),
            min_size=1,
            max_size=6,
        )
    )
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, [0] * n_cols)
    for _ in range(draw(st.integers(0, 2))):
        source = draw(st.sampled_from(rows))
        scale = draw(st.sampled_from((1, -1, 2, -3)))
        rows.insert(draw(st.integers(0, len(rows))), [scale * v for v in source])
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, n_cols))
        rows = [row[:at] + [0] + row[at:] for row in rows]
        n_cols += 1
    return rows


@st.composite
def swap_forcing_int_matrices(draw):
    """Integer matrices whose pivots lie below their step, so rows swap.

    Row i starts with at least ``n_rows - 1 - i`` zeros, an upside-down
    staircase: the first row is zero in column 0 and the last row is not,
    so column 0 takes its pivot from below, and later columns tend to.
    Scaled copies of earlier rows make some rows dependent.
    """
    n_rows = draw(st.integers(2, 7))
    n_cols = draw(st.integers(1, 7))
    entries = st.integers(-5, 5)
    rows = []
    for i in range(n_rows):
        lead = min(n_cols, n_rows - 1 - i)
        if rows and draw(st.integers(0, 3)) == 0:
            source = draw(st.sampled_from(rows))
            scale = draw(st.sampled_from((1, -1, 2, -3)))
            row = [scale * v for v in source]
        else:
            row = [draw(entries) for _ in range(n_cols)]
        rows.append([0] * lead + row[lead:])
    rows[-1][0] = draw(entries.filter(bool))
    return rows


def _int_matrix(rows):
    return IntMatrix(
        tuple(range(len(rows))),
        tuple(range(len(rows[0]))),
        tuple({j: v for j, v in enumerate(r) if v} for r in rows),
    )


def _dense_rows(m):
    return [[row.get(c, 0) for c in range(m.col_count)] for row in m.rows]


@lru_cache(maxsize=None)
def _class_matrix_kernel(n, w):
    """``integer_kernel`` of the weight-w class matrix, shared by the tests."""
    return integer_kernel(assemble_phi_matrix(n, w))


def _rank_mod_2(vectors):
    basis = []
    for vec in vectors:
        bits = sum((v & 1) << j for j, v in enumerate(vec))
        for b in basis:
            bits = min(bits, bits ^ b)
        if bits:
            basis.append(bits)
            basis.sort(reverse=True)
    return len(basis)


def series_matrix(entries, n, d):
    return SquareMatrix(
        [[TruncatedSeries(n, d, e) for e in row] for row in entries]
    )


def zero_series_matrix(size, d):
    return series_matrix([[{}] * size for _ in range(size)], size, d)


class TestPi:
    def test_single_off_diagonal_term(self):
        # M = I + e[1,2]((t1-1)(t3-1)) at degree 2; pi reads X = M - I
        zero = {}
        x = series_matrix(
            [
                [zero, {(1, 0, 1): 1}, zero],
                [zero, zero, zero],
                [zero, zero, zero],
            ],
            3,
            2,
        )
        cls = pi(x, 2)
        assert cls.coords == {((1, 3), 1, 2): 1}

    def test_rank_one_perturbation_block(self):
        # the 2x2 block M = [[1+q, -q], [q, 1-q]] with q = (t1-1)(t2-1),
        # so X = M - I = [[q, -q], [q, -q]]
        q = (1, 1)
        x = series_matrix(
            [
                [{q: 1}, {q: -1}],
                [{q: 1}, {q: -1}],
            ],
            2,
            2,
        )
        cls = pi(x, 2)
        assert cls.coords == {
            ((1, 2), 1, 1): 1,
            ((1, 2), 2, 2): -1,
            ((1, 2), 2, 1): 1,
            ((1, 2), 1, 2): -1,
        }

    def test_identity_gives_empty_class(self):
        # the identity's deviation is the zero matrix
        x = zero_series_matrix(4, 3)
        for i in (1, 2, 3):
            assert pi(x, i).is_zero()

    def test_congruence_violation_names_offender(self):
        # M = I + e[1,2](t1-1) is not I mod J^2
        zero = {}
        x = series_matrix([[zero, {(1, 0): 1}], [zero, zero]], 2, 3)
        with pytest.raises(DomainError) as err:
            pi(x, 2)
        assert "(1,2)" in str(err.value)
        assert "degree-1" in str(err.value)

    def test_truncation_below_degree_rejected(self):
        x = zero_series_matrix(2, 1)
        with pytest.raises(UsageError):
            pi(x, 2)

    def test_exact_matrix_rejected(self):
        # a Laurent matrix's packed keys are no series keys: both readers
        # refuse it rather than read A(1,3) - I as zero
        x = gassner_generator(3, 1, 3)
        assert not x.is_identity()
        with pytest.raises(UsageError, match="expects a series matrix"):
            first_degree(x)
        with pytest.raises(UsageError, match="expects a series matrix"):
            pi(x, 1)

    def test_independent_of_truncation_depth(self):
        word = parse_word("[x2,x1]", 4)
        classes = [
            pi(minus_identity(evaluate_truncated(word, d)), 2) for d in (2, 3, 4, 5)
        ]
        assert all(c == classes[0] for c in classes)


@st.composite
def near_identity_series_matrices(draw):
    """Deviations N = M - I of series matrices M = I + N near the identity.

    Every term of N lies in degrees 1..max_deg.  As for Gassner images, the
    variable count equals the size.
    """
    size = n_vars = draw(st.integers(1, 3))
    max_deg = draw(st.integers(1, 4))
    monomials = st.lists(
        st.integers(0, n_vars - 1), min_size=1, max_size=max_deg
    ).map(lambda vs: tuple(vs.count(v) for v in range(n_vars)))
    entries = [
        [
            draw(st.dictionaries(monomials, st.integers(-3, 3), max_size=3))
            for _ in range(size)
        ]
        for _ in range(size)
    ]
    return series_matrix(entries, n_vars, max_deg)


class TestGradedParts:
    @settings(max_examples=100, deadline=None)
    @given(near_identity_series_matrices())
    def test_parts_rebuild_difference_and_agree_with_pi(self, m):
        parts = graded_parts(m)
        n_vars, max_deg = m.rows[0][0].n_vars, m.rows[0][0].max_deg
        rebuilt = [[{} for _ in range(m.size)] for _ in range(m.size)]
        for degree, part in parts.items():
            assert part
            for (row, col, exps), c in part.items():
                assert sum(exps) == degree and c != 0
                rebuilt[row][col][exps] = c
        assert series_matrix(rebuilt, n_vars, max_deg) == m

        for i in range(1, max_deg + 1):
            if min(parts, default=i) >= i:
                expected = {
                    (tuple(k + 1 for k, x in enumerate(exps) for _ in range(x)),
                     row + 1, col + 1): c
                    for (row, col, exps), c in parts.get(i, {}).items()
                }
                assert pi(m, i).coords == expected
            else:
                with pytest.raises(DomainError, match=f"degree-{min(parts)} term") as err:
                    pi(m, i)
                with pytest.raises(DomainError) as want:
                    pi_from_parts(m, i)
                assert str(err.value) == str(want.value)

    def test_identity_has_no_parts(self):
        assert graded_parts(zero_series_matrix(3, 4)) == {}
        assert first_degree(zero_series_matrix(3, 4)) is None


class TestDegreeCoords:
    # the one reader of packed keys, decoded, against the oracle's
    # homogeneous parts and the tuple reader it replaced
    @settings(max_examples=150, deadline=None)
    @given(near_identity_series_matrices(), st.integers(1, 4))
    def test_reader_matches_parts_rekeyed(self, m, low):
        max_deg = m.rows[0][0].max_deg
        low = min(low, max_deg)
        parts = graded_parts(m)
        assert first_degree(m) == min(parts, default=None)
        try:
            congruent_parts(m, low)
        except DomainError as want:
            for i in range(low, max_deg + 1):
                for reader in (_degree_terms, degree_coords):
                    with pytest.raises(DomainError) as got:
                        reader(m, i, low)
                    assert str(got.value) == str(want)
            return
        for i in range(low, max_deg + 1):
            expected = {
                (tuple(k + 1 for k, x in enumerate(exps) for _ in range(x)),
                 row + 1, col + 1): c
                for (row, col, exps), c in parts.get(i, {}).items()
            }
            terms = _degree_terms(m, i, low)
            assert dict(zip(_decode(m.size, terms), terms.values())) == expected
            assert degree_coords(m, i, low) == expected
            # a map of degree-i keys only is returned as it is
            assert (terms is m._terms) == (set(parts) <= {i})


class TestPiAgainstParts:
    # pi reads packed keys and builds its class unchecked; the oracle reads
    # the homogeneous parts and rebuilds through the validating constructor
    @pytest.mark.parametrize("n", [4, 5])
    def test_basic_commutator_images_up_to_weight_five(self, n):
        for w in range(1, 6):
            for term in basic_commutators(n - 1, w):
                for depth in (w, w + 1):
                    x = _commutator_matrix(term, n, depth, 1)
                    cls = pi(x, w)
                    assert cls == pi_from_parts(x, w), (str(term), depth)
                    assert cls == GradedClass(cls.n, cls.degree, cls.coords)

    def test_strand_counts_in_turn_share_one_decoding_table(self, cold_caches):
        # decoded monomials are kept per variable count for the whole
        # command, so reading n = 4, then n = 5, then n = 4 again must
        # decode each key under its own count
        for n in (4, 5, 4):
            for w in range(1, 5):
                for term in basic_commutators(n - 1, w):
                    x = _commutator_matrix(term, n, w + 1, 1)
                    cls, want = pi(x, w), pi_from_parts(x, w)
                    assert cls == want, (n, str(term))
                    assert cls.coords == want.coords, (n, str(term))
        assert graded._monomials.cache_info().currsize == 2

    def test_image_read_above_its_weight_raises_the_parts_error(self):
        term = parse_commutator("[[x2,x1],x1]")
        x = _commutator_matrix(term, 4, 4, 1)
        with pytest.raises(DomainError) as want:
            pi_from_parts(x, 4)
        with pytest.raises(DomainError) as got:
            pi(x, 4)
        assert str(got.value) == str(want.value)
        assert "not congruent to I mod J^4" in str(got.value)


class TestPhi:
    def test_weight_one(self):
        n = 4
        for r in (1, 2, 3):
            cls = phi(parse_commutator(f"x{r}"), n)
            assert cls.coords == {
                ((n,), r, r): 1,
                ((n,), n, r): -1,
                ((r,), r, n): -1,
                ((r,), n, n): 1,
            }

    def test_weight_two(self):
        n = 4
        for r in (2, 3):
            for s in range(1, r):
                cls = phi(parse_commutator(f"[x{r},x{s}]"), n)
                assert cls.coords == {
                    (tuple(sorted((s, n))), s, r): -1,
                    (tuple(sorted((s, n))), n, r): 1,
                    (tuple(sorted((r, n))), r, s): 1,
                    (tuple(sorted((r, n))), n, s): -1,
                    (tuple(sorted((r, s))), r, n): -1,
                    (tuple(sorted((r, s))), s, n): 1,
                }

    def test_leaf_out_of_range(self):
        with pytest.raises(UsageError):
            phi(parse_commutator("x4"), 4)

    def test_additivity_of_concatenation(self):
        rng = random.Random(0x5EED)
        for _ in range(100):
            w = rng.choice((2, 3, 4))
            basis = basic_commutators(3, w)
            c1, c2 = rng.choice(basis), rng.choice(basis)
            word = commutator_to_word(c1, 4) * commutator_to_word(c2, 4)
            cls = pi(minus_identity(evaluate_truncated(word, w)), w)
            assert cls == phi(c1, 4) + phi(c2, 4)

    def test_inversion_negates(self):
        rng = random.Random(0xD1CE)
        for _ in range(100):
            w = rng.choice((2, 3, 4))
            c = rng.choice(basic_commutators(3, w))
            word = commutator_to_word(c, 4).inverse()
            cls = pi(minus_identity(evaluate_truncated(word, w)), w)
            assert cls == -phi(c, 4)

    def test_trace_zero_above_weight_one(self):
        for w in (2, 3, 4):
            for c in basic_commutators(3, w):
                cls = phi(c, 4)
                for mono in cls.monomials():
                    entries = cls.matrix_at(mono)
                    trace = sum(
                        v for (row, col), v in entries.items() if row == col
                    )
                    assert trace == 0

    def test_bracket_consistency(self):
        # the class of [a, b] is the graded bracket of the classes
        rng = random.Random(0xB00C)
        for _ in range(30):
            wa = rng.choice((1, 2, 3))
            wb = rng.choice((1, 2))
            a = rng.choice(basic_commutators(3, wa))
            b = rng.choice(basic_commutators(3, wb))
            word = (
                commutator_to_word(a, 4)
                * commutator_to_word(b, 4)
                * commutator_to_word(a, 4).inverse()
                * commutator_to_word(b, 4).inverse()
            )
            cls = pi(minus_identity(evaluate_truncated(word, wa + wb)), wa + wb)
            assert cls == bracket(phi(a, 4), phi(b, 4))

    def test_filtration_products_stay_congruent(self):
        # products of weight-w commutator words are I modulo degree w
        rng = random.Random(0xFADE)
        for _ in range(30):
            w = rng.choice((2, 3, 4))
            word = parse_word("", 4)
            for _ in range(rng.randint(1, 3)):
                word = word * commutator_to_word(
                    rng.choice(basic_commutators(3, w)), 4
                )
            x = minus_identity(evaluate_truncated(word, w))
            pi(x, w)  # raises DomainError if a lower degree survives

    @pytest.mark.parametrize("n, w", [(4, 5), (5, 4)])
    def test_phi_matches_flat_word_congruence(self, n, w):
        # the recursion returns zero below a term's weight without
        # computing there, so the flat word keeps pi's congruence check
        # independent: every weight-w commutator word lands in the w-th
        # congruence subgroup
        for term in basic_commutators(n - 1, w):
            word = commutator_to_word(term, n)
            assert phi(term, n) == pi(minus_identity(evaluate_truncated(word, w)), w)


class TestSignedImages:
    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_inverse_image_matches_series_inverse_and_inverse_word(self, w):
        # both signed deviations against the flat word and its inverse
        # minus I, below, at and past the weight; the sign -1 deviation
        # against the geometric-series inverse of the flat word minus I;
        # and the two composed to zero
        for term in basic_commutators(3, w):
            word = commutator_to_word(term, 4)
            for depth in sorted({0, 1, w - 1, w, w + 1, w + 2, 2 * w - 1}):
                image = _commutator_matrix(term, 4, depth, 1)
                inverse = _commutator_matrix(term, 4, depth, -1)
                flat = evaluate_truncated(word, depth)
                assert image == minus_identity(flat)
                assert inverse == minus_identity(
                    evaluate_truncated(word.inverse(), depth)
                )
                assert inverse == minus_identity(series_matrix_inverse(flat))
                assert _compose(image, inverse).is_zero()
                assert _compose(inverse, image).is_zero()

    def test_requests_never_exceed_term_weight(self, monkeypatch, cold_caches):
        # phi needs a weight-w image only through degree w, so no request
        # of the recursion, its children included, goes deeper than the
        # requested term's weight; on cold caches every child is requested
        # through the patched image function
        requests = []
        compute = graded._commutator_matrix.__wrapped__

        def recording(term, n, max_deg, sign):
            requests.append((term, max_deg))
            return compute(term, n, max_deg, sign)

        monkeypatch.setattr(graded, "_commutator_matrix", recording)
        kernel_report(4, 5)
        assert any(term.is_leaf for term, _ in requests)
        too_deep = [(str(t), d) for t, d in requests if d > weight(t)]
        assert not too_deep


class TestFlatImages:
    # images are term maps keyed by packed monomial key, row and column, and
    # every product of images multiplies those maps, not series entries
    def test_series_products_only_build_the_letters(self, monkeypatch, cold_caches):
        callers = Counter()
        mul = TruncatedSeries.__mul__

        def recording(a, b):
            callers[sys._getframe(1).f_code.co_name] += 1
            return mul(a, b)

        monkeypatch.setattr(TruncatedSeries, "__mul__", recording)
        kernel_report(4, 5)
        assert callers and set(callers) == {"_letter_rows"}

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_lift_relabels_the_degree_of_a_shared_map(self, w):
        # against the entrywise route: every entry raised by the oracle's
        # retruncate, rebuilt through the validating constructor
        for term in basic_commutators(3, w):
            for sign in (1, -1):
                image = _commutator_matrix(term, 4, w + 1, sign)
                lifted = graded._lift(image, 2 * w + 1)
                assert lifted._terms is image._terms
                assert lifted.max_deg == 2 * w + 1
                assert lifted == SquareMatrix(
                    [[retruncate(e, 2 * w + 1) for e in row] for row in image.rows]
                )

    # the recursion's bracket xy - yx subtracts y·x in place from the fresh
    # map of x * y; operands are lifted as the recursion lifts its children,
    # so their products reach past the truncation degree and are cut there
    @settings(max_examples=200, deadline=None)
    @given(series_matrix_pairs(), st.integers(0, 3))
    def test_in_place_bracket_matches_the_oracle(self, pair, extra):
        x, y = (_lift(m, m.max_deg + extra) for m in pair)
        before = dict(x._terms), dict(y._terms)
        got = _ring_bracket(x, y)
        want = matrix_entrywise(
            matrix_product(x, y), matrix_product(y, x), operator.sub
        )
        assert got == want and got.rows == want.rows
        assert 0 not in got._terms.values()
        assert (x._terms, y._terms) == before

    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_images_round_trip_through_rows(self, w):
        for term in basic_commutators(3, w):
            for depth, sign in ((w - 1, 1), (w, 1), (w + 2, -1)):
                image = _commutator_matrix(term, 4, depth, sign)
                rebuilt = SquareMatrix(image.rows)
                assert rebuilt == image and hash(rebuilt) == hash(image)
                for how in COPIES.values():
                    assert how(image) == image


@st.composite
def class_coords(draw, n=None, degree=None):
    """(n, degree, coords) of a valid class, every coefficient nonzero."""
    n = draw(st.integers(1, 5)) if n is None else n
    degree = draw(st.integers(1, 4)) if degree is None else degree
    mono = st.lists(st.integers(1, n), min_size=degree, max_size=degree).map(
        lambda ls: tuple(sorted(ls))
    )
    coord = st.tuples(mono, st.integers(1, n), st.integers(1, n))
    value = st.integers(-3, 3).filter(bool) | st.just(10**30)
    return n, degree, draw(st.dictionaries(coord, value, max_size=8))


@st.composite
def class_coords_pairs(draw):
    """Two classes' (n, degree, coords): equal with the coordinates listed
    in reverse, on one more strand, with one coefficient changed, or drawn
    independently of one size."""
    n, degree, coords = first = draw(class_coords())
    how = draw(st.sampled_from(["reversed", "wider", "changed", "drawn"]))
    if how == "reversed":
        return first, (n, degree, dict(reversed(coords.items())))
    if how == "wider":
        return first, (n + 1, degree, coords)
    if how == "changed" and coords:
        key = draw(st.sampled_from(sorted(coords)))
        return first, (n, degree, {**coords, key: coords[key] + 1 or 1})
    return first, draw(class_coords(n, degree))


class TestGradedClass:
    # a class holds packed keys; its coords are decoded from them, and
    # equality, hashing, copies and pickles follow equality of the coords
    @settings(max_examples=200, deadline=None)
    @given(class_coords_pairs())
    def test_packed_class_follows_its_coords(self, pair):
        (n, degree, coords), other = pair
        cls, second = GradedClass(n, degree, coords), GradedClass(*other)
        assert cls.coords == coords and second.coords == other[2]
        same = (n, degree, coords) == other
        assert (cls == second) == same and (second == cls) == same
        if same:
            assert hash(cls) == hash(second)
        if other[:2] == (n, degree):
            assert cls - second == -(second - cls)
            assert (cls - second).is_zero() == same
        for how in COPIES.values():
            copied = how(cls)
            assert copied.coords == coords
            assert copied == cls and hash(copied) == hash(cls)
            assert (copied == second) == same

    def test_zero_coefficients_pruned(self):
        cls = GradedClass(3, 1, {((1,), 1, 1): 1}) - GradedClass(
            3, 1, {((1,), 1, 1): 1}
        )
        assert cls.is_zero()

    def test_validation(self):
        with pytest.raises(UsageError):
            GradedClass(3, 2, {((2, 1), 1, 1): 1})  # unsorted monomial
        with pytest.raises(UsageError):
            GradedClass(3, 2, {((1, 4), 1, 1): 1})  # index out of range
        with pytest.raises(UsageError):
            GradedClass(3, 1, {((1,), 0, 1): 1})  # bad position
        with pytest.raises(UsageError):
            # a packed exponent takes one byte, as in a series key
            GradedClass(1, 256, {((1,) * 256, 1, 1): 1})
        # n and the degree are checked where they enter, with no coords
        for n, degree in [
            (-2, 5), (0, 1), (3, 0), (3, 300), (3, -1), (2.5, 1), (3, 1.5), ("3", 1)
        ]:
            with pytest.raises(UsageError):
                GradedClass(n, degree)
        # a coefficient is an int, as in a ring value
        for value in (1.5, "2", True):
            with pytest.raises(UsageError, match="not an int"):
                GradedClass(3, 1, {((1,), 1, 1): value})

    def test_mismatch_rejected(self):
        with pytest.raises(UsageError):
            GradedClass(3, 1) + GradedClass(3, 2)

    @pytest.mark.parametrize(
        "shape, named", [((3, 2), "n=3, degree=2"), ((4, 1), "n=4, degree=1")]
    )
    def test_mismatch_names_each_class_n_and_degree(self, shape, named):
        # not as a ring's truncation degree or a matrix size
        one, other = GradedClass(3, 1, {((1,), 1, 1): 1}), GradedClass(*shape)
        for a, b in ((one, other), (other, one)):
            for combine in (lambda: a + b, lambda: a - b):
                with pytest.raises(UsageError, match="mismatched classes") as info:
                    combine()
                text = str(info.value)
                assert "n=3, degree=1" in text and named in text
                assert "max_deg" not in text and "size" not in text

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_copy_and_pickle_round_trip(self, how):
        value = GradedClass(3, 2, {((1, 2), 1, 3): -4, ((2, 2), 2, 1): 10**30})
        got = COPIES[how](value)
        assert type(got) is GradedClass
        assert got == value and hash(got) == hash(value)
        with pytest.raises(AttributeError, match="is immutable"):
            got.degree = 0


class TestIntMatrix:
    def test_weight_two_row_support(self):
        m = assemble_phi_matrix(4, 2)
        assert m.row_count == 3
        for row in m.rows:
            assert sum(1 for c in range(m.col_count) if row.get(c, 0)) == 6

    @pytest.mark.parametrize("n,w", [(4, 5), (5, 5)])
    def test_rows_are_sparse_phi_coordinates(self, n, w):
        m = assemble_phi_matrix(n, w)
        for term, row in zip(m.row_labels, m.rows, strict=True):
            assert isinstance(row, dict)
            assert all(row.values())
            assert all(c in range(m.col_count) for c in row)
            assert {m.col_labels[c]: v for c, v in row.items()} == phi(term, n).coords

    @pytest.mark.parametrize(
        "n,w", [(4, 5), (5, 5), (4, 6), (3, 6), (6, 5), (3, 8), (5, 6), (2, 3)]
    )
    def test_stacking_matches_the_tuple_route(self, n, w):
        # the oracle decodes every class to coordinates before stacking;
        # the library ranks the distinct monomials and sorts packed keys.
        # (3,6) has classes that are zero and (2,3) an empty basis
        m = assemble_phi_matrix(n, w)
        basis = basic_commutators(n - 1, w)
        want = stack_coords(
            basis, [degree_coords(_commutator_matrix(t, n, w, 1), w, w) for t in basis]
        )
        assert m.row_labels == want.row_labels
        assert m.col_labels == want.col_labels
        assert [sorted(r.items()) for r in m.rows] == [
            sorted(r.items()) for r in want.rows
        ]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 7).flatmap(
        lambda n: st.integers(1, 8).flatmap(
            lambda d: st.lists(class_coords(n, d), max_size=5)
        )
    ))
    def test_stacking_sorts_packed_keys_as_coordinates(self, drawn):
        # up to 7 variables and degree 8, so monomial keys span several
        # exponent bytes and the ranked monomial sits above row and column
        classes = [GradedClass(*c) for c in drawn]
        labels = tuple(range(len(classes)))
        got = graded._stack(labels, classes)
        want = stack_coords(labels, [c[2] for c in drawn])
        assert got.col_labels == want.col_labels
        assert got.rows == want.rows

    def test_elimination_leaves_rows_unchanged(self):
        m = assemble_phi_matrix(4, 5)
        before = [dict(row) for row in m.rows]
        rank, kernel = integer_rank(m), integer_kernel(m)
        assert list(m.rows) == before
        assert (integer_rank(m), integer_kernel(m)) == (rank, kernel)
        assert list(m.rows) == before

    def test_assembly_memory_with_images_cached(self):
        # rows hold only the nonzeros (5,218 of 204 x 1,117 cells at (5,5)).
        # Measured peak 1.06 MB on Python 3.11; dense rows peaked at 2.62 MB.
        # The bound leaves 40% headroom over the sparse peak.
        import tracemalloc

        assemble_phi_matrix(5, 5)
        tracemalloc.start()
        try:
            assemble_phi_matrix(5, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_row_counts(self):
        assert assemble_phi_matrix(4, 3).row_count == 8
        assert assemble_phi_matrix(4, 5).row_count == 48

    def test_rank_zero_matrix(self):
        assert dense_rank([[0, 0], [0, 0]]) == 0
        assert dense_rank([]) == 0

    def test_rank_small_fixtures(self):
        assert dense_rank([[1, 0], [0, 1]]) == 2
        assert dense_rank([[1, 2], [2, 4]]) == 1
        assert integer_rank(assemble_phi_matrix(4, 3)) == 8
        assert integer_rank(assemble_phi_matrix(4, 4)) == 18

    def test_rank_against_sympy(self):
        import sympy

        rng = random.Random(3)
        for _ in range(25):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = [
                [rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)
            ]
            rank = sympy.Matrix(m).rank()
            assert integer_rank(_int_matrix(m)) == rank
            kernel = integer_kernel(_int_matrix(m))
            assert len(kernel) == rows - rank
            for vec in kernel:
                for c in range(cols):
                    assert sum(vec[r] * m[r][c] for r in range(rows)) == 0
                assert gcd(*vec) == 1
                assert next(v for v in vec if v) > 0

    @settings(max_examples=300, deadline=None)
    @given(degenerate_int_matrices())
    def test_elimination_matches_dense_bareiss(self, rows):
        assert integer_rank(_int_matrix(rows)) == _oracle_rank(rows)
        assert integer_kernel(_int_matrix(rows)) == _oracle_kernel(rows)

    @settings(max_examples=300, deadline=None)
    @given(swap_forcing_int_matrices())
    def test_pivot_index_keeps_bareiss_swaps(self, rows):
        # every row after the sparse elimination of [M | I] is a nonzero
        # multiple of the dense Bareiss row at its position, so filing rows
        # by least column picked the same rows and swapped them the same way
        n_rows, n_cols = len(rows), len(rows[0])
        aug = [row + [int(i == k) for k in range(n_rows)] for i, row in enumerate(rows)]
        dense = [list(row) for row in aug]
        sparse = [{j: v for j, v in enumerate(row) if v} for row in aug]
        rank = dense_bareiss(dense, n_cols)
        assert graded._bareiss(sparse, n_cols) == rank
        for got, want in zip(sparse, dense, strict=True):
            lead = next(j for j, v in enumerate(want) if v)
            assert got.get(lead)
            assert all(
                got.get(j, 0) * want[lead] == v * got[lead] for j, v in enumerate(want)
            )
        assert integer_rank(_int_matrix(rows)) == _oracle_rank(rows)
        assert integer_kernel(_int_matrix(rows)) == _oracle_kernel(rows)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(degenerate_int_matrices(), swap_forcing_int_matrices()), st.data()
    )
    def test_rank_is_free_of_row_and_column_order(self, rows, data):
        # integer_rank reduces rows shortest first, against pivots keyed by
        # leading column, so every order of rows and columns is exercised
        perm_rows = data.draw(st.permutations(rows))
        perm_cols = data.draw(st.permutations(range(len(rows[0]))))
        permuted = [[row[j] for j in perm_cols] for row in perm_rows]
        assert integer_rank(_int_matrix(permuted)) == _oracle_rank(rows)

    @pytest.mark.parametrize(
        "n,w", [(4, 5), (5, 5), (4, 6), (3, 6), (6, 5), (5, 6), (4, 7)]
    )
    def test_row_order_rank_matches_the_bareiss_route(self, n, w):
        m = assemble_phi_matrix(n, w)
        assert integer_rank(m) == dense_rank(_dense_rows(m))

    @pytest.mark.parametrize("n,w", [(4, 5), (4, 6)])
    def test_class_matrix_kernel_matches_dense_bareiss(self, n, w):
        m = assemble_phi_matrix(n, w)
        assert integer_kernel(m) == _oracle_kernel(_dense_rows(m))

    def test_kernel_report_rank_matches_integer_rank(self):
        assert (
            kernel_report(4, 6).rank
            == integer_rank(assemble_phi_matrix(4, 6))
            == 69
        )

    def test_kernel_empty_when_full_rank(self):
        assert integer_kernel(assemble_phi_matrix(4, 4)) == []

    def test_kernel_vectors_are_primitive_and_annihilate(self):
        m = assemble_phi_matrix(4, 5)
        kernel = integer_kernel(m)
        assert kernel
        from math import gcd

        for vec in kernel:
            content = 0
            for v in vec:
                content = gcd(content, v)
            assert content == 1
            leading = next(v for v in vec if v)
            assert leading > 0
            for c in range(m.col_count):
                assert sum(vec[r] * m.rows[r].get(c, 0) for r in range(48)) == 0

    def test_kernel_contains_known_relation(self):
        m = assemble_phi_matrix(4, 5)
        labels = list(m.row_labels)
        i1 = labels.index(parse_commutator("[[[x2,x1],x1],[x3,x1]]"))
        i2 = labels.index(parse_commutator("[[[x3,x1],x1],[x2,x1]]"))
        vec = [0] * 48
        vec[i1], vec[i2] = 1, -1
        for c in range(m.col_count):
            assert sum(vec[r] * m.rows[r].get(c, 0) for r in range(48)) == 0

    def test_kernel_report_consistency(self):
        report = kernel_report(4, 5)
        assert report.rank + len(report.kernel) == 48
        assert report.rank < report.expected == 48
        assert not report.injective

    def test_kernel_report_sanity_weight_three(self):
        report = kernel_report(4, 3)
        assert report.injective and report.kernel == []


class TestKernelPins:
    # sha256 of json.dumps(integer_kernel(...)) and the rank, so that a change
    # of the elimination route that moves any kernel vector shows here
    @pytest.mark.parametrize(
        "n,w,rank,digest",
        [
            (5, 5, 169, "745ac20218d1670f2543e0dbf1808b9bc0d44841a360ee9267ad55c8a3f74536"),
            (6, 5, 474, "63c734c991e4f73784c65cb9674f8f2baa7eb1abf64220a4125a24b2f2e29f4a"),
            (5, 6, 330, "304df24850ac50333164241170f0ccd248baac18ef0d368db10b82e453a88603"),
            (4, 7, 148, "36f7b361b18ae6b961a369b350a970029e1cff11e4fcbe08be4a749e00758908"),
        ],
    )
    def test_kernel_and_rank_are_pinned(self, n, w, rank, digest):
        kernel = _class_matrix_kernel(n, w)
        assert hashlib.sha256(json.dumps(kernel).encode()).hexdigest() == digest
        assert integer_rank(assemble_phi_matrix(n, w)) == rank


def _unsaturated(n, w, mod_2_rank, size):
    return pytest.param(
        n,
        w,
        marks=pytest.mark.xfail(
            strict=True,
            reason=f"the {size} primitive kernel vectors at ({n},{w}) have rank "
            f"{mod_2_rank} mod 2, so they span a sublattice of index at least "
            f"2^{size - mod_2_rank}; saturation (Hermite normal form) is not done",
        ),
    )


class TestKernelSaturation:
    """The kernel basis spans the whole integer kernel, not a sublattice.

    Certificate: each vector has a coordinate equal to +-1 at which every
    other vector is 0, so the maximal minor on those coordinates is +-1 and
    any integer kernel vector has integer coordinates in the basis.  A
    saturated basis also stays independent mod 2, which is checked first
    because its failure proves a proper sublattice.
    """

    @pytest.mark.parametrize(
        "n,w",
        [
            (4, 5),
            (5, 5),
            _unsaturated(4, 6, 39, 47),
            _unsaturated(6, 5, 143, 150),
            _unsaturated(5, 6, 223, 340),
            _unsaturated(4, 7, 82, 164),
        ],
    )
    def test_basis_spans_integer_kernel(self, n, w):
        kernel = _class_matrix_kernel(n, w)
        assert kernel
        assert _rank_mod_2(kernel) == len(kernel)
        for k, vec in enumerate(kernel):
            assert any(
                abs(v) == 1
                and all(other[j] == 0 for i, other in enumerate(kernel) if i != k)
                for j, v in enumerate(vec)
            )


class TestLeftNormedLaw:
    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("s", [3, 4])
    def test_lower_weights(self, n, s):
        from gassner.graded import sfold_property_check

        report = sfold_property_check(n, s)
        assert report.ok
        # weight three admits only left-normed basic commutators
        if s == 3:
            assert report.other_count == 0

    def test_weight_below_three_rejected(self):
        from gassner.graded import sfold_property_check

        with pytest.raises(UsageError):
            sfold_property_check(4, 2)
