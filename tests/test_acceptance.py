"""Acceptance criteria, one test per criterion.

Every check is exact integer or exact polynomial equality; there are no
numerical tolerances.  Each test prints a single PASS line with its
runtime so the suite doubles as a report:

    pytest tests/test_acceptance.py -v -s
"""

import random
import time

from gassner.braid import (
    BraidLetter,
    BraidWord,
    evaluate_exact,
    evaluate_truncated,
    gassner_generator,
    parse_word,
)
from gassner.graded import (
    assemble_phi_matrix,
    integer_kernel,
    integer_rank,
    phi,
    pi,
    sfold_property_check,
    verify_tables,
)
from gassner.hall import basic_commutators, commutator_to_word, parse_commutator, witt_rank
from gassner.laurent import LaurentPoly
from oracle import (
    delete_strand_reduction,
    dense_rank,
    densify,
    from_laurent,
    laurent_determinant,
    map_entries,
    minus_identity,
    specialize,
)
from gassner.search import (
    BREAKDOWN_COMMUTATORS,
    BREAKDOWN_WORD_TEXTS,
    SearchConfig,
    run_search,
)


class _Timer:
    def __init__(self, label):
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            print(f"ACCEPTANCE {self.label}: PASS ({elapsed:.2f}s)")


def test_01_generator_sanity():
    with _Timer("1 generator sanity"):
        for n in range(2, 7):
            for s in range(2, n + 1):
                for r in range(1, s):
                    g = gassner_generator(n, r, s)
                    at_one = g
                    for var in range(1, n + 1):
                        at_one = specialize(at_one, var)
                    assert at_one.is_identity()
                    det = laurent_determinant(g)
                    assert det == LaurentPoly.var(n, r) * LaurentPoly.var(n, s)


def test_02_weight_one_and_two_fixtures():
    with _Timer("2 weight-1/2 class fixtures"):
        for n in (4, 5):
            for r in range(1, n):
                cls = phi(parse_commutator(f"x{r}"), n)
                assert cls.coords == {
                    ((n,), r, r): 1,
                    ((n,), n, r): -1,
                    ((r,), r, n): -1,
                    ((r,), n, n): 1,
                }
            for r in range(2, n):
                for s in range(1, r):
                    cls = phi(parse_commutator(f"[x{r},x{s}]"), n)
                    assert cls.coords == {
                        (tuple(sorted((s, n))), s, r): -1,
                        (tuple(sorted((s, n))), n, r): 1,
                        (tuple(sorted((r, n))), r, s): 1,
                        (tuple(sorted((r, n))), n, s): -1,
                        ((s, r), r, n): -1,
                        ((s, r), s, n): 1,
                    }


def test_03_weight_three_table():
    with _Timer("3 weight-3 table"):
        for n in (4, 5):
            report = verify_tables(n)
            (check,) = (c for c in report.checks if c.shape == "weight3")
            assert check.commutators_checked == witt_rank(n - 1, 3)
            # the weight-3 table holds as printed, unlisted factors zero
            assert not check.mismatches["printed"]
            assert not check.mismatches["corrected"]


def test_04_weight_four_tables():
    with _Timer("4 weight-4 tables"):
        for n in (4, 5):
            report = verify_tables(n)
            by_shape = {c.shape: c for c in report.checks}
            double = by_shape["weight4_double"]
            assert not double.mismatches["printed"]
            left = by_shape["weight4_left_normed"]
            # the once-repeated term reads as a single occurrence
            assert report.duplicate_resolution() == "-1"
            assert not left.mismatches["corrected"]
            assert left.mismatches["corrected_dup2"]
            # as printed, the table disagrees only at the repaired cells
            assert left.mismatches["printed"]


def test_05_injectivity_ranks():
    with _Timer("5 injectivity ranks"):
        for n in (3, 4, 5):
            for w in (1, 2, 3, 4):
                matrix = assemble_phi_matrix(n, w)
                assert integer_rank(matrix) == witt_rank(n - 1, w)


def test_06_weight_five_breakdown(breakdown_exact):
    with _Timer("6 weight-5 breakdown"):
        matrix = assemble_phi_matrix(4, 5)
        rank = integer_rank(matrix)
        assert rank < 48
        kernel = integer_kernel(matrix)
        assert len(kernel) == 48 - rank
        labels = list(matrix.row_labels)
        i1 = labels.index(parse_commutator(BREAKDOWN_COMMUTATORS[0]))
        i2 = labels.index(parse_commutator(BREAKDOWN_COMMUTATORS[1]))
        relation = [0] * 48
        relation[i1], relation[i2] = 1, -1
        for c in range(matrix.col_count):
            assert sum(relation[r] * matrix.rows[r].get(c, 0) for r in range(48)) == 0
        # the relation lies in the span of the kernel basis
        dense = [densify(v, 48) for v in kernel]
        assert dense_rank(dense + [relation]) == dense_rank(dense)

        w1 = parse_word(BREAKDOWN_WORD_TEXTS[0], 4)
        w2 = parse_word(BREAKDOWN_WORD_TEXTS[1], 4)
        assert evaluate_truncated(w1, 5) == evaluate_truncated(w2, 5)
        exact1, exact2 = breakdown_exact
        assert exact1 != exact2
        from gassner.search import breakdown_regression

        report = breakdown_regression()
        assert report.first_difference_degree == 6
        # stable across runs: an independent recomputation agrees
        assert breakdown_regression().first_difference_degree == 6


def test_07_left_normed_mechanism():
    with _Timer("7 left-normed mechanism (weight 5)"):
        report = sfold_property_check(4, 5)
        assert report.left_normed_count == 24
        assert report.failures_a == []
        assert report.failures_b == []
        assert report.full_rank


def test_08_witt_cross_check():
    with _Timer("8 Witt cross-check"):
        for w in range(1, 7):
            assert len(basic_commutators(3, w)) == witt_rank(3, w)
        assert witt_rank(3, 6) == 116
        assert witt_rank(3, 5) == 48
        # the two adjacent values are reported side by side because the
        # quoted figure 116 counts weight 6, not weight 5
        assert witt_rank(3, 5) != 116


def _random_free_word(rng, n, length):
    letters = tuple(
        BraidLetter(rng.randint(1, n - 1), n, rng.choice((1, -1)))
        for _ in range(length)
    )
    return BraidWord(n, letters)


def _random_word(rng, n, length):
    letters = []
    for _ in range(length):
        s = rng.randint(2, n)
        letters.append(BraidLetter(rng.randint(1, s - 1), s, rng.choice((1, -1))))
    return BraidWord(n, tuple(letters))


def test_09_property_suites():
    with _Timer("9 randomized property suites"):
        rng = random.Random(0xA11CE)

        # homomorphism
        for _ in range(100):
            n = rng.choice((3, 4, 5))
            a, b = (_random_word(rng, n, rng.randint(0, 4)) for _ in range(2))
            assert evaluate_exact(a * b) == evaluate_exact(a) * evaluate_exact(b)

        # truncation commutes with evaluation
        for _ in range(100):
            n = rng.choice((3, 4))
            d = rng.randint(0, 5)
            w = _random_word(rng, n, rng.randint(0, 4))
            exact = map_entries(evaluate_exact(w), lambda e: from_laurent(e, d))
            assert evaluate_truncated(w, d) == exact

        # identity at t = 1
        for _ in range(100):
            n = rng.choice((3, 4))
            m = evaluate_exact(_random_word(rng, n, rng.randint(1, 5)))
            for var in range(1, n + 1):
                m = specialize(m, var)
            assert m.is_identity()

        # deleting the last strand kills free-subgroup words
        for _ in range(100):
            n = rng.choice((3, 4, 5))
            m = evaluate_exact(_random_free_word(rng, n, rng.randint(1, 5)))
            assert delete_strand_reduction(m, n).is_identity()

        # trace zero in every factor for weights >= 2
        for _ in range(100):
            w = rng.choice((2, 3, 4))
            term = rng.choice(basic_commutators(3, w))
            cls = phi(term, 4)
            for mono in cls.monomials():
                assert (
                    sum(
                        v
                        for (row, col), v in cls.matrix_at(mono).items()
                        if row == col
                    )
                    == 0
                )

        # additivity and inversion of classes
        for _ in range(100):
            w = rng.choice((2, 3))
            c1 = rng.choice(basic_commutators(3, w))
            c2 = rng.choice(basic_commutators(3, w))
            word = commutator_to_word(c1, 4) * commutator_to_word(c2, 4)
            x = minus_identity(evaluate_truncated(word, w))
            assert pi(x, w) == phi(c1, 4) + phi(c2, 4)
            inverse = commutator_to_word(c1, 4).inverse()
            x = minus_identity(evaluate_truncated(inverse, w))
            assert pi(x, w) == -phi(c1, 4)


def test_10_search_harness():
    with _Timer("10 search harness"):
        cfg = SearchConfig(
            n=4, weight=5, coeff_bound=2, support_bound=3, budget=10_000
        )
        report = run_search(cfg)
        assert report.kernel_dimension == 4
        assert report.candidates, "expected a nonempty candidate stream"
        assert report.identities_found == 0
        for result in report.candidates:
            assert not result.is_identity
        # byte-identical reports at fixed configuration
        lines_a = list(report.to_json_lines())
        lines_b = list(run_search(cfg).to_json_lines())
        assert lines_a == lines_b
