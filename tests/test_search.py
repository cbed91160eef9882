"""Kernel-candidate enumeration, testing, and the breakdown regression."""

import pickle
import random
from dataclasses import asdict
from itertools import combinations

import pytest

from gassner.braid import BraidWord, evaluate_exact, evaluate_truncated, parse_word
from gassner.graded import (
    _commutator_matrix,
    _compose,
    first_degree,
    kernel_report,
    phi,
    pi,
)
from gassner.hall import basic_commutators, commutator_to_word, parse_commutator
from gassner.laurent import SquareMatrix
from gassner.search import (
    BREAKDOWN_COMMUTATORS,
    BREAKDOWN_WORD_TEXTS,
    EXPECTED_FIRST_DIFFERENCE_DEGREE,
    CandidateResult,
    SearchConfig,
    _candidate_matrix,
    _coefficient_tuples,
    _combine,
    _commutator_power,
    _kernel_combinations,
    _LinearScreen,
    breakdown_regression,
    run_search,
    vector_to_word,
)
from oracle import (
    _specialize_matrix,
    dense_rank,
    from_laurent,
    minus_identity,
    per_commutator_first_degree,
)


def check_candidate(word: BraidWord, cfg: SearchConfig) -> CandidateResult:
    """Oracle for run_search: test the flat word, locating its first degree.

    Truncations are probed at increasing depth up to ``cfg.degree_probe``;
    a non-identity truncation certifies exact non-identity (truncation is a
    ring homomorphism) and pins the first total degree at which the image
    minus the identity carries a nonzero coefficient.  Only a word trivial
    to the probe depth falls through to full exact evaluation.
    """
    for depth in range(1, cfg.degree_probe + 1):
        first = first_degree(minus_identity(evaluate_truncated(word, depth)))
        if first is not None:
            return CandidateResult((), len(word), False, first)
    return CandidateResult((), len(word), evaluate_exact(word).is_identity(), None)


def candidate_vectors(cfg: SearchConfig, kernel_basis) -> list[tuple[int, ...]]:
    """The primitive vectors run_search tests, in its order."""
    return [
        _combine(combination, kernel_basis)
        for combination in _kernel_combinations(cfg, len(kernel_basis))
    ]


@pytest.fixture(scope="module")
def kernel5():
    return kernel_report(4, 5)


class TestEnumeration:
    def test_support_one_returns_basis(self, kernel5):
        cfg = SearchConfig(coeff_bound=1, support_bound=1, budget=100)
        got = list(candidate_vectors(cfg, kernel5.kernel))
        assert got == list(kernel5.kernel)

    def test_zero_vector_never_emitted(self, kernel5):
        cfg = SearchConfig(coeff_bound=2, support_bound=3, budget=1000)
        for vec in candidate_vectors(cfg, kernel5.kernel):
            assert any(vec)

    def test_content_one_and_sign_canonical(self, kernel5):
        from math import gcd

        cfg = SearchConfig(coeff_bound=2, support_bound=3, budget=1000)
        seen = set()
        for vec in candidate_vectors(cfg, kernel5.kernel):
            content = 0
            for v in vec:
                content = gcd(content, v)
            assert content == 1
            assert next(v for v in vec if v) > 0
            assert vec not in seen
            seen.add(vec)

    def test_budget_respected(self, kernel5):
        cfg = SearchConfig(coeff_bound=2, support_bound=3, budget=7)
        assert len(list(candidate_vectors(cfg, kernel5.kernel))) == 7

    def test_coefficient_tuples_follow_product_order(self):
        # oracle: itertools.product over the listed ranges; of the one-entry
        # tuples only (1,) survives the content filter, so only it is drawn
        from itertools import product

        for bound in (1, 2, 3):
            nonzero = [c for c in range(-bound, bound + 1) if c]
            assert list(_coefficient_tuples(1, bound)) == [(1,)]
            for size in (2, 3, 4):
                expected = product(range(1, bound + 1), *[nonzero] * (size - 1))
                assert list(_coefficient_tuples(size, bound)) == list(expected)

    def test_empty_kernel_yields_nothing(self):
        cfg = SearchConfig()
        assert list(candidate_vectors(cfg, [])) == []

    def test_deterministic(self, kernel5):
        cfg = SearchConfig(coeff_bound=2, support_bound=2, budget=200)
        a = list(candidate_vectors(cfg, kernel5.kernel))
        b = list(candidate_vectors(cfg, kernel5.kernel))
        assert a == b

    def test_known_relation_in_span_of_candidates(self, kernel5):
        # the direction pairing the two breakdown commutators +1/-1 lies in
        # the span of the emitted candidates
        cfg = SearchConfig(coeff_bound=1, support_bound=2, budget=1000)
        emitted = list(candidate_vectors(cfg, kernel5.kernel))
        labels = list(kernel5.row_labels)
        i1 = labels.index(parse_commutator(BREAKDOWN_COMMUTATORS[0]))
        i2 = labels.index(parse_commutator(BREAKDOWN_COMMUTATORS[1]))
        target = [0] * 48
        target[i1], target[i2] = 1, -1
        base_rank = dense_rank([list(v) for v in emitted])
        joined = dense_rank([list(v) for v in emitted] + [target])
        assert joined == base_rank
        assert tuple(target) in emitted


class TestVectorToWord:
    def test_single_label(self, kernel5):
        basis = basic_commutators(3, 5)
        vec = [0] * 48
        vec[5] = 1
        word = vector_to_word(tuple(vec), 4, 5)
        assert word == commutator_to_word(basis[5], 4)

    def test_negative_multiplicity_reverses(self, kernel5):
        basis = basic_commutators(3, 5)
        vec = [0] * 48
        vec[5] = -1
        word = vector_to_word(tuple(vec), 4, 5)
        assert word == commutator_to_word(basis[5], 4).inverse()

    def test_breakdown_pair_gives_w1_w2_inverse(self):
        labels = list(basic_commutators(3, 5))
        i1 = labels.index(parse_commutator(BREAKDOWN_COMMUTATORS[0]))
        i2 = labels.index(parse_commutator(BREAKDOWN_COMMUTATORS[1]))
        assert i1 < i2  # basis order puts the first word first
        vec = [0] * 48
        vec[i1], vec[i2] = 1, -1
        word = vector_to_word(tuple(vec), 4, 5)
        w1 = parse_word(BREAKDOWN_WORD_TEXTS[0], 4)
        w2 = parse_word(BREAKDOWN_WORD_TEXTS[1], 4)
        assert word == w1 * w2.inverse()

    def test_length_mismatch_rejected(self):
        from gassner.laurent import UsageError

        with pytest.raises(UsageError):
            vector_to_word((1, 0), 4, 5)


class TestCandidateTesting:
    def test_empty_word_is_identity(self):
        result = check_candidate(BraidWord.identity(4), SearchConfig())
        assert result.is_identity
        assert result.first_nonvanishing_degree is None

    def test_breakdown_quotient_is_not_identity(self):
        w1 = parse_word(BREAKDOWN_WORD_TEXTS[0], 4)
        w2 = parse_word(BREAKDOWN_WORD_TEXTS[1], 4)
        result = check_candidate(w1 * w2.inverse(), SearchConfig())
        assert not result.is_identity
        assert (
            result.first_nonvanishing_degree == EXPECTED_FIRST_DIFFERENCE_DEGREE
        )

    def test_cancelling_word_is_identity(self):
        result = check_candidate(parse_word("x1 x2 x2^-1 x1^-1", 4), SearchConfig())
        assert result.is_identity

    def test_single_generator_first_degree_one(self):
        result = check_candidate(parse_word("x1", 4), SearchConfig())
        assert not result.is_identity
        assert result.first_nonvanishing_degree == 1


class TestDriverConsistency:
    @pytest.mark.parametrize("probe", [5, 8, 10])
    def test_candidate_matrix_matches_word_evaluation(self, kernel5, probe):
        # run_search's verdicts equal check_candidate's on the representative
        # word.  Probe 5 sends the driver through the specialization ladder,
        # 8 through the linear screen, and 10 = 2w past it, where the
        # product fallback is armed.  The oracle always probes to degree 10:
        # its verdict at a probe p <= 10 is the same with a first degree
        # above p read as None, while probing only to 5 would send these
        # words to exact evaluation, which takes minutes.  The driver's
        # composed deviations also equal the flat word evaluation minus I.
        from gassner.search import _candidate_matrix

        cfg = SearchConfig(
            coeff_bound=1, support_bound=2, budget=3, degree_probe=probe
        )
        report = run_search(cfg)
        by_coeffs = {r.coefficients: r for r in report.candidates}
        for vec in candidate_vectors(cfg, kernel5.kernel):
            word = vector_to_word(vec, 4, 5)
            product = _candidate_matrix(vec, 4, 5, 6)
            assert product == minus_identity(evaluate_truncated(word, 6))
            verdict = check_candidate(word, SearchConfig(degree_probe=10))
            first = verdict.first_nonvanishing_degree
            labeled = tuple(
                (str(t), m) for t, m in zip(kernel5.row_labels, vec) if m
            )
            assert by_coeffs[labeled].is_identity == verdict.is_identity
            assert by_coeffs[labeled].first_nonvanishing_degree == (
                first if first is not None and first <= probe else None
            )


class TestKernelScreen:
    @pytest.mark.parametrize(
        "n, w, budget, product_stride",
        [(4, 5, 10_000, 1), (5, 5, 200, 10), (4, 6, 200, 10)],
        ids=["4-5-all", "5-5-first200", "4-6-first200"],
    )
    def test_first_degree_matches_per_commutator_screen_and_product(
        self, n, w, budget, product_stride
    ):
        # the kernel-coordinate screen, run to 2w - 1 with each degree read
        # at its own depth, against two routes at depth 2w - 1: the
        # per-commutator combination sum m_i (g_i - I)_d of the emitted
        # vector, and the composed product of its powers.  Every candidate
        # is decided at w + 1.  The product route costs 0.06 s a candidate
        # at (5,5) and 0.2-0.4 s at (4,6) (2-core Xeon), so at those sizes
        # it checks every tenth one
        report = kernel_report(n, w)
        depth = 2 * w - 1
        screen = _LinearScreen(report.row_labels, report.kernel, n, w, depth)
        cfg = SearchConfig(n=n, weight=w, budget=budget)
        combinations = list(_kernel_combinations(cfg, len(report.kernel)))
        assert len(combinations) == (152 if (n, w) == (4, 5) else budget)
        for index, combination in enumerate(combinations):
            vector = _combine(combination, report.kernel)
            first = screen.first_nonvanishing_degree(combination)
            assert first == w + 1
            assert first == per_commutator_first_degree(
                vector, report.row_labels, n, w, depth
            )
            if index % product_stride == 0:
                product = _candidate_matrix(vector, n, w, depth)
                assert first == first_degree(product)

    def test_default_search_builds_no_image_past_degree_six(self, monkeypatch):
        # every default candidate is decided at degree 6, so the screen
        # never reads degrees 7 or 8 although the probe is 8
        import gassner.search as search

        depths = []
        original = search._commutator_matrix

        def recording(term, n, max_deg, sign):
            depths.append(max_deg)
            return original(term, n, max_deg, sign)

        monkeypatch.setattr(search, "_commutator_matrix", recording)
        report = run_search(SearchConfig())
        assert len(report.candidates) == 152
        assert max(depths) == 6

    @pytest.mark.parametrize("n, w", [(4, 5), (5, 5), (4, 6)])
    def test_kernel_columns_vanish_in_degree_w(self, n, w):
        # K_w[k] is the weight-w class of a kernel vector, zero by the
        # definition of the kernel; this is why the screen starts at w + 1
        report = kernel_report(n, w)
        screen = _LinearScreen(report.row_labels, report.kernel, n, w, w)
        assert report.kernel
        for k in range(len(report.kernel)):
            assert screen._column(k, w) == {}

    def test_probe_at_weight_reads_no_kernel_column(self, monkeypatch):
        # with --degree-probe w the screen has no degree to read, and every
        # candidate goes up the specialization ladder
        reads = []
        original = _LinearScreen._column

        def recording(self, k, d):
            reads.append((k, d))
            return original(self, k, d)

        monkeypatch.setattr(_LinearScreen, "_column", recording)
        report = run_search(SearchConfig(degree_probe=5, budget=12))
        assert len(report.candidates) == 12
        assert reads == []
        for result in report.candidates:
            assert result.first_nonvanishing_degree is None
            assert not result.is_identity

    @pytest.mark.parametrize(
        "coeff_bound, budget", [(2, 5), (2, 17), (2, 100), (3, 60)]
    )
    def test_reported_labels_follow_kernel_candidates(
        self, kernel5, coeff_bound, budget
    ):
        # budgets cut inside a support size: with coefficient bound 2 there
        # are 4 one-vector, 36 two-vector and 112 three-vector candidates
        cfg = SearchConfig(coeff_bound=coeff_bound, budget=budget)
        labels = [str(t) for t in kernel5.row_labels]
        expected = [
            tuple((labels[i], m) for i, m in enumerate(vector) if m)
            for vector in candidate_vectors(cfg, kernel5.kernel)
        ]
        got = [r.coefficients for r in run_search(cfg).candidates]
        assert len(got) == budget
        assert got == expected


class TestCommutatorPower:
    @pytest.mark.parametrize("m", [1, -1, 2, -2, 3, -3])
    def test_power_matches_word_power(self, m):
        # negative powers compose the sign -1 deviation; the flat word
        # power minus I is the independent route
        for w in (1, 2, 3):
            for term in basic_commutators(3, w):
                word = commutator_to_word(term, 4) ** m
                assert _commutator_power(term, 4, 6, m) == minus_identity(
                    evaluate_truncated(word, 6)
                )


class TestNoSeriesInverse:
    @pytest.mark.parametrize(
        "refused", ["series_matrix_inverse", "SquareMatrix.identity_series"]
    )
    def test_runtime_paths_never_invert_a_series_matrix(self, monkeypatch, refused):
        # every runtime inverse comes from [a, b]^-1 = [b, a] over
        # closed-form letters, and images are carried as M - I, so no
        # runtime path builds a series identity either.  Probe 5 runs the
        # specialization ladder.  At probe 10 every default candidate is
        # decided by the screen at degree 6, so the product fallback is
        # called directly at depth 10, as run_search would call it there;
        # caches are cleared so nothing computed earlier hides a call
        import sys

        from gassner.graded import _commutator_matrix

        def refuse(*args):
            raise AssertionError(f"{refused} called at runtime")

        if refused == "SquareMatrix.identity_series":
            monkeypatch.setattr(SquareMatrix, "identity_series", refuse)
        else:
            for name, module in list(sys.modules.items()):
                if name == "gassner" or name.startswith("gassner."):
                    if hasattr(module, refused):
                        monkeypatch.setattr(module, refused, refuse)
        _commutator_matrix.cache_clear()
        _commutator_power.cache_clear()

        report = kernel_report(4, 5)
        breakdown_regression()
        run_search(SearchConfig(budget=3, degree_probe=10))
        run_search(SearchConfig(budget=3, degree_probe=5))
        vector = next(v for v in report.kernel if min(v) < 0)
        assert not _candidate_matrix(vector, 4, 5, 10).is_zero()


class TestNoExactRing:
    @pytest.mark.parametrize("refused", ["__mul__", "__add__", "__sub__"])
    def test_runtime_paths_never_compute_in_the_exact_ring(
        self, monkeypatch, refused
    ):
        # truncated and mod-p letters are the closed forms written in their
        # own rings, not conversions of exact letters, so classes, the
        # breakdown and both search ladders run without Laurent arithmetic;
        # every cache is cleared so no exact letter computed earlier hides
        # a call
        import sys

        from gassner.laurent import LaurentPoly

        def refuse(*args):
            raise AssertionError(f"LaurentPoly.{refused} called at runtime")

        monkeypatch.setattr(LaurentPoly, refused, refuse)
        for name, module in list(sys.modules.items()):
            if name == "gassner" or name.startswith("gassner."):
                for value in list(vars(module).values()):
                    if hasattr(value, "cache_clear"):
                        value.cache_clear()

        kernel_report(4, 5)
        breakdown_regression()
        assert run_search(SearchConfig(budget=3)).candidates
        assert run_search(SearchConfig(budget=3, degree_probe=5)).candidates


class TestSpecialization:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_specialized_fold_matches_specialized_exact(self, sign):
        # the bracket recursion over specialized letters equals specializing
        # the exact product of the expanded word; sign -1 is the inverse word.
        # The leaves, the closed forms instantiated mod p, are checked
        # first against the oracle's evaluation of every exact letter x_j
        # on 2..7 strands at each point, and against the opposite leaf
        from gassner.braid import _letter_matrix
        from gassner.hall import CommutatorTerm
        from gassner.search import (
            _SPECIALIZATION_COUNT,
            _SPECIALIZATION_PRIME,
            _mod_identity,
            _mod_matmul,
            _specialization_points,
            _specialized_commutator,
        )

        for n in range(2, 8):
            points = _specialization_points(n, 20041101)
            for j in range(1, n):
                letter = _letter_matrix(n, j, n, sign)
                for index, point in enumerate(points):
                    leaf, opposite = (
                        _specialized_commutator(
                            CommutatorTerm.leaf(j), n, index, 20041101, e
                        )
                        for e in (sign, -sign)
                    )
                    assert leaf == _specialize_matrix(
                        letter, point, _SPECIALIZATION_PRIME
                    )
                    assert _mod_matmul(leaf, opposite) == _mod_identity(n)

        points = _specialization_points(4, 20041101)
        assert len(points) == _SPECIALIZATION_COUNT
        for w in (1, 2, 3):
            for term in basic_commutators(3, w):
                word = commutator_to_word(term, 4)
                exact = evaluate_exact(word if sign == 1 else word.inverse())
                for index, point in enumerate(points):
                    direct = _specialize_matrix(
                        exact, point, _SPECIALIZATION_PRIME
                    )
                    folded = _specialized_commutator(
                        term, 4, index, 20041101, sign
                    )
                    assert direct == folded

    def test_specialized_inverse_fold_inverts(self):
        from gassner.search import (
            _SPECIALIZATION_COUNT,
            _mod_identity,
            _mod_matmul,
            _specialized_commutator,
        )

        basis = basic_commutators(3, 5)
        assert len(basis) == 48
        for term in basis:
            for index in range(_SPECIALIZATION_COUNT):
                image = _specialized_commutator(term, 4, index, 20041101, 1)
                inverse = _specialized_commutator(term, 4, index, 20041101, -1)
                assert _mod_matmul(image, inverse) == _mod_identity(4)

    @pytest.mark.parametrize("m", [1, -1, 2, -2, 3, -3])
    def test_specialized_power_is_repeated_product(self, m):
        # a signed power is one cached entry; the |m|-fold product of the
        # sign image and, at weights 1 and 2, the specialized exact word
        # power are the independent routes
        from gassner.search import (
            _SPECIALIZATION_COUNT,
            _SPECIALIZATION_PRIME,
            _mod_matmul,
            _specialization_points,
            _specialized_commutator,
        )

        sign = 1 if m > 0 else -1
        points = _specialization_points(4, 20041101)
        for w in (1, 2, 3, 5):
            for term in basic_commutators(3, w):
                for index in range(_SPECIALIZATION_COUNT):
                    image = _specialized_commutator(term, 4, index, 20041101, sign)
                    expected = image
                    for _ in range(abs(m) - 1):
                        expected = _mod_matmul(expected, image)
                    power = _specialized_commutator(term, 4, index, 20041101, m)
                    assert power == expected
                    if w <= 2:
                        word = commutator_to_word(term, 4) ** m
                        assert power == _specialize_matrix(
                            evaluate_exact(word), points[index], _SPECIALIZATION_PRIME
                        )

    def test_specialized_identity_detector(self):
        from gassner.search import _specialized_candidate_is_identity

        # the zero combination is the identity word; a basis direction is not
        zero = (0,) * 48
        assert _specialized_candidate_is_identity(zero, 4, 5, 20041101)
        report = kernel_report(4, 5)
        assert not _specialized_candidate_is_identity(
            report.kernel[0], 4, 5, 20041101
        )


class TestSearch:
    def test_emitted_candidates_lie_in_graded_kernel(self, kernel5):
        # sample candidates evaluate to I modulo degree 5: their weight-5
        # class vanishes; checked through the flat word evaluation
        cfg = SearchConfig(coeff_bound=1, support_bound=2, budget=4)
        rng = random.Random(11)
        vectors = list(candidate_vectors(cfg, kernel5.kernel))
        for vec in rng.sample(vectors, 2):
            word = vector_to_word(vec, 4, 5)
            x = minus_identity(evaluate_truncated(word, 5))
            cls = pi(x, 5)  # DomainError if degrees below 5 survive
            assert cls.is_zero()

    def test_run_search_small(self):
        cfg = SearchConfig(coeff_bound=1, support_bound=1, budget=10)
        report = run_search(cfg)
        assert report.kernel_dimension == 4
        assert len(report.candidates) == 4
        assert report.identities_found == 0
        for result in report.candidates:
            assert not result.is_identity
            assert result.first_nonvanishing_degree == 6

    def test_run_search_empty_kernel_notice(self):
        report = run_search(SearchConfig(weight=4, budget=10))
        assert report.candidates == []
        assert report.notice is not None

    def test_reports_byte_identical(self):
        cfg = SearchConfig(coeff_bound=1, support_bound=2, budget=30)
        lines_a = list(run_search(cfg).to_json_lines())
        lines_b = list(run_search(cfg).to_json_lines())
        assert lines_a == lines_b

    def test_zero_budget(self):
        report = run_search(SearchConfig(budget=0))
        assert report.candidates == []


class TestBreakdownRegression:
    def test_regression_passes(self):
        report = breakdown_regression()
        assert report.truncations_equal
        assert not report.exact_equal
        assert report.classes_equal
        assert report.first_difference_degree == 6
        assert not report.difference_class.is_zero()
        assert report.difference_class.degree == 6

    def test_certified_without_exact_evaluation(self, monkeypatch):
        # nor truncated: both truncations are the cached commutator images
        def refuse(*args):
            raise AssertionError("breakdown must not evaluate words")

        monkeypatch.setattr("gassner.search.evaluate_exact", refuse)
        monkeypatch.setattr("gassner.braid.evaluate_truncated", refuse)
        report = breakdown_regression()
        assert report.exact_equal is False
        assert report.first_difference_degree == 6

    def test_degree_six_difference_matches_exact_route(self):
        # independent oracle: convert the exact evaluations and compare the
        # leading parts of W1 - W2, which equal those of W1*W2^-1 - I
        report = breakdown_regression()
        w1 = parse_word(BREAKDOWN_WORD_TEXTS[0], 4)
        w2 = parse_word(BREAKDOWN_WORD_TEXTS[1], 4)
        s1, s2 = (
            evaluate_exact(w).map_entries(lambda e: from_laurent(e, 6))
            for w in (w1, w2)
        )
        diff = s1 - s2
        terms = [
            (sum(exps), i, j, exps, c)
            for i, row in enumerate(diff.rows)
            for j, e in enumerate(row)
            for exps, c in e.terms().items()
        ]
        assert min(degree for degree, *_ in terms) == 6
        got = {
            (tuple(k + 1 for k, x in enumerate(exps) for _ in range(x)), i + 1, j + 1): c
            for degree, i, j, exps, c in terms
            if degree == 6
        }
        assert got == report.difference_class.coords

    @pytest.mark.parametrize("w", [2, 3, 4])
    def test_quotient_is_difference_below_twice_the_weight(self, w):
        # the fact the breakdown rests on: weight-w images are I mod J^w, so
        # below degree 2w the quotient X_a * X_b^-1 minus I is X_a - X_b;
        # at 2w the cross terms arrive, so the bound is tight
        pairs = list(combinations(basic_commutators(3, w), 2))
        pairs = random.Random(1000 + w).sample(pairs, min(8, len(pairs)))

        def quotient(a, b, d):
            return _compose(
                _commutator_matrix(a, 4, d, 1), _commutator_matrix(b, 4, d, -1)
            )

        def difference(a, b, d):
            return _commutator_matrix(a, 4, d, 1) - _commutator_matrix(b, 4, d, 1)

        for a, b in pairs:
            for d in range(w, 2 * w):
                assert quotient(a, b, d) == difference(a, b, d), (a, b, d)
        assert any(
            quotient(a, b, 2 * w) != difference(a, b, 2 * w) for a, b in pairs
        )

    def test_reads_positive_images_no_deeper_than_degree_six(self, monkeypatch):
        import gassner.search as search

        requests = []

        def record(term, n, max_deg, sign):
            requests.append((max_deg, sign))
            return _commutator_matrix(term, n, max_deg, sign)

        def refuse(*args):
            raise AssertionError("the breakdown composes no images")

        monkeypatch.setattr(search, "_commutator_matrix", record)
        monkeypatch.setattr(search, "_compose", refuse)
        report = breakdown_regression()
        assert report.first_difference_degree == 6
        assert requests
        assert all(sign == 1 and max_deg <= 6 for max_deg, sign in requests)

    def test_report_converts_and_pickles(self):
        report = breakdown_regression()
        data = asdict(report)
        assert data["difference_class"] == report.difference_class
        assert pickle.loads(pickle.dumps(report)) == report

    def test_phi_classes_of_breakdown_pair_agree(self):
        c1 = parse_commutator(BREAKDOWN_COMMUTATORS[0])
        c2 = parse_commutator(BREAKDOWN_COMMUTATORS[1])
        assert phi(c1, 4) == phi(c2, 4)
