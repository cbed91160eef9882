"""Kernel-candidate enumeration, testing, and the breakdown regression."""

import pickle
import random
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gassner.braid import BraidWord, evaluate_exact, evaluate_truncated, parse_word
from gassner.graded import (
    IntMatrix,
    _commutator_matrix,
    _compose,
    _dense,
    first_degree,
    integer_rank,
    kernel_report,
    phi,
    pi,
)
from gassner.hall import basic_commutators, commutator_to_word, parse_commutator
from gassner.laurent import SquareMatrix, UsageError
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
    _support,
    _word_length,
    breakdown_regression,
    run_search,
    vector_to_word,
)
from oracle import (
    _mod_identity,
    _mod_matmul,
    _specialize_matrix,
    dense_rank,
    from_laurent,
    map_entries,
    minus_identity,
    pack_rows,
    per_commutator_first_degree,
    specialized_matrix,
    specialized_products,
    unpack_rows,
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
    """The primitive vectors run_search tests, in its order.

    ``_combine`` gives each one's support; it is made dense here so that
    the tests compare and evaluate whole vectors.
    """
    supports = [_support(v) for v in kernel_basis]
    return [
        _dense(_combine(combination, supports), len(kernel_basis[0]))
        for combination in _kernel_combinations(cfg, len(kernel_basis))
    ]


def record_screen(monkeypatch):
    """Lists that record, during a search, each kernel column read and each
    one packed as (k, d), and each candidate support made dense."""
    import gassner.search as search

    reads, packed, dense = [], [], []
    column, pack, densify = _LinearScreen._column, _LinearScreen._pack, search._dense

    def recording_column(self, k, d):
        reads.append((k, d))
        return column(self, k, d)

    def recording_pack(self, k, d):
        packed.append((k, d))
        return pack(self, k, d)

    def recording_dense(support, length):
        dense.append(support)
        return densify(support, length)

    monkeypatch.setattr(_LinearScreen, "_column", recording_column)
    monkeypatch.setattr(_LinearScreen, "_pack", recording_pack)
    monkeypatch.setattr(search, "_dense", recording_dense)
    return reads, packed, dense


@pytest.fixture(scope="module")
def kernel5():
    return kernel_report(4, 5)


@lru_cache(maxsize=None)
def shared_screen(n: int, w: int):
    """One kernel report and screen to depth 2w - 1 per size, kept across
    tests, so that columns packed for one combination stay packed when a
    later one needs a wider packing."""
    report = kernel_report(n, w)
    return report, _LinearScreen(report.row_labels, report.kernel, n, w, 2 * w - 1)


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
        vectors = candidate_vectors(cfg, report.kernel)
        for index, (combination, vector) in enumerate(zip(combinations, vectors)):
            first = screen.first_nonvanishing_degree(combination)
            assert first == w + 1
            assert first == per_commutator_first_degree(
                vector, report.row_labels, n, w, depth
            )
            if index % product_stride == 0:
                product = _candidate_matrix(vector, n, w, depth)
                assert first == first_degree(product)

    @pytest.mark.parametrize("n, w", [(4, 5), (4, 6)])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_packed_screen_matches_per_commutator_screen(self, n, w, data):
        # combinations with coefficients up to 10^9 in absolute value over
        # supports up to the kernel dimension, on one screen per size, so
        # that degrees are widened and their columns repacked between
        # examples; against the per-commutator route on the dense vector
        # sum c_k K_k, at depth 2w - 1
        report, screen = shared_screen(n, w)
        dim = len(report.kernel)
        support = data.draw(
            st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim, unique=True)
        )
        coefficient = st.integers(-(10**9), 10**9).filter(bool)
        coeffs = data.draw(
            st.lists(coefficient, min_size=len(support), max_size=len(support))
        )
        combination = tuple(zip(sorted(support), coeffs))
        vector = [
            sum(c * report.kernel[k][i] for k, c in combination)
            for i in range(len(report.row_labels))
        ]
        first = screen.first_nonvanishing_degree(combination)
        assert first == per_commutator_first_degree(
            vector, report.row_labels, n, w, 2 * w - 1
        )
        degree = screen._degrees[w + 1]
        assert sum(abs(c) for _, c in combination) * degree.peak < 2**degree.width

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

    @pytest.mark.parametrize(
        "n, w, depth",
        [(4, 5, 6), (5, 5, 6), (6, 5, 6), (7, 5, 6), (3, 6, 7), (4, 6, 7), (3, 7, 9), (3, 8, 11)],
    )
    def test_screen_decides_every_kernel_vector_below_twice_the_weight(
        self, n, w, depth
    ):
        # a combination sum c_k K_k vanishes through degree D exactly when c
        # is in the rational left kernel of the columns K_d[k] stacked over
        # d = w+1..D; full rank at D means no nonzero kernel vector is
        # invisible through D, so the screen decides every candidate by D,
        # and D <= 2w - 1 leaves no candidate for the rungs past it.  D is
        # the least such degree
        report, screen = shared_screen(n, w)

        def stacked_rank(top):
            keys, rows = {}, []
            for k in range(len(report.kernel)):
                row = {}
                for d in range(w + 1, top + 1):
                    for key, v in screen._column(k, d).items():
                        row[keys.setdefault((d, key), len(keys))] = v
                rows.append(row)
            return integer_rank(IntMatrix(report.kernel, tuple(keys), tuple(rows)))

        assert report.kernel and depth <= 2 * w - 1
        assert stacked_rank(depth) == len(report.kernel)
        if depth - 1 >= w + 1:
            assert stacked_rank(depth - 1) < len(report.kernel)

    def test_probe_at_weight_reads_no_kernel_column(self, monkeypatch):
        # with --degree-probe w the screen has no degree to read or pack,
        # and each of the 152 candidates goes up the specialization ladder
        # as its support: no dense vector is built
        reads, packed, dense = record_screen(monkeypatch)
        report = run_search(SearchConfig(degree_probe=5))
        assert len(report.candidates) == 152
        assert reads == packed == dense == []
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


class TestPackedScreen:
    """Kernel columns are packed into integers, candidates kept sparse."""

    _A, _B, _C = (((1,) * 6, 1, j) for j in (1, 2, 3))

    @pytest.mark.parametrize(
        "columns, combinations",
        [
            # in 16-bit fields both columns pack to 2^16: the combination
            # needs entries up to 2^17, so degree 6 is packed wider
            ({0: {_A: 2**16}, 1: {_B: 1}}, [((0, 1), (1, -1))]),
            ({0: {_A: 2**16}, 1: {_B: 1}}, [((1, 1),), ((0, 1), (1, -1))]),
            ({0: {_A: 2**16}, 1: {_B: 1}}, [((0, 1),), ((0, 1), (1, -(2**16)))]),
            # peak 1 alone fits 2-bit fields, where 4·1 - 1·4 = 0; the
            # coefficients' sum 5 needs more
            ({0: {_A: 1}, 1: {_B: 1}}, [((0, 4), (1, -1))]),
            # column 1 packs to 1 + 4 = 5 in 2-bit fields, as column 0
            # does; widening for the pair must repack column 1 too
            ({0: {_B: 5}, 1: {_B: 1, _C: 1}}, [((1, 1),), ((0, 1), (1, -1))]),
        ],
        ids=["16-bit", "16-bit-widened", "16-bit-large-coefficient", "weight", "repack"],
    )
    def test_packing_is_wide_enough_for_each_combination(
        self, monkeypatch, columns, combinations
    ):
        # fake kernel columns at degree 6, zero at 7; every combination is
        # nonzero at 6, and a packing too narrow for it would read zero
        monkeypatch.setattr(
            _LinearScreen, "_column", lambda self, k, d: columns[k] if d == 6 else {}
        )
        screen = _LinearScreen((), [(), ()], 4, 5, 7)
        for combination in combinations:
            assert screen.first_nonvanishing_degree(combination) == 6

    def test_default_search_packs_four_columns_and_no_dense_vector(
        self, monkeypatch
    ):
        # every default candidate is decided at degree 6 by the screen, so
        # only the 4 kernel columns there are packed, and no candidate is
        # made a dense vector.  The columns' peak entry is 6; the first
        # candidates need at most 6 < 2^4, and the first with
        # sum |c_k| = 3 needs 18, so the degree is widened once, to 10
        # bits, and its 4 columns repacked: 2^10 covers every later need
        _, packed, dense = record_screen(monkeypatch)
        report = run_search(SearchConfig())
        assert len(report.candidates) == 152
        assert sorted(set(packed)) == [(k, 6) for k in range(4)]
        assert len(packed) == 8
        assert dense == []

    @pytest.mark.parametrize("n, w", [(4, 5), (5, 5), (4, 6), (6, 5)])
    def test_word_length_matches_the_built_word(self, n, w):
        for term in basic_commutators(n - 1, w):
            assert _word_length(term) == len(commutator_to_word(term, n))


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
            _specialization_points,
        )

        for n in range(2, 8):
            points = _specialization_points(n, 20041101)
            for j in range(1, n):
                letter = _letter_matrix(n, j, n, sign)
                for index, point in enumerate(points):
                    leaf, opposite = (
                        specialized_matrix(
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
                    folded = specialized_matrix(term, 4, index, 20041101, sign)
                    assert direct == folded

    def test_specialized_inverse_fold_inverts(self):
        from gassner.search import _SPECIALIZATION_COUNT

        basis = basic_commutators(3, 5)
        assert len(basis) == 48
        for term in basis:
            for index in range(_SPECIALIZATION_COUNT):
                image = specialized_matrix(term, 4, index, 20041101, 1)
                inverse = specialized_matrix(term, 4, index, 20041101, -1)
                assert _mod_matmul(image, inverse) == _mod_identity(4)

    @pytest.mark.parametrize("m", [1, -1, 2, -2, 3, -3])
    def test_specialized_power_is_repeated_product(self, m):
        # a signed power is one cached entry; the |m|-fold product of the
        # sign image and, at weights 1 and 2, the specialized exact word
        # power are the independent routes
        from gassner.search import (
            _SPECIALIZATION_COUNT,
            _SPECIALIZATION_PRIME,
            _specialization_points,
        )

        sign = 1 if m > 0 else -1
        points = _specialization_points(4, 20041101)
        for w in (1, 2, 3, 5):
            for term in basic_commutators(3, w):
                for index in range(_SPECIALIZATION_COUNT):
                    image = specialized_matrix(term, 4, index, 20041101, sign)
                    expected = image
                    for _ in range(abs(m) - 1):
                        expected = _mod_matmul(expected, image)
                    power = specialized_matrix(term, 4, index, 20041101, m)
                    assert power == expected
                    if w <= 2:
                        word = commutator_to_word(term, 4) ** m
                        assert power == _specialize_matrix(
                            evaluate_exact(word), points[index], _SPECIALIZATION_PRIME
                        )

    def test_specialized_identity_detector(self):
        from gassner.search import _specialized_candidate_is_identity

        # the empty support is the identity word; a kernel direction is not
        assert _specialized_candidate_is_identity((), 4, 5, 20041101)
        report = kernel_report(4, 5)
        assert not _specialized_candidate_is_identity(
            _support(report.kernel[0]), 4, 5, 20041101
        )


class TestProbeRung:
    """The mod-p rung pushes probe row vectors, not product matrices.

    ``specialized_products`` in the oracle unpacks each point's powers and
    multiplies them into one matrix, as the rung did before; u M != u
    proves M != I, and M fixes e_1 ... e_n only when M = I, so the two give
    the same verdict.
    """

    def _factors(self, vector, point_index):
        from gassner.search import _specialized_commutator

        basis = basic_commutators(3, 5)
        return [
            _specialized_commutator(t, 4, point_index, 20041101, m)
            for t, m in zip(basis, vector)
            if m
        ]

    def test_probes_match_full_products_on_every_ladder_candidate(self):
        # every candidate of the default probe-5 search, at each of the
        # three points: the probes are all fixed exactly when the oracle's
        # product is I, and the rung's verdict is the oracle's
        from gassner.search import (
            _SPECIALIZATION_COUNT,
            _fixes,
            _probes,
            _specialized_candidate_is_identity,
        )

        cfg = SearchConfig(degree_probe=5)
        kernel = kernel_report(4, 5).kernel
        vectors = candidate_vectors(cfg, kernel)
        assert len(vectors) == 152
        assert _SPECIALIZATION_COUNT == 3
        for vector in vectors:
            identities = [
                product == _mod_identity(4)
                for product in specialized_products(vector, 4, 5, cfg.seed)
            ]
            for point_index, identity in enumerate(identities):
                factors = self._factors(vector, point_index)
                assert all(_fixes(u, factors) for u in _probes(4)) == identity
            support = _support(vector)
            assert _specialized_candidate_is_identity(support, 4, 5, cfg.seed) == all(
                identities
            )

    def _rung_with(self, monkeypatch, matrices):
        # the rung on the support of the first len(matrices) basis terms,
        # each specialized to the given matrix, packed, at every point
        import gassner.search as search

        basis = basic_commutators(3, 5)
        table = {t: pack_rows(m) for t, m in zip(basis, matrices)}
        monkeypatch.setattr(
            search, "_specialized_commutator", lambda t, n, i, seed, m: table[t]
        )
        support = tuple((i, 1) for i in range(len(matrices)))
        return search._specialized_candidate_is_identity(support, 4, 5, 20041101)

    def test_a_product_fixing_the_first_probe_is_caught_by_unit_vectors(
        self, monkeypatch
    ):
        # M = I + N with N = v e_1^T and u v = 0 for u = (1, 2, 3, 4), so
        # u M = u although M != I; the factor list [M, M] has product
        # I + 4N, and only the unit vector e_1 finds it
        from gassner.search import _SPECIALIZATION_PRIME as p
        from gassner.search import _fixes, _probes

        v = (2, -1, 0, 0)
        m = tuple(
            tuple((int(i == j) + (v[i] if j == 0 else 0)) % p for j in range(4))
            for i in range(4)
        )
        probes = list(_probes(4))
        assert probes[0] == (1, 2, 3, 4)
        assert _fixes(probes[0], [pack_rows(m)] * 2)
        assert not _fixes(probes[1], [pack_rows(m)] * 2)
        assert _mod_matmul(m, m) != _mod_identity(4)
        assert self._rung_with(monkeypatch, [m, m]) is False

    def test_a_matrix_then_its_inverse_is_the_identity(self, monkeypatch):
        # a real letter image P, which moves u, followed by its inverse
        # image: the product is I, so every probe is fixed
        from gassner.hall import CommutatorTerm
        from gassner.search import _fixes, _specialized_commutator

        leaf = CommutatorTerm.leaf(2)
        image, inverse = (
            _specialized_commutator(leaf, 4, 0, 20041101, e) for e in (1, -1)
        )
        image, inverse = unpack_rows(image), unpack_rows(inverse)
        assert _mod_matmul(image, inverse) == _mod_identity(4)
        assert not _fixes((1, 2, 3, 4), [pack_rows(image)])
        assert self._rung_with(monkeypatch, [image, inverse]) is True

    def test_ladder_needs_only_the_first_probe_and_builds_no_product(
        self, monkeypatch
    ):
        # counted on the default probe-5 search: every one of the 152
        # candidates is decided by (1, 2, 3, 4) at the first point, with one
        # push per power in its support; every other push is made inside
        # _specialized_commutator while it builds a cached image or power,
        # so no product of a candidate's powers is formed
        import sys

        import gassner.search as search

        pushed, callers = [], []
        fixes, push = search._fixes, search._push

        def counting_fixes(u, factors):
            pushed.append((u, len(factors)))
            return fixes(u, factors)

        def recording_push(u, rows, width):
            callers.append(sys._getframe(1).f_code.co_name)
            return push(u, rows, width)

        monkeypatch.setattr(search, "_fixes", counting_fixes)
        monkeypatch.setattr(search, "_push", recording_push)
        search._specialized_commutator.cache_clear()
        report = run_search(SearchConfig(degree_probe=5))
        assert len(report.candidates) == 152
        assert not any(c.is_identity for c in report.candidates)
        assert [u for u, _ in pushed] == [(1, 2, 3, 4)] * 152
        sizes = [len(c.coefficients) for c in report.candidates]
        assert [k for _, k in pushed] == sizes
        assert callers.count("_fixes") == sum(k for _, k in pushed)
        assert set(callers) == {"_fixes", "_specialized_commutator"}


_P = 2**61 - 1
_RESIDUES = st.one_of(st.sampled_from([0, 1, _P - 1]), st.integers(0, _P - 1))
# residues this close to p - 1 make every field of sum u_i R_i at least
# half of 2^F, so a field one bit narrower than ``_field_width`` overflows
_TOP_RESIDUES = st.integers(_P - 2**40, _P - 1)


class TestPackedRows:
    """One push u <- u P mod p over the packed rows of P (``search._push``)."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_push_matches_the_plain_product(self, data):
        from gassner.hall import MAX_GENERATORS
        from gassner.search import _SPECIALIZATION_PRIME, _field_width, _push

        assert _SPECIALIZATION_PRIME == _P
        n = data.draw(st.integers(2, MAX_GENERATORS + 1))
        residues = data.draw(st.sampled_from([_RESIDUES, _TOP_RESIDUES]))
        row = st.lists(residues, min_size=n, max_size=n)
        u = data.draw(row)
        m = data.draw(st.lists(row, min_size=n, max_size=n))
        expected = [sum(u[i] * m[i][j] for i in range(n)) % _P for j in range(n)]
        assert _push(u, pack_rows(m), _field_width(n)) == expected

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_push_of_the_largest_residues(self, n):
        # every field of sum u_i R_i reaches n (p - 1)^2, its largest value
        from gassner.search import _field_width, _push

        top = [_P - 1] * n
        expected = [n * (_P - 1) ** 2 % _P] * n
        assert _push(top, pack_rows([top] * n), _field_width(n)) == expected

    def test_field_width_holds_the_largest_field_at_the_largest_n(self):
        # search bases cap the generators at MAX_GENERATORS, so the CLI
        # admits at most MAX_GENERATORS + 1 strands
        from gassner.hall import MAX_GENERATORS
        from gassner.search import _field_width

        n = MAX_GENERATORS + 1
        assert n * (_P - 1) ** 2 < 2 ** _field_width(n)
        with pytest.raises(UsageError):
            run_search(SearchConfig(n=n + 1))


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

    @pytest.mark.parametrize(
        "bad",
        [
            {"coeff_bound": 0},
            {"support_bound": 0},
            {"degree_probe": 0},
            {"degree_probe": 256},
            {"budget": -1},
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_config_is_validated_however_built(self, bad):
        with pytest.raises(UsageError):
            SearchConfig(**bad)
        with pytest.raises(UsageError):
            SearchConfig()._replace(**bad)
        with pytest.raises(UsageError):
            SearchConfig._make({**SearchConfig()._asdict(), **bad}.values())


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

    def test_degree_six_difference_matches_exact_route(self, breakdown_exact):
        # independent oracle: convert the exact evaluations and compare the
        # leading parts of W1 - W2, which equal those of W1*W2^-1 - I
        report = breakdown_regression()
        s1, s2 = (
            map_entries(exact, lambda e: from_laurent(e, 6))
            for exact in breakdown_exact
        )
        diff = s1 - s2
        terms = [
            (sum(exps), i, j, exps, c)
            for i, row in enumerate(diff.rows)
            for j, e in enumerate(row)
            for exps, c in e.terms.items()
        ]
        assert min(degree for degree, *_ in terms) == 6
        got = {
            (tuple(k + 1 for k, x in enumerate(exps) for _ in range(x)), i + 1, j + 1): c
            for degree, i, j, exps, c in terms
            if degree == 6
        }
        assert got == report.difference_class.coords

    def test_difference_class_matches_pi_of_image_difference(self):
        # a route with no screen: subtract the two depth-6 images as
        # matrices and read degree 6 with pi
        report = breakdown_regression()
        x1, x2 = (
            _commutator_matrix(parse_commutator(c), 4, 6, 1)
            for c in BREAKDOWN_COMMUTATORS
        )
        assert first_degree(x1 - x2) == 6
        assert report.difference_class == pi(x1 - x2, 6)

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
        data = report._asdict()
        assert data["difference_class"] == report.difference_class
        assert pickle.loads(pickle.dumps(report)) == report

    def test_phi_classes_of_breakdown_pair_agree(self):
        c1 = parse_commutator(BREAKDOWN_COMMUTATORS[0])
        c2 = parse_commutator(BREAKDOWN_COMMUTATORS[1])
        assert phi(c1, 4) == phi(c2, 4)
