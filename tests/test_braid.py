"""Generator matrices, word parsing, and word evaluation."""

import random
import sys
from collections import Counter

import pytest

from gassner.braid import (
    MAX_STRANDS,
    BraidLetter,
    BraidWord,
    WordSyntaxError,
    _letter_matrix_truncated,
    evaluate_exact,
    evaluate_truncated,
    gassner_generator,
    gassner_generator_inverse,
    parse_word,
)
from gassner.laurent import LaurentPoly, UsageError, series_matrix_inverse
from gassner.search import BREAKDOWN_WORD_TEXTS
from oracle import (
    delete_strand_reduction,
    from_laurent,
    laurent_determinant,
    map_entries,
    specialize,
)


def random_word(rng, n, length):
    letters = []
    for _ in range(length):
        s = rng.randint(2, n)
        r = rng.randint(1, s - 1)
        letters.append(BraidLetter(r, s, rng.choice((1, -1))))
    return BraidWord(n, tuple(letters))


class TestGenerators:
    def test_two_strand_matrix(self):
        g = gassner_generator(2, 1, 2)
        t1, t2 = LaurentPoly.var(2, 1), LaurentPoly.var(2, 2)
        one = LaurentPoly.one(2)
        assert g.entry(1, 1) == one - t1 + t1 * t2
        assert g.entry(1, 2) == t1 * (one - t1)
        assert g.entry(2, 1) == one - t2
        assert g.entry(2, 2) == t1

    def test_middle_column_entries(self):
        g = gassner_generator(3, 1, 3)
        t1, t2, t3 = (LaurentPoly.var(3, i) for i in (1, 2, 3))
        one = LaurentPoly.one(3)
        assert g.entry(2, 1) == (one - t2) * (one - t3)
        assert g.entry(2, 3) == (one - t2) * (t1 - one)
        assert g.entry(2, 2) == one

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_identity_at_one(self, n):
        for s in range(2, n + 1):
            for r in range(1, s):
                m = gassner_generator(n, r, s)
                for var in range(1, n + 1):
                    m = specialize(m, var)
                assert m.is_identity()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_determinant_is_unit_monomial(self, n):
        for s in range(2, n + 1):
            for r in range(1, s):
                det = laurent_determinant(gassner_generator(n, r, s))
                assert det == LaurentPoly.var(n, r) * LaurentPoly.var(n, s)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_inverse_products(self, n):
        # the inverse is unique, so both products certify the closed form
        for s in range(2, n + 1):
            for r in range(1, s):
                g = gassner_generator(n, r, s)
                gi = gassner_generator_inverse(n, r, s)
                assert (g * gi).is_identity()
                assert (gi * g).is_identity()
                det = laurent_determinant(gi)
                expected = LaurentPoly(
                    n, {tuple(-1 if k + 1 in (r, s) else 0 for k in range(n)): 1}
                )
                assert det == expected

    def test_index_violation(self):
        for build in (gassner_generator, gassner_generator_inverse):
            with pytest.raises(UsageError):
                build(4, 4, 1)
            with pytest.raises(UsageError):
                build(4, 2, 2)

    @pytest.mark.parametrize("build", [gassner_generator, gassner_generator_inverse])
    def test_strand_cap(self, build):
        assert build(MAX_STRANDS, 1, 2).size == MAX_STRANDS
        with pytest.raises(UsageError, match=f"cap of {MAX_STRANDS}"):
            build(MAX_STRANDS + 1, 1, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_inverse_commutes_with_truncation(self, n):
        # the closed forms instantiated in the series ring equal the exact
        # letters expanded by the oracle's binomial series, both exponents,
        # and multiply to I; through n = 5, exact inverse then truncate ==
        # truncate then series-invert
        for s in range(2, n + 1):
            for r in range(1, s):
                exact = {
                    1: gassner_generator(n, r, s),
                    -1: gassner_generator_inverse(n, r, s),
                }
                for d in (0, 1, 2, 5, 12):
                    for exponent, letter in exact.items():
                        assert _letter_matrix_truncated(
                            n, r, s, exponent, d
                        ) == map_entries(letter, lambda e: from_laurent(e, d))
                    assert (
                        _letter_matrix_truncated(n, r, s, 1, d)
                        * _letter_matrix_truncated(n, r, s, -1, d)
                    ).is_identity()
                if n > 5:
                    continue
                for d in range(0, 11):
                    truncated = map_entries(
                        gassner_generator(n, r, s), lambda e: from_laurent(e, d)
                    )
                    assert series_matrix_inverse(truncated) == (
                        map_entries(exact[-1], lambda e: from_laurent(e, d))
                    )


class TestParsing:
    def test_letters_with_exponents(self):
        w = parse_word("A(1,4) A(2,4)^-1", 4)
        assert w.letters == (BraidLetter(1, 4, 1), BraidLetter(2, 4, -1))

    def test_aliases(self):
        w = parse_word("x1 x2", 4)
        assert w.letters == (BraidLetter(1, 4, 1), BraidLetter(2, 4, 1))

    def test_strand_cap(self):
        assert parse_word("x1", MAX_STRANDS).n == MAX_STRANDS
        with pytest.raises(UsageError, match=f"cap of {MAX_STRANDS}"):
            parse_word("x1", MAX_STRANDS + 1)

    def test_bracket_expansion(self):
        w = parse_word("[x2,x1]", 4)
        assert w.letters == (
            BraidLetter(2, 4, 1),
            BraidLetter(1, 4, 1),
            BraidLetter(2, 4, -1),
            BraidLetter(1, 4, -1),
        )

    def test_nested_brackets_and_powers(self):
        w = parse_word("[[x2,x1],x1]^2", 4)
        assert len(w) == 20
        assert parse_word("x1^3", 4).letters == (BraidLetter(1, 4, 1),) * 3
        assert parse_word("x1^-2", 4).letters == (BraidLetter(1, 4, -1),) * 2

    def test_syntax_error_position(self):
        with pytest.raises(WordSyntaxError) as err:
            parse_word("x1 ?", 4)
        assert err.value.position == 3

    def test_unbalanced_bracket(self):
        with pytest.raises(WordSyntaxError):
            parse_word("[x1, x2", 4)

    def test_index_out_of_range(self):
        with pytest.raises(WordSyntaxError):
            parse_word("x4", 4)
        with pytest.raises(WordSyntaxError):
            parse_word("A(3,2)", 4)

    def test_mixed_atoms(self):
        w = parse_word("A(1,3) [x1, x2] x2^-1", 4)
        assert len(w) == 6
        assert w.letters[0] == BraidLetter(1, 3, 1)
        assert w.letters[-1] == BraidLetter(2, 4, -1)


class TestEvaluation:
    def test_empty_word(self):
        assert evaluate_exact(BraidWord.identity(4)).is_identity()

    def test_cancelling_pair(self):
        w = parse_word("A(1,2) A(1,2)^-1", 2)
        assert evaluate_exact(w).is_identity()

    def test_homomorphism_random(self):
        rng = random.Random(0xBEEF)
        for _ in range(100):
            n = rng.choice((3, 4, 5))
            w1 = random_word(rng, n, rng.randint(0, 5))
            w2 = random_word(rng, n, rng.randint(0, 5))
            assert evaluate_exact(w1 * w2) == evaluate_exact(w1) * evaluate_exact(w2)

    def test_specialize_all_ones_gives_identity(self):
        rng = random.Random(0xF00D)
        for _ in range(100):
            n = rng.choice((3, 4))
            m = evaluate_exact(random_word(rng, n, rng.randint(1, 6)))
            for var in range(1, n + 1):
                m = specialize(m, var)
            assert m.is_identity()

    def test_determinant_is_signed_monomial(self):
        rng = random.Random(0xACE)
        for _ in range(50):
            n = rng.choice((3, 4))
            w = random_word(rng, n, rng.randint(1, 6))
            det = laurent_determinant(evaluate_exact(w))
            exps = [0] * n
            for letter in w.letters:
                exps[letter.r - 1] += letter.exponent
                exps[letter.s - 1] += letter.exponent
            assert det == LaurentPoly(n, {tuple(exps): 1})

    def test_truncated_matches_exact(self):
        # every one-letter word, then random words: truncated evaluation
        # against the exact one expanded by the oracle's binomial series
        for n in range(2, 8):
            for s in range(2, n + 1):
                for r in range(1, s):
                    for exponent in (1, -1):
                        w = BraidWord(n, (BraidLetter(r, s, exponent),))
                        exact = evaluate_exact(w)
                        for d in (0, 1, 2, 5, 12):
                            assert evaluate_truncated(w, d) == map_entries(
                                exact, lambda e: from_laurent(e, d)
                            )
        rng = random.Random(0xCAFE)
        for _ in range(40):
            n = rng.choice((3, 4))
            d = rng.randint(0, 6)
            w = random_word(rng, n, rng.randint(0, 5))
            exact = map_entries(evaluate_exact(w), lambda e: from_laurent(e, d))
            assert evaluate_truncated(w, d) == exact

    def test_exact_products_multiply_no_entries(self, cold_caches, monkeypatch):
        # a cold evaluation of W1 multiplies Laurent polynomials only while
        # writing its letters; the matrix products work on packed keys
        callers = Counter()
        mul = LaurentPoly.__mul__

        def counted(a, b):
            frame = sys._getframe(1)
            callers[f"{frame.f_globals['__name__']}.{frame.f_code.co_name}"] += 1
            return mul(a, b)

        monkeypatch.setattr(LaurentPoly, "__mul__", counted)
        evaluate_exact(parse_word(BREAKDOWN_WORD_TEXTS[0], 4))
        assert set(callers) == {"gassner.braid._letter_rows"}

    def test_truncated_generator_at_degree_zero(self):
        w = BraidWord(4, (BraidLetter(1, 4, 1),))
        assert evaluate_truncated(w, 0).is_identity()


class TestDeleteStrand:
    def test_identity(self):
        m = evaluate_exact(BraidWord.identity(4))
        assert delete_strand_reduction(m, 4).is_identity()

    def test_free_subgroup_words_die(self):
        rng = random.Random(0xDEAD)
        for _ in range(100):
            n = rng.choice((3, 4, 5))
            letters = tuple(
                BraidLetter(rng.randint(1, n - 1), n, rng.choice((1, -1)))
                for _ in range(rng.randint(1, 6))
            )
            m = evaluate_exact(BraidWord(n, letters))
            assert delete_strand_reduction(m, n).is_identity()

    def test_commutes_with_generators(self):
        for n in (3, 4, 5):
            for s in range(2, n):
                for r in range(1, s):
                    reduced = delete_strand_reduction(
                        gassner_generator(n, r, s), n
                    )
                    assert reduced == gassner_generator(n - 1, r, s)
