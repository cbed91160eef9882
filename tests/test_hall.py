"""Basic commutator generation, ordering, and the Witt count oracle."""

import copy
import pickle

import pytest

from gassner.braid import MAX_BRACKET_DEPTH, WordSyntaxError
from gassner.hall import (
    MAX_BASIS_SIZE,
    CommutatorTerm,
    basic_commutators,
    commutator_to_word,
    is_left_normed,
    check_basis_size,
    leaf_sequence,
    parse_commutator,
    sort_key,
    witt_rank,
)
from gassner.laurent import UsageError
from oracle import is_basic

L = CommutatorTerm.leaf
B = CommutatorTerm.bracket


class TestWitt:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_weight_one(self, m):
        assert witt_rank(m, 1) == m

    def test_reference_values(self):
        assert witt_rank(3, 3) == 8
        assert witt_rank(3, 4) == 18
        assert witt_rank(3, 5) == 48
        assert witt_rank(3, 6) == 116
        assert witt_rank(2, 4) == 3

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("w", [1, 2, 3, 4, 5, 6])
    def test_counts_match_generation(self, m, w):
        assert len(basic_commutators(m, w)) == witt_rank(m, w)


class TestGeneration:
    def test_weight_one_order(self):
        basis = basic_commutators(3, 1)
        assert [t.gen for t in basis] == [1, 2, 3]
        assert basis[0] < basis[1] < basis[2]

    def test_weight_two_order(self):
        # ascending sequence; greatest element is [x3, x2]
        basis = basic_commutators(3, 2)
        assert [str(t) for t in basis] == ["[x2,x1]", "[x3,x1]", "[x3,x2]"]
        assert list(basis) == sorted(basis, key=sort_key)

    def test_weight_three_shape(self):
        basis = basic_commutators(3, 3)
        assert len(basis) == 8
        for term in basis:
            r, s, u = leaf_sequence(term)
            assert r > s and u >= s
            assert is_left_normed(term)

    def test_weight_four_shapes(self):
        basis = basic_commutators(3, 4)
        left_normed = [t for t in basis if is_left_normed(t)]
        doubles = [t for t in basis if not is_left_normed(t)]
        assert len(left_normed) == 15 and len(doubles) == 3
        for term in left_normed:
            r, s, u, v = leaf_sequence(term)
            assert r > s and u >= s and v >= u
        for term in doubles:
            r, s, u, v = leaf_sequence(term)
            assert r > s and u > v and (r, s) > (u, v)

    def test_weight_five_count(self):
        assert len(basic_commutators(3, 5)) == 48

    def test_all_generated_terms_are_basic(self):
        for m in (2, 3, 4):
            for w in range(1, 6):
                for term in basic_commutators(m, w):
                    assert is_basic(term, m)

    def test_components_lie_in_lower_bases(self):
        for w in range(2, 7):
            for term in basic_commutators(3, w):
                assert term.left in basic_commutators(3, term.left.weight)
                assert term.right in basic_commutators(3, term.right.weight)

    def test_generation_deterministic(self):
        a = basic_commutators(4, 5)
        b = tuple(basic_commutators(4, 5))
        assert a == b

    def test_caps(self):
        with pytest.raises(UsageError):
            basic_commutators(7, 2)
        with pytest.raises(UsageError):
            basic_commutators(2, 9)
        with pytest.raises(UsageError):
            witt_rank(0, 1)

    def test_basis_budget(self):
        # (6,6) is the largest size admitted by the budget that anything
        # runs; its weight-6 basis on 5 generators has 2,580 elements.  The
        # check counts by the Witt formula and builds nothing
        check_basis_size(5, 6)
        assert witt_rank(5, 6) == 2580 <= MAX_BASIS_SIZE
        assert witt_rank(6, 6) == 7735 > MAX_BASIS_SIZE
        for m, w in ((6, 6), (6, 8)):
            with pytest.raises(UsageError, match=f"budget of {MAX_BASIS_SIZE}"):
                check_basis_size(m, w)
        with pytest.raises(UsageError, match="capped"):
            check_basis_size(7, 2)

    def test_basis_on_m_is_basis_on_m_plus_one_filtered(self):
        # one ascending family per weight serves every generator count: the
        # basis on m generators is the basis on m + 1 restricted to terms
        # whose leaves are all <= m, in the same order and as the same
        # objects, at each of the 34 pairs with m + 1 <= 6 where the caps
        # admit the larger basis
        pairs = []
        for m in range(1, 6):
            for w in range(1, 9):
                try:
                    check_basis_size(m + 1, w)
                except UsageError:
                    continue
                pairs.append((m, w))
                larger = basic_commutators(m + 1, w)
                filtered = [t for t in larger if max(leaf_sequence(t)) <= m]
                smaller = basic_commutators(m, w)
                assert len(smaller) == len(filtered)
                assert all(a is b for a, b in zip(smaller, filtered)), (m, w)
        assert len(pairs) == 34


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


class TestTermHash:
    # terms are interned, one object per tree: equality and hashing are
    # ``object``'s, by identity, and no Python-level method walks a tree
    def test_equal_text_is_the_same_object(self):
        terms = [
            t for m in (3, 4, 5) for w in range(1, 7) for t in basic_commutators(m, w)
        ]
        by_text = {}
        for term in terms:
            assert by_text.setdefault(str(term), term) is term
        assert len({id(t) for t in terms}) == len(by_text)
        for term in basic_commutators(3, 6):
            assert parse_commutator(str(term)) is term
        with pytest.raises(AttributeError, match="immutable"):
            L(1).gen = 2
        with pytest.raises(AttributeError, match="immutable"):
            del L(1).left

    def test_rebuilt_trees_are_the_same_object(self):
        # rebuilt from the leaves up, through each route that builds a node
        def rebuild(t):
            return L(t.gen) if t.is_leaf else B(rebuild(t.left), rebuild(t.right))

        def construct(t):
            if t.is_leaf:
                return CommutatorTerm(t.gen)
            return CommutatorTerm(left=construct(t.left), right=construct(t.right))

        basis = basic_commutators(3, 6)
        for term in basis:
            assert rebuild(term) is term and construct(term) is term
        assert all(a != b for a, b in zip(basis, basis[1:]))
        assert L(1) != 1 and L(1).__eq__(1) is NotImplemented
        assert B(L(2), L(1)) is not B(L(1), L(2))

    def test_hashing_does_not_walk_the_tree(self):
        # no Python-level __hash__ call for a weight-8 term, however deep
        import sys

        term = basic_commutators(3, 8)[-1]
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "__hash__":
                calls.append(frame.f_code)

        sys.setprofile(profile)
        try:
            value = hash(term)
        finally:
            sys.setprofile(None)
        assert calls == [] and value == object.__hash__(term)

    def test_equality_of_one_object_or_unequal_hashes_does_not_walk(self):
        # no Python-level __eq__ call for a weight-8 term against itself or
        # against another weight-8 term, however deep
        import sys

        term, other = basic_commutators(3, 8)[-2:]
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "__eq__":
                calls.append(frame.f_code)

        sys.setprofile(profile)
        try:
            same, different = term == term, term == other
        finally:
            sys.setprofile(None)
        assert same and not different
        assert calls == []

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_round_trip_hits_an_existing_cache_entry(self, how):
        from gassner.graded import _commutator_matrix

        term = basic_commutators(3, 5)[17]
        image = _commutator_matrix(term, 4, 5, 1)
        before = _commutator_matrix.cache_info()
        got = COPIES[how](term)
        assert got is term
        assert _commutator_matrix(got, 4, 5, 1) is image
        after = _commutator_matrix.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_terms_outlive_cleared_caches(self):
        # the intern table is not a functools cache: clearing every cache,
        # as before each benchmark command, leaves each held term the one
        # that the basis and the parser rebuild
        from conftest import clear_gassner_caches

        held = basic_commutators(3, 5)
        clear_gassner_caches()
        rebuilt = basic_commutators(3, 5)
        assert len(rebuilt) == len(held) == 48
        assert all(a is b for a, b in zip(held, rebuilt))
        assert all(parse_commutator(str(t)) is t for t in held)


# malformed fields, each rejected where the term would be built
MALFORMED = {
    "empty": {},
    "zero-index": {"gen": 0},
    "float-index": {"gen": 1.5},
    "bool-index": {"gen": True},
    "integral-float-index": {"gen": 1.0},
    "leaf-with-children": {"gen": 1, "left": L(1), "right": L(2)},
    "one-child": {"left": L(1)},
    "non-term-children": {"left": 1, "right": 2},
    # unhashable fields miss the intern table and are refused by its check
    "unhashable-index": {"gen": [1]},
    "unhashable-children": {"left": [1], "right": [2]},
    "one-unhashable-child": {"left": L(1), "right": [2]},
}


class TestTermFields:
    @pytest.mark.parametrize("fields", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_term_rejected(self, fields):
        with pytest.raises(UsageError, match="a term is a leaf|must be positive"):
            CommutatorTerm(**fields)

    def test_leaf_keeps_its_message(self):
        for j in (0, -3):
            with pytest.raises(UsageError, match=f"must be positive, got {j}"):
                L(j)
        assert CommutatorTerm(1) is L(1)


class TestWords:
    def test_leaf(self):
        w = commutator_to_word(L(2), 4)
        assert str(w) == "A(2,4)"

    def test_simple_bracket(self):
        w = commutator_to_word(B(L(2), L(1)), 4)
        assert str(w) == "A(2,4) A(1,4) A(2,4)^-1 A(1,4)^-1"

    def test_length_recurrence(self):
        term = B(B(L(2), L(1)), L(1))
        assert len(commutator_to_word(term, 4)) == 10
        deeper = B(term, L(3))
        assert len(commutator_to_word(deeper, 4)) == 22

    def test_exponent_sums_vanish(self):
        for w in range(2, 6):
            for term in basic_commutators(3, w):
                word = commutator_to_word(term, 4)
                sums = {}
                for letter in word.letters:
                    key = (letter.r, letter.s)
                    sums[key] = sums.get(key, 0) + letter.exponent
                assert all(v == 0 for v in sums.values())

    def test_leaf_out_of_range(self):
        with pytest.raises(UsageError):
            commutator_to_word(L(4), 4)


class TestParsing:
    def test_leaf(self):
        term = parse_commutator("x3")
        assert term == L(3) and term.weight == 1

    def test_nested(self):
        term = parse_commutator("[[x2,x1],x1]")
        assert term == B(B(L(2), L(1)), L(1))
        assert term.weight == 3

    def test_double_bracket(self):
        term = parse_commutator("[[x2,x1],[x3,x1]]")
        assert term.weight == 4
        assert not is_left_normed(term)

    def test_whitespace_tolerated(self):
        assert parse_commutator(" [ x2 , x1 ] ") == B(L(2), L(1))

    def test_errors(self):
        for bad in ("", "[x1,x2", "x", "[x1 x2]", "x1]"):
            with pytest.raises(UsageError):
                parse_commutator(bad)

    def test_deep_nesting_rejected_with_position(self):
        deep = "[" * 2000 + "x1,x2" + "]" * 2000
        with pytest.raises(UsageError, match=r"nested deeper .*position 64"):
            parse_commutator(deep)
        # the cap counts open brackets, whichever side they nest on
        text = "x1"
        for _ in range(MAX_BRACKET_DEPTH):
            text = f"[x2,{text}]"
        assert parse_commutator(text).weight == MAX_BRACKET_DEPTH + 1
        with pytest.raises(UsageError, match="nested deeper"):
            parse_commutator(f"[x2,{text}]")

    @pytest.mark.parametrize(
        "text, position",
        [
            ("A(1,2)", 0),
            ("[x1,x2]^2", 7),
            ("[x1,A(1,4)]", 4),
            ("[x2,x1] x1", 8),
            ("x0", 0),
            ("[x1,x0]", 4),
            ("[x\u0662,x\u0661]", 1),
        ],
    )
    def test_word_only_syntax_rejected_with_position(self, text, position):
        # commutator text shares the word grammar's tokens, whose digits are
        # ASCII only ("[x2,x1]" in Arabic-Indic digits used to parse), but
        # admits only generators and brackets
        with pytest.raises(WordSyntaxError) as info:
            parse_commutator(text)
        assert info.value.position == position
        assert f"position {position}" in str(info.value)

    def test_round_trip_through_str(self):
        for term in basic_commutators(3, 4):
            assert parse_commutator(str(term)) == term
