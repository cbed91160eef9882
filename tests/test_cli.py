"""Command-line interface behavior and exit codes."""

import hashlib
import json

import pytest

from gassner import cli
from gassner.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_two_strand_pretty(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "2", "--r", "1", "--s", "2")
        assert code == 0
        assert "1 - t1 + t1*t2" in out

    def test_inverse_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--n", "4", "--r", "1", "--s", "4", "--inverse",
            "--format", "json",
        )
        assert code == 0
        from gassner.braid import gassner_generator, gassner_generator_inverse

        inverse = gassner_generator_inverse(4, 1, 4)
        assert json.loads(out) == inverse.to_dict()
        assert (gassner_generator(4, 1, 4) * inverse).is_identity()

    def test_bad_indices_exit_two(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "4", "--r", "4", "--s", "1")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("r,s", [(2, 2), (4, 1)])
    def test_inverse_bad_indices_exit_two(self, capsys, r, s):
        code, out, err = run(
            capsys, "gen", "--n", "4", "--r", str(r), "--s", str(s), "--inverse"
        )
        assert code == 2
        assert out == ""
        assert "1 <= r < s <= n" in err

    def test_inverse_at_strand_cap_is_fast(self, capsys):
        # the closed-form inverse costs O(n^2); a general adjugate walks
        # every column subset and runs out of memory here
        import time

        start = time.perf_counter()
        code, out, _ = run(
            capsys, "gen", "--n", "64", "--r", "1", "--s", "2", "--inverse"
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out.count("\n") == 64
        assert elapsed < 1.0

    def test_truncate(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--n", "2", "--r", "1", "--s", "2",
            "--truncate", "1", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["ring"] == "series"

    def test_negative_truncate_exit_two(self, capsys):
        code, out, err = run(
            capsys, "gen", "--n", "2", "--r", "1", "--s", "2", "--truncate", "-1"
        )
        assert code == 2
        assert out == ""
        assert "truncation degree" in err


class TestEval:
    def test_cancelling_word(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--n", "4", "x1 x1^-1", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        entries = data["entries"]
        for i in range(4):
            for j in range(4):
                terms = entries[i][j]["terms"]
                assert terms == ([{"e": [0, 0, 0, 0], "c": "1"}] if i == j else [])

    @pytest.mark.parametrize("text", ["", "[,]", "[x1,]"])
    def test_empty_word_and_empty_bracket_side_are_identity(self, capsys, text):
        # word := term*, so the empty word is I and [a, e] = a a^-1 = e
        code, out, err = run(capsys, "eval", "--n", "4", text, "--format", "json")
        _, identity, _ = run(
            capsys, "eval", "--n", "4", "x1 x1^-1", "--format", "json"
        )
        assert (code, err) == (0, "")
        assert out == identity

    def test_syntax_error_exit_two(self, capsys):
        code, _, err = run(capsys, "eval", "--n", "4", "x9")
        assert code == 2
        assert "position" in err

    @pytest.mark.parametrize(
        "text, position",
        [
            ("A(\u0661,\u0664)", 0),
            ("x1^\u0662", 2),
            ("x1\u3000x2", 2),
            ("x\uff11", 0),
        ],
        ids=[
            "arabic-indic-indices",
            "arabic-indic-exponent",
            "ideographic-space",
            "fullwidth-digit",
        ],
    )
    def test_non_ascii_digits_and_spaces_exit_two(self, capsys, text, position):
        # an int in the word grammar is ASCII digits; these used to read as
        # A(1,4), x1^2 and x1 x2
        code, out, err = run(capsys, "eval", "--n", "4", text)
        assert code == 2
        assert out == ""
        assert f"(at position {position})" in err

    @pytest.mark.parametrize(
        "text",
        ["x1^1000000000", "[" * 40 + "x1" + ",x2]" * 40],
        ids=["giant-exponent", "nested-brackets"],
    )
    def test_giant_word_exit_two_without_allocating(self, capsys, text):
        import tracemalloc

        tracemalloc.start()
        try:
            code, _, err = run(capsys, "eval", "--n", "4", text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "more than 100000" in err and "position" in err
        # words up to the cap cost a few MB; the full expansions would
        # need gigabytes (exponent) or terabytes (brackets)
        assert peak < 32 << 20

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--n", "4", "--truncate", "60", "[x1,x2] [x3,x1]"],
            ["eval", "--n", "4", "--truncate", "33", "x1"],
            ["gen", "--n", "4", "--r", "1", "--s", "4", "--truncate", "60"],
            ["gen", "--n", "64", "--r", "1", "--s", "2", "--truncate", "2"],
        ],
        ids=["eval-degree-60", "eval-degree-33", "gen-degree-60", "gen-64-strands"],
    )
    def test_truncation_budget_exit_two_before_any_series(
        self, capsys, monkeypatch, argv
    ):
        # n^2 C(D+n, n) bounds the coefficients of a truncated n x n matrix;
        # above the budget nothing truncated is built.  Unchecked, the
        # degree-60 eval takes about a minute and prints 42 MB
        import gassner.cli as cli

        def refuse(*args):
            raise AssertionError("a truncated matrix was built")

        monkeypatch.setattr(cli, "evaluate_truncated", refuse)
        monkeypatch.setattr(cli, "_letter_matrix_truncated", refuse)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "more than the budget of 1000000" in err

    # exact eval: x1^k on 2 strands holds 4(j + 1) terms after j letters,
    # so its summed work is 4k(k + 1); under the 10^6 budget k = 499 runs
    # (998,000) and k = 500 (1,002,000) exits 2, about 3-7 s each on a
    # 2-core host, so the ladder is tested here under a budget of 4*20*21
    @pytest.mark.parametrize("k,code", [(1, 0), (19, 0), (20, 0), (21, 2), (50, 2)])
    def test_exact_work_budget_on_the_x1_ladder(self, capsys, monkeypatch, k, code):
        import gassner.cli as cli

        monkeypatch.setattr(cli, "MAX_EXACT_WORK", 4 * 20 * 21)
        got, out, err = run(capsys, "eval", "--n", "2", f"x1^{k}", "--format", "json")
        assert got == code
        if code == 0:
            from gassner.braid import evaluate_exact, parse_word

            assert json.loads(out) == evaluate_exact(parse_word(f"x1^{k}", 2)).to_dict()
            assert err == ""
        else:
            assert out == ""
            assert "passed the work budget of 1680 terms" in err
            assert f"at letter 21 of {k}" in err

    def test_exact_work_budget_is_the_stated_one(self, capsys):
        # the shipped budget, as the README states it; a cheap word runs
        import gassner.cli as cli
        from gassner.braid import MAX_EXACT_WORK

        assert cli.MAX_EXACT_WORK == MAX_EXACT_WORK == 10**6
        code, out, _ = run(capsys, "eval", "--n", "2", "x1^100")
        assert code == 0 and out

    def test_the_commands_are_gated_and_the_library_is_not(self, capsys, monkeypatch):
        # the budget binds the commands, not the library: evaluate_exact
        # without max_work counts nothing, and the search's exact rung
        # passes the shipped budget
        import gassner.braid as braid
        import gassner.cli as cli
        import gassner.search as search
        from gassner.laurent import LaurentPoly, SquareMatrix, identity_rows

        monkeypatch.setattr(cli, "MAX_EXACT_WORK", 0)
        monkeypatch.setattr(braid, "MAX_EXACT_WORK", 0)
        word = braid.parse_word("x1^30", 2)
        assert braid.evaluate_exact(word) == braid.evaluate_exact(word, 10**9)
        code, _, err = run(capsys, "eval", "--n", "2", "x1")
        assert code == 2 and "work budget of 0" in err

        calls = []

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return SquareMatrix(identity_rows(4, LaurentPoly.one(4)))

        monkeypatch.setattr(search, "evaluate_exact", recording)
        monkeypatch.setattr(
            search, "_specialized_candidate_is_identity", lambda *args: True
        )
        cfg = search.SearchConfig(degree_probe=5, budget=2)
        assert all(r.is_identity for r in search.run_search(cfg).candidates)
        assert len(calls) == 2
        assert all(args[1:] == (10**6,) and not kwargs for args, kwargs in calls)

    def test_search_exact_rung_exits_two_past_the_budget(self, capsys, monkeypatch):
        # a candidate that passes the mod-p probes reaches exact evaluation;
        # its 56-letter word sums far more than 1000 terms, so the search
        # stops with the eval budget's message instead of running on
        import gassner.search as search
        from gassner.laurent import UsageError

        monkeypatch.setattr(
            search, "_specialized_candidate_is_identity", lambda *args: True
        )
        monkeypatch.setattr(search, "MAX_EXACT_WORK", 1000)
        with pytest.raises(UsageError, match="passed the work budget of 1000 terms"):
            search.run_search(search.SearchConfig(degree_probe=5, budget=1))
        code, out, err = run(
            capsys, "search", "--degree-probe", "5", "--budget", "1", "--format", "json"
        )
        assert code == 2
        assert out == ""
        assert "passed the work budget of 1000 terms" in err
        assert "of 56" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--n", "3000", "--r", "1", "--s", "2"],
            ["gen", "--n", "3000", "--r", "1", "--s", "2", "--inverse"],
            ["eval", "--n", "3000", "x1"],
        ],
        ids=["gen", "gen-inverse", "eval"],
    )
    def test_strand_cap_exit_two_without_allocating(self, capsys, argv):
        import tracemalloc

        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert "exceeds the cap of 64" in err
        # a 3000 x 3000 matrix of polynomials would take gigabytes
        assert peak < 1 << 20

    def test_deep_bracket_nesting_exit_two(self, capsys):
        text = "[" * 2000 + "x1,x2" + "]" * 2000
        code, out, err = run(capsys, "eval", "--n", "4", text)
        assert code == 2
        assert out == ""
        assert "position" in err and "Traceback" not in err

    def test_truncated_eval(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--n", "4", "--truncate", "2", "[x2,x1]",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["entries"][0][0]["max_deg"] == 2

    def test_breakdown_words_agree_truncated(self, capsys):
        from gassner.search import BREAKDOWN_WORD_TEXTS

        outputs = []
        for text in BREAKDOWN_WORD_TEXTS:
            code, out, _ = run(
                capsys, "eval", "--n", "4", "--truncate", "5", text,
                "--format", "json",
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestRankKernel:
    def test_rank_weight_four(self, capsys):
        code, out, _ = run(capsys, "rank", "--n", "4", "--weight", "4")
        assert code == 0
        assert "rank 18, expected 18, injective" in out

    def test_rank_weight_five_json(self, capsys):
        code, out, _ = run(
            capsys, "rank", "--n", "4", "--weight", "5", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["rank"] < 48 and data["injective"] is False

    @pytest.mark.parametrize(
        "n,w,pretty,data",
        [
            (4, 4, "rank 18, expected 18, injective (18 basis elements)",
             {"expected": 18, "injective": True, "n": 4, "rank": 18, "weight": 4}),
            (5, 5, "rank 169, expected 204, not injective (204 basis elements)",
             {"expected": 204, "injective": False, "n": 5, "rank": 169, "weight": 5}),
            (4, 6, "rank 69, expected 116, not injective (116 basis elements)",
             {"expected": 116, "injective": False, "n": 4, "rank": 69, "weight": 6}),
            (3, 6, "rank 6, expected 9, not injective (9 basis elements)",
             {"expected": 9, "injective": False, "n": 3, "rank": 6, "weight": 6}),
        ],
        ids=["4-4", "5-5", "4-6", "3-6"],
    )
    def test_rank_prints_without_the_kernel(self, capsys, monkeypatch, n, w, pretty, data):
        # rank takes its rank from integer_rank alone; the pinned lines are
        # what rank printed when it ran kernel_report and dropped the kernel
        from gassner import graded

        def refuse(m):
            raise AssertionError("rank computed a kernel")

        monkeypatch.setattr(graded, "integer_kernel", refuse)
        argv = ("rank", "--n", str(n), "--weight", str(w))
        assert run(capsys, *argv) == (0, pretty + "\n", "")
        assert run(capsys, *argv, "--format", "json") == (
            0, json.dumps(data, sort_keys=True) + "\n", ""
        )

    def test_rank_runs_no_bareiss_elimination(self, capsys, monkeypatch):
        # integer_rank reduces rows in order, shortest first; Bareiss's
        # pivots are kept for the printed kernel only
        from gassner import graded

        def refuse(rows, pivot_cols):
            raise AssertionError("rank ran the Bareiss elimination")

        monkeypatch.setattr(graded, "_bareiss", refuse)
        assert run(capsys, "rank", "--n", "5", "--weight", "5") == (
            0, "rank 169, expected 204, not injective (204 basis elements)\n", ""
        )

    def test_jobs_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--n", "4", "--weight", "4", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_kernel_weight_three_empty(self, capsys):
        code, out, _ = run(
            capsys, "kernel", "--n", "4", "--weight", "3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["kernel"] == []


    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--n", "7", "--weight", "8"],
            ["kernel", "--n", "7", "--weight", "6"],
            ["search", "--n", "6", "--weight", "7"],
            ["verify", "--suite", "sfold", "--n", "7", "--weight", "6"],
            ["verify", "--suite", "all", "--n", "5", "--weight", "8"],
        ],
        ids=["rank", "kernel", "search", "verify-sfold", "verify-all"],
    )
    def test_basis_budget_exit_two_before_building_basis(
        self, capsys, monkeypatch, argv
    ):
        # the Witt number is checked once per command, before the basis is
        # built; (7,8) alone has 209,790 basic commutators.  The tables
        # suite of verify --suite all builds weights 1-4 only
        import gassner.hall as hall

        original = hall._basic_commutators

        def refuse(m, w):
            if w >= 6:
                raise AssertionError(f"the weight-{w} basis was built")
            return original(m, w)

        monkeypatch.setattr(hall, "_basic_commutators", refuse)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "more than the budget of 3000" in err


class TestVerify:
    def test_tables_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "tables", "--n", "4")
        assert code == 0
        assert "pass" in out and "-1" in out

    def test_breakdown_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "breakdown")
        assert code == 0
        assert "first difference degree: 6" in out

    def test_breakdown_rejects_other_strand_counts(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "breakdown", "--n", "5")
        assert code == 2
        assert out == ""
        assert "specific to 4 strands" in err

    def test_all_runs_breakdown_at_four_strands(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "all", "--n", "5", "--weight", "3"
        )
        assert code == 0
        assert "breakdown: pass" in out
        assert "first difference degree: 6" in out

    def test_sfold_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "sfold", "--n", "4", "--weight", "5"
        )
        assert code == 0
        assert "pass" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "tables", "--n", "4",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["tables"]["ok"] is True
        assert data["tables"]["duplicate_resolution"] == "-1"


# (verify arguments, exit code, sha256 of stdout), as printed by the
# per-suite branches that cli.SUITES replaced; e3b0c442... is empty stdout
SUITE_DIGESTS = [
    ("tables --n 4 --format pretty", 0, "36bd46ff0ae2cad503bcb3ce27fb840f73325aee975338ce20b1562cdc05a23b"),
    ("tables --n 4 --format json", 0, "3ace0d24ab02ea9bcafa80ed64fb517a09943fbd8316d783cbd46364dddc2e4e"),
    ("tables --n 5 --format pretty", 0, "36bd46ff0ae2cad503bcb3ce27fb840f73325aee975338ce20b1562cdc05a23b"),
    ("tables --n 5 --format json", 0, "1cbb6b034f4b3baa83afc058824e20378a4888623719ff4db5214607abcbbaba"),
    ("sfold --n 4 --format pretty --weight 3", 0, "80d577c9d6176c6b9a1a2076f4411a1af303e7a836111e103b6bbb5ad75a5464"),
    ("sfold --n 4 --format pretty --weight 6", 0, "3ca1bfddacbf7e075a7a0597a8b4652e324c2b31c45374fcbb7b6d8e8957adcb"),
    ("sfold --n 4 --format json --weight 3", 0, "56e0ef2c08381ebf18049b1622d61148e723f7c22ded382ff1127abf95f050e0"),
    ("sfold --n 4 --format json --weight 6", 0, "7922fd6c39ecb18c785c238d7d27527ce6d34932a6174fd9749289c01900ebf6"),
    ("sfold --n 5 --format pretty --weight 3", 0, "14326dc320ced0ad192cd7719bd60079b20d707b67b29fe4ded47677e924989a"),
    ("sfold --n 5 --format pretty --weight 6", 0, "6c151d8c40846df2ba1383caadfa85a34cb0bbee4c9ec8444eebc86e786b5b68"),
    ("sfold --n 5 --format json --weight 3", 0, "11d199cd5dc8c0df6632f0a73078d0f223e103d4aac547684f0380294e991027"),
    ("sfold --n 5 --format json --weight 6", 0, "29e0de4e788f6b8176dc1396ee349a4f7f8a291bdc93932f310d4e2dc1c4ed2d"),
    ("breakdown --n 4 --format pretty", 0, "1d9518743d324b8d6177da8d5be98bf18ea6d36f6a78d9a11d5f20ce249deb9b"),
    ("breakdown --n 4 --format json", 0, "21c7c39579b646c9571eb50a186f51ec4ba7f91c2974ea6c194ba7f939b09437"),
    ("breakdown --n 5 --format pretty", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("breakdown --n 5 --format json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("all --n 4 --format pretty --weight 3", 0, "530ad4a64d500f36884022f5f5b0fa5fe8651b9705e9dafe1317221e62802cd2"),
    ("all --n 4 --format pretty --weight 6", 0, "828bfc66273a8e3248b6b019d9e369a7ed2534dcd394338d424e9a9c091ae8f6"),
    ("all --n 4 --format json --weight 3", 0, "b34968245251e7d17e04efa9cda1677d0a8404b1ea9ea170101ce749f7ceab54"),
    ("all --n 4 --format json --weight 6", 0, "76e24ff183deb0054dc36ab591ed3cc509047a42f543f8e0fde3b21533c60633"),
    ("all --n 5 --format pretty --weight 3", 0, "e7c5eca813bc4ef3bbb4ed67049a9362d8b856b897312bce1f2a93b98442fc18"),
    ("all --n 5 --format pretty --weight 6", 0, "ce4d9641836ca845bdb0b233c2423d74f658de596ab75e39566572c97930f8c4"),
    ("all --n 5 --format json --weight 3", 0, "c2bc9bcfee207d2b4bfcbd7be6f272aecd0e24b24f8e27b266d6d65571be5fd7"),
    ("all --n 5 --format json --weight 6", 0, "f56927d76b5d2f540ee671870e15239a19ae5dae979f2980e5ac57274ec5236a"),
]


class TestSuiteTable:
    @pytest.mark.parametrize(
        "args, code, digest", SUITE_DIGESTS, ids=[a for a, _, _ in SUITE_DIGESTS]
    )
    def test_output_is_pinned(self, capsys, args, code, digest):
        got, out, _ = run(capsys, "verify", "--suite", *args.split())
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_registered_suite_runs_by_name_and_not_under_all(self, capsys, monkeypatch):
        calls = []

        def dummy(n, weight):
            calls.append((n, weight))
            return {"ok": False, "seen": [n, weight]}, ["  dummy line"]

        monkeypatch.setitem(cli.SUITES, "dummy", dummy)
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert "--suite {tables,sfold,breakdown,dummy,all}" in capsys.readouterr().out
        code, out, _ = run(capsys, "verify", "--suite", "dummy", "--n", "5", "--weight", "7")
        assert (code, out) == (1, "dummy: MISMATCH\n  dummy line\n")
        code, out, _ = run(capsys, "verify", "--suite", "dummy", "--format", "json")
        assert code == 1
        assert json.loads(out) == {"dummy": {"ok": False, "seen": [4, 5]}}
        assert calls == [(5, 7), (4, 5)]
        code, out, _ = run(capsys, "verify", "--suite", "all", "--format", "json")
        assert code == 0
        assert sorted(json.loads(out)) == ["breakdown", "sfold", "tables"]
        assert len(calls) == 2

    def test_all_prints_nothing_when_a_suite_rejects_its_input(self, capsys):
        # the tables suite is defined on 4 and 5 strands only
        code, out, err = run(capsys, "verify", "--suite", "all", "--n", "6")
        assert (code, out) == (2, "")
        assert err == "error: table verification is defined for n in {4, 5}\n"


class TestStrandCount:
    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--weight", "3"],
            ["kernel", "--weight", "3"],
            ["search"],
            ["verify", "--suite", "sfold"],
            ["eval", "x1"],
        ],
        ids=["rank", "kernel", "search", "verify-sfold", "eval"],
    )
    def test_fewer_than_two_strands_exit_two(self, capsys, argv, n):
        code, out, err = run(capsys, *argv, "--n", n)
        assert (code, out) == (2, "")
        assert err == "error: strand count must be at least 2\n"


class TestVerifyMismatchPath:
    def test_broken_fixture_exits_one(self, capsys, monkeypatch):
        # sabotage one reference cell and confirm the mismatch is reported
        # with exit code 1 rather than an exception
        from gassner import tables

        broken = ((("n",), (("r", "r", (), 1), ("n", "r", (), 1))),) + tables.PHI1[1:]
        monkeypatch.setitem(tables._SHAPES, "weight1", (1, ("r",), broken))
        code, out, _ = run(capsys, "verify", "--suite", "tables", "--n", "4")
        assert code == 1
        assert "MISMATCH" in out

    def test_broken_fixture_json_lists_cells(self, capsys, monkeypatch):
        from gassner import tables

        broken = ((("n",), (("r", "r", (), 1), ("n", "r", (), 1))),) + tables.PHI1[1:]
        monkeypatch.setitem(tables._SHAPES, "weight1", (1, ("r",), broken))
        code, out, _ = run(
            capsys, "verify", "--suite", "tables", "--n", "4", "--format", "json"
        )
        assert code == 1
        data = json.loads(out)
        assert data["tables"]["ok"] is False
        weight1 = next(
            c for c in data["tables"]["report"]["checks"] if c["shape"] == "weight1"
        )
        assert weight1["mismatches"]["corrected"]


    @pytest.mark.parametrize("fmt", ["pretty", "json"])
    def test_breakdown_mismatch_exits_one(self, capsys, monkeypatch, fmt):
        # a pinned degree the images do not reproduce is a mismatch, exit 1
        monkeypatch.setattr("gassner.search.EXPECTED_FIRST_DIFFERENCE_DEGREE", 7)
        code, out, _ = run(capsys, "verify", "--suite", "breakdown", "--format", fmt)
        assert code == 1
        if fmt == "pretty":
            assert out == "breakdown: MISMATCH\n"
        else:
            assert json.loads(out) == {
                "breakdown": {"ok": False, "error": "first difference degree 6 != 7"}
            }


class TestSearch:
    def test_small_search_pretty(self, capsys):
        code, out, _ = run(
            capsys, "search", "--n", "4", "--weight", "5",
            "--coeff-bound", "1", "--support", "1", "--budget", "10",
        )
        assert code == 0
        assert "tested 4 candidates, 0 identities" in out

    def test_search_json_lines(self, capsys):
        code, out, _ = run(
            capsys, "search", "--n", "4", "--weight", "5",
            "--coeff-bound", "1", "--support", "1", "--budget", "10",
            "--format", "json",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = json.loads(lines[0])
        assert header["config"]["budget"] == 10
        summary = json.loads(lines[-1])
        assert summary == {"candidates_tested": 4, "identities_found": 0}
        for line in lines[1:-1]:
            data = json.loads(line)
            assert data["is_identity"] is False

    def test_empty_kernel_notice_exit_zero(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "4", "--weight", "4")
        assert code == 0
        assert "linearly independent" in out

    def test_zero_budget(self, capsys):
        code, out, _ = run(
            capsys, "search", "--n", "4", "--weight", "5", "--budget", "0"
        )
        assert code == 0
        assert "tested 0 candidates" in out

    def test_huge_coeff_bound_without_allocating(self, capsys):
        # coefficient tuples are drawn lazily from ranges, so the budget
        # bounds the work; listing [-bound, bound] would take gigabytes
        import tracemalloc

        tracemalloc.start()
        try:
            code, out, _ = run(
                capsys, "search", "--coeff-bound", "1000000000", "--budget", "5"
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "tested 5 candidates, 0 identities" in out
        assert peak < 32 << 20

    def test_default_flags_build_default_config(self, capsys, monkeypatch):
        from gassner import cli
        from gassner.search import SearchConfig

        seen = []
        run_search = cli.run_search

        def capture(cfg):
            seen.append(cfg)
            return run_search(SearchConfig(budget=0))

        monkeypatch.setattr(cli, "run_search", capture)
        code, _, _ = run(capsys, "search")
        assert code == 0
        assert seen == [SearchConfig()]

    def test_degree_probe_past_series_cap_exit_two(self, capsys):
        # the linear screen stops below degree 2w, so the probe bound must
        # be checked where the configuration enters
        code, out, err = run(capsys, "search", "--degree-probe", "300")
        assert code == 2
        assert out == ""
        assert "degree probe" in err


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [("rank", "--n", "4", "--weight", "4"), ("search", "--format", "json")],
        ids=["rank", "search-json"],
    )
    def test_closed_pipe_exits_141_without_traceback(self, argv):
        # the reader of stdout is gone before the child writes, as in
        # `gassner search --format json | head -1`; exit 1 would claim a
        # verification mismatch
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "gassner.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=str(src)),
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert b"Traceback" not in proc.stderr
        assert proc.stderr == b""
        assert proc.returncode == 141


class TestHashSeed:
    # terms hash by identity, so term-keyed maps may lay out differently
    # from run to run; what a command prints must not follow them
    @pytest.mark.parametrize(
        "argv",
        [
            ("kernel", "--n", "4", "--weight", "6", "--format", "json"),
            ("search", "--format", "json"),
        ],
        ids=["kernel-json", "search-json"],
    )
    def test_output_does_not_depend_on_the_hash_seed(self, argv):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        outputs = [
            subprocess.run(
                [sys.executable, "-m", "gassner.cli", *argv],
                capture_output=True,
                env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
                timeout=120,
            )
            for seed in ("0", "1")
        ]
        assert [p.returncode for p in outputs] == [0, 0]
        assert outputs[0].stdout == outputs[1].stdout and outputs[0].stdout


class TestIntegerFlags:
    # Python's int reads these as 4, 4, 4 and 10
    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--n", "٤", "--r", "١", "--s", "٤"),
            ("rank", "--n", "４", "--weight", "2"),
            ("rank", "--n", " 4 ", "--weight", "2"),
            ("gen", "--n", "1_0", "--r", "1", "--s", "2"),
        ],
        ids=["arabic-indic", "fullwidth", "surrounding-spaces", "underscore"],
    )
    def test_non_ascii_or_padded_integer_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid int value" in captured.err
        assert "usage:" in captured.err

    def test_every_integer_flag_is_strict(self, capsys):
        from gassner import cli

        flags = [
            (command, action.option_strings[0])
            for command, sub in next(
                a for a in cli._build_parser()._actions if a.choices
            ).choices.items()
            for action in sub._actions
            if action.type is not None
        ]
        assert ("search", "--seed") in flags and ("gen", "--truncate") in flags
        for command, flag in flags:
            with pytest.raises(SystemExit) as exc:
                main([command, flag, "٤"])
            assert exc.value.code == 2
            assert f"argument {flag}: invalid int value" in capsys.readouterr().err
