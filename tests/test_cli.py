"""Command-line interface behavior and exit codes."""

import json

import pytest

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

    def test_only_the_cli_eval_is_gated(self, capsys, monkeypatch):
        # the budget binds the command, not the library: evaluate_exact
        # without max_work, and the search's exact rung, count nothing
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
        assert all(len(args) == 1 and not kwargs for args, kwargs in calls)

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
