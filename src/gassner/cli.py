"""Command-line front end.

Subcommands expose the workbench operations with machine-readable output:

    gen      print a generator matrix (or its inverse), exact or truncated
    eval     evaluate a word, exact or truncated
    rank     rank of the weight-w class matrix against the Witt number
    kernel   rank plus a primitive basis of the left kernel
    verify   run the reference-table / left-normed / breakdown suites
    search   enumerate and test kernel candidates, one JSON line each

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 141 (128 +
SIGPIPE) when the reader of stdout goes away before the output is written,
as in ``gassner search --format json | head -1``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .braid import MAX_EXACT_WORK, _letter_matrix, _letter_matrix_truncated, check_series_budget, evaluate_exact, evaluate_truncated, parse_word
from .graded import kernel_report, sfold_property_check, verify_tables
from .laurent import DomainError, UsageError
from .search import SearchConfig, breakdown_regression, RegressionError, run_search

USAGE_ERROR = 2
MISMATCH = 1
BROKEN_PIPE = 141

_ASCII_INT = re.compile(r"-?[0-9]+")


def _ascii_int(text: str) -> int:
    """An integer flag value: an optional minus and ASCII digits, nothing else.

    Python's ``int`` also reads other Unicode decimal digits, surrounding
    whitespace and ``_`` separators; flags take the ASCII digits that word
    text takes, and argparse exits 2 with usage on anything else.
    """
    if not _ASCII_INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gassner",
        description="Exact workbench for the Gassner representation of pure braids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "pretty"), default="pretty")

    p_gen = sub.add_parser("gen", help="print a generator matrix")
    p_gen.add_argument("--n", type=_ascii_int, required=True)
    p_gen.add_argument("--r", type=_ascii_int, required=True)
    p_gen.add_argument("--s", type=_ascii_int, required=True)
    p_gen.add_argument("--inverse", action="store_true")
    p_gen.add_argument("--truncate", type=_ascii_int, default=None, metavar="D")
    add_common(p_gen)

    p_eval = sub.add_parser("eval", help="evaluate a word")
    p_eval.add_argument("word", help="word text, e.g. 'x1 x2^-1' or '[x2,x1]'")
    p_eval.add_argument("--n", type=_ascii_int, required=True)
    p_eval.add_argument("--truncate", type=_ascii_int, default=None, metavar="D")
    add_common(p_eval)

    p_rank = sub.add_parser("rank", help="rank of the weight-w class matrix")
    p_rank.add_argument("--n", type=_ascii_int, required=True)
    p_rank.add_argument("--weight", type=_ascii_int, required=True)
    add_common(p_rank)

    p_kernel = sub.add_parser("kernel", help="left kernel of the class matrix")
    p_kernel.add_argument("--n", type=_ascii_int, required=True)
    p_kernel.add_argument("--weight", type=_ascii_int, required=True)
    add_common(p_kernel)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument(
        "--suite",
        choices=("tables", "sfold", "breakdown", "all"),
        default="all",
    )
    p_verify.add_argument("--n", type=_ascii_int, default=4)
    p_verify.add_argument("--weight", type=_ascii_int, default=5, help="weight for the sfold suite")
    add_common(p_verify)

    p_search = sub.add_parser("search", help="bounded kernel-candidate search")
    p_search.add_argument("--n", type=_ascii_int, default=SearchConfig.n)
    p_search.add_argument("--weight", type=_ascii_int, default=SearchConfig.weight)
    p_search.add_argument("--coeff-bound", type=_ascii_int, default=SearchConfig.coeff_bound)
    p_search.add_argument("--support", type=_ascii_int, default=SearchConfig.support_bound)
    p_search.add_argument("--budget", type=_ascii_int, default=SearchConfig.budget)
    p_search.add_argument("--degree-probe", type=_ascii_int, default=SearchConfig.degree_probe)
    p_search.add_argument("--seed", type=_ascii_int, default=SearchConfig.seed)
    add_common(p_search)

    return parser


def _print_matrix(matrix, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(matrix.to_dict(), sort_keys=True))
    else:
        print(matrix)


def _cmd_gen(args) -> int:
    letter = (args.n, args.r, args.s, -1 if args.inverse else 1)
    matrix = _letter_matrix(*letter)
    if args.truncate is not None:
        check_series_budget(args.n, args.truncate)
        matrix = _letter_matrix_truncated(*letter, args.truncate)
    _print_matrix(matrix, args.format)
    return 0


def _cmd_eval(args) -> int:
    word = parse_word(args.word, args.n)
    if args.truncate is not None:
        check_series_budget(args.n, args.truncate)
        matrix = evaluate_truncated(word, args.truncate)
    else:
        matrix = evaluate_exact(word, MAX_EXACT_WORK)
    _print_matrix(matrix, args.format)
    return 0


def _cmd_rank(args) -> int:
    report = kernel_report(args.n, args.weight)
    if args.format == "json":
        data = report.to_dict()
        del data["kernel"]
        print(json.dumps(data, sort_keys=True))
    else:
        verdict = "injective" if report.injective else "not injective"
        print(
            f"rank {report.rank}, expected {report.expected}, {verdict} "
            f"({len(report.row_labels)} basis elements)"
        )
    return 0


def _cmd_kernel(args) -> int:
    report = kernel_report(args.n, args.weight)
    if args.format == "json":
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(
            f"rank {report.rank} of {len(report.row_labels)}; "
            f"kernel dimension {len(report.kernel)}"
        )
        for vec in report.kernel:
            parts = [
                f"{m:+d}*{label}"
                for label, m in zip(report.row_labels, vec)
                if m
            ]
            print("  " + " ".join(parts))
    return 0


def _cmd_verify(args) -> int:
    failed = False
    results = {}
    if args.suite in ("tables", "all"):
        report = verify_tables(args.n)
        ok = report.ok("corrected")
        failed |= not ok
        results["tables"] = {
            "ok": ok,
            "duplicate_resolution": report.duplicate_resolution(),
            "report": report.to_dict(),
        }
    if args.suite in ("sfold", "all"):
        report = sfold_property_check(args.n, args.weight)
        failed |= not report.ok
        results["sfold"] = report.to_dict()
    if args.suite in ("breakdown", "all"):
        try:
            # --suite all runs the breakdown at 4 strands whatever --n is
            report = breakdown_regression(args.n if args.suite == "breakdown" else 4)
            results["breakdown"] = {"ok": True, "report": report.to_dict()}
        except RegressionError as exc:
            failed = True
            results["breakdown"] = {"ok": False, "error": str(exc)}
    if args.format == "json":
        print(json.dumps(results, sort_keys=True))
    else:
        for name, data in results.items():
            print(f"{name}: {'pass' if data['ok'] else 'MISMATCH'}")
            if name == "tables":
                print(
                    "  repeated-term reading: "
                    f"{data['duplicate_resolution']}"
                )
            if name == "sfold":
                print(
                    f"  left-normed rows {data['left_normed_count']}, "
                    f"submatrix rank {data['submatrix_rank']}"
                )
            if name == "breakdown" and data["ok"]:
                print(
                    "  first difference degree: "
                    f"{data['report']['first_difference_degree']}"
                )
    return MISMATCH if failed else 0


def _cmd_search(args) -> int:
    cfg = SearchConfig(
        n=args.n,
        weight=args.weight,
        coeff_bound=args.coeff_bound,
        support_bound=args.support,
        degree_probe=args.degree_probe,
        budget=args.budget,
        seed=args.seed,
    )
    report = run_search(cfg)
    if args.format == "json":
        for line in report.to_json_lines():
            print(line)
    else:
        if report.notice:
            print(report.notice)
        for result in report.candidates:
            combo = " ".join(f"{m:+d}*{c}" for c, m in result.coefficients)
            first = (
                f"first nonvanishing degree {result.first_nonvanishing_degree}"
                if result.first_nonvanishing_degree is not None
                else f"trivial up to degree {cfg.degree_probe}"
            )
            verdict = "IDENTITY" if result.is_identity else "non-identity"
            print(f"{verdict} (length {result.word_length}, {first}): {combo}")
        print(
            f"tested {len(report.candidates)} candidates, "
            f"{report.identities_found} identities"
        )
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "eval": _cmd_eval,
    "rank": _cmd_rank,
    "kernel": _cmd_kernel,
    "verify": _cmd_verify,
    "search": _cmd_search,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # the reader is gone; the Python docs' SIGPIPE recipe points stdout
        # at devnull so that the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
