"""Command-line front end.

Subcommands expose the workbench operations with machine-readable output:

    gen      print a generator matrix (or its inverse), exact or truncated
    eval     evaluate a word, exact or truncated
    rank     rank of the weight-w class matrix against the Witt number
    kernel   rank plus a primitive basis of the left kernel
    verify   run a suite of the table SUITES, or the tuple ALL
    search   enumerate and test kernel candidates, one JSON line each

SUITES maps each verify suite to a function of (n, weight) that returns its
JSON dict, with "ok", and its pretty lines; only sfold reads the weight.
``--suite all`` runs ALL in order: tables, sfold, and the breakdown at 4
strands.  Nothing is printed before every suite has run.  A new suite is
one function and one entry in SUITES, not in ALL.

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
from .graded import assemble_phi_matrix, integer_rank, kernel_report, sfold_property_check, verify_tables
from .hall import witt_rank
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
        choices=(*SUITES, "all"),
        default="all",
    )
    p_verify.add_argument("--n", type=_ascii_int, default=4)
    p_verify.add_argument("--weight", type=_ascii_int, default=5, help="weight for the sfold suite")
    add_common(p_verify)

    p_search = sub.add_parser("search", help="bounded kernel-candidate search")
    defaults = SearchConfig._field_defaults
    p_search.add_argument("--n", type=_ascii_int, default=defaults["n"])
    p_search.add_argument("--weight", type=_ascii_int, default=defaults["weight"])
    p_search.add_argument("--coeff-bound", type=_ascii_int, default=defaults["coeff_bound"])
    p_search.add_argument("--support", type=_ascii_int, default=defaults["support_bound"])
    p_search.add_argument("--budget", type=_ascii_int, default=defaults["budget"])
    p_search.add_argument("--degree-probe", type=_ascii_int, default=defaults["degree_probe"])
    p_search.add_argument("--seed", type=_ascii_int, default=defaults["seed"])
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
    n, w = args.n, args.weight
    matrix = assemble_phi_matrix(n, w)
    rank, expected = integer_rank(matrix), witt_rank(n - 1, w)
    injective = rank == matrix.row_count
    if args.format == "json":
        data = {"n": n, "weight": w, "rank": rank, "expected": expected, "injective": injective}
        print(json.dumps(data, sort_keys=True))
    else:
        verdict = "injective" if injective else "not injective"
        print(
            f"rank {rank}, expected {expected}, {verdict} "
            f"({matrix.row_count} basis elements)"
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
        texts = report.label_texts()
        for vec in report.kernel:
            print("  " + " ".join(f"{m:+d}*{texts[i]}" for i, m in vec))
    return 0


def _tables_suite(n: int, weight: int):
    report = verify_tables(n)
    resolution = report.duplicate_resolution()
    data = {"ok": report.ok("corrected"), "duplicate_resolution": resolution,
            "report": report.to_dict()}
    return data, [f"  repeated-term reading: {resolution}"]


def _sfold_suite(n: int, weight: int):
    data = sfold_property_check(n, weight).to_dict()
    rows, rank = data["left_normed_count"], data["submatrix_rank"]
    return data, [f"  left-normed rows {rows}, submatrix rank {rank}"]


def _breakdown_suite(n: int, weight: int):
    try:
        report = breakdown_regression(n)
    except RegressionError as exc:
        return {"ok": False, "error": str(exc)}, []
    degree = report.first_difference_degree
    return {"ok": True, "report": report.to_dict()}, [f"  first difference degree: {degree}"]


SUITES = {"tables": _tables_suite, "sfold": _sfold_suite, "breakdown": _breakdown_suite}
ALL = (("tables", None), ("sfold", None), ("breakdown", 4))  # (suite, strands or --n)


def _cmd_verify(args) -> int:
    runs = ALL if args.suite == "all" else ((args.suite, None),)
    results = {name: SUITES[name](args.n if n is None else n, args.weight) for name, n in runs}
    if args.format == "json":
        print(json.dumps({name: data for name, (data, _) in results.items()}, sort_keys=True))
    else:
        for name, (data, lines) in results.items():
            print(f"{name}: {'pass' if data['ok'] else 'MISMATCH'}", *lines, sep="\n")
    return 0 if all(data["ok"] for data, _ in results.values()) else MISMATCH


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
