"""Routes that only the tests call stay out of ``src/gassner``.

``TEST_ONLY`` names the routes kept in ``tests/oracle.py`` because no
command runs them.  The package source is read with ``ast`` (as
``test_benchmark_names.py`` reads the benchmark's files), so one put back
into any module, as a function, a method or an import, fails here even if
nothing calls it.

The packed-key layout of ``_terms``, the map of a ``LaurentPoly`` or a
``TruncatedSeries``, and of ``SquareMatrix._flat``, the matrix's map
(packed key, row, col) -> coefficient over either ring, is known to two
modules: ``laurent``, which defines both, and ``graded``, whose one reader
decodes series keys.  Any other module reading ``._terms`` or ``._flat``
fails here.  ``laurent`` holds one body of each arithmetic operation for
the values of both rings and one for matrices.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gassner"
TEST_ONLY = (
    "delete_strand_reduction",
    "specialize",
    "drop_var",
    "is_basic",
    "from_laurent",
    "_binomial_expansion",
    "_specialize_matrix",
    "map_entries",
    "_mod_identity",
    "_mod_matmul",
    "graded_parts",
    "congruent_parts",
    "retruncate",
    "graded.bracket",
)


def _bound_names(tree):
    """Names a module defines (functions, methods, classes) or imports."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.rpartition(".")[2]
                yield alias.name.rpartition(".")[2]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_defines_or_imports_a_test_only_route(path):
    tree = ast.parse(path.read_text())
    names = set(_bound_names(tree))
    # "module.name" is a route that module defined at its top level, for a
    # name other modules use for methods (``bracket``)
    names |= {
        f"{path.stem}.{node.name}"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not names & set(TEST_ONLY), f"{path.name}: {sorted(names & set(TEST_ONLY))}"


def test_package_does_not_export_a_test_only_route():
    gassner = importlib.import_module("gassner")
    assert not [
        name for name in TEST_ONLY if hasattr(gassner, name.rpartition(".")[2])
    ]


PACKED_KEY_READERS = ("laurent.py", "graded.py")
PACKED_KEY_ATTRIBUTES = ("_terms", "_flat")


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name not in PACKED_KEY_READERS],
    ids=lambda p: p.name,
)
def test_only_laurent_and_graded_read_packed_terms(path):
    reads = [
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in PACKED_KEY_ATTRIBUTES
    ]
    assert not reads, f"{path.name} reads packed keys at (line, attribute) {reads}"


ARITHMETIC = ("__add__", "__sub__", "__neg__", "__mul__", "__eq__", "__hash__")


def test_laurent_defines_each_arithmetic_operation_at_most_twice():
    # once for the values of both rings, once for SquareMatrix
    tree = ast.parse((SRC / "laurent.py").read_text())
    defined = Counter(
        node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    )
    assert {name: defined[name] for name in ARITHMETIC if defined[name] > 2} == {}


def test_both_rings_share_each_arithmetic_body():
    from gassner.laurent import LaurentPoly, TruncatedSeries

    assert LaurentPoly.__mul__ is TruncatedSeries.__mul__
    for name in ARITHMETIC:
        assert getattr(LaurentPoly, name) is getattr(TruncatedSeries, name), name
