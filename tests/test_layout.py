"""Routes that only the tests call stay out of ``src/gassner``.

``TEST_ONLY`` names the routes kept in ``tests/oracle.py`` because no
command runs them.  The package source is read with ``ast`` (as
``test_benchmark_names.py`` reads the benchmark's files), so one put back
into any module, as a function, a method or an import, fails here even if
nothing calls it.

The packed-key layout of ``_terms``, the one map of a ``LaurentPoly``, a
``TruncatedSeries`` or a ``SquareMatrix`` over either ring, whose key packs
the monomial key, the row and the column, is known to two modules:
``laurent``, which defines it, and ``graded``, whose one reader slices
series keys by degree and whose classes keep them.  Any other module
reading ``._terms`` fails here.  ``laurent`` holds one body of each
arithmetic operation, shared by the values of both rings and by matrices,
and one unchecked builder; no name of the second matrix layout it
replaced, nor of the tuple-keyed class reader, is left in the package.
A graded class is such a value too, and shares all of it but the product;
rank and kernel elimination share one row step.  Hall commutator terms
are interned, so ``hall`` defines no equality or hash of its own.

Every command pays for ``import gassner.cli``, so the package loads no
``dataclasses``, ``inspect`` or ``typing``: their import and the source a
``dataclass`` decorator generates and compiles were about a quarter of
its cost.
"""

import ast
import importlib
import subprocess
import sys
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
    "zero_like",
    "is_one",
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
PACKED_KEY_ATTRIBUTES = ("_terms",)


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


def test_laurent_defines_each_arithmetic_operation_at_most_once():
    # one body for the values of both rings and for SquareMatrix, and one
    # unchecked builder
    tree = ast.parse((SRC / "laurent.py").read_text())
    defined = Counter(
        node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    )
    assert {name: defined[name] for name in ARITHMETIC if defined[name] > 1} == {}
    assert [(n, c) for n, c in defined.items() if n.startswith("_raw")] == [("_raw", 1)]


def test_both_rings_share_each_arithmetic_body():
    # and matrices share them too, and graded classes all but the product
    from gassner.graded import GradedClass
    from gassner.laurent import LaurentPoly, PackedValue, SquareMatrix, TruncatedSeries

    assert SquareMatrix.__mul__ is LaurentPoly.__mul__ is TruncatedSeries.__mul__
    for name in ARITHMETIC:
        body = getattr(LaurentPoly, name)
        assert getattr(TruncatedSeries, name) is body, name
        assert getattr(SquareMatrix, name) is body, name
    assert issubclass(GradedClass, PackedValue)
    for name in ("__add__", "__sub__", "__neg__", "__eq__", "__hash__"):
        assert getattr(GradedClass, name) is getattr(PackedValue, name), name
    assert GradedClass._raw.__func__ is PackedValue._raw.__func__
    with pytest.raises(TypeError):
        GradedClass(3, 1) * GradedClass(3, 1)


SECOND_LAYOUT_NAMES = ("_flat", "_raw_flat", "_raw_element", "_rows")


def _identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # ``__slots__`` entries and names looked up by string
            yield node.value
    yield from _bound_names(tree)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_name_of_the_tuple_keyed_matrix_layout_is_left(path):
    names = set(_identifiers(ast.parse(path.read_text())))
    assert not names & set(SECOND_LAYOUT_NAMES), sorted(names & set(SECOND_LAYOUT_NAMES))


# a class keeps the packed keys of the matrix it is read from; the reader
# that decoded them into (monomial, row, col) tuples is ``oracle.degree_coords``
TUPLE_CLASS_NAMES = ("_degree_coords",)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_name_of_the_tuple_keyed_class_reader_is_left(path):
    names = set(_identifiers(ast.parse(path.read_text())))
    assert not names & set(TUPLE_CLASS_NAMES), sorted(names & set(TUPLE_CLASS_NAMES))


# a graded class is a ``PackedValue``: its own builder and slot setters are
# gone, and of the two modules that know the packed layout only ``laurent``
# guards slots
CLASS_VALUE_NAMES = (
    "_raw_class", "_set_class_n", "_set_class_degree", "_set_class_terms"
)
GUARDS = ("__setattr__", "__delattr__", "__reduce__")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_name_of_the_second_class_value_is_left(path):
    tree = ast.parse(path.read_text())
    names = set(_identifiers(tree))
    assert not names & set(CLASS_VALUE_NAMES), sorted(names & set(CLASS_VALUE_NAMES))
    if path.name == "graded.py":
        defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert not defined & set(GUARDS), sorted(defined & set(GUARDS))


def test_both_sweeps_share_one_row_step():
    # ``_reduce`` is the one fraction-free row update of rank and kernel
    tree = ast.parse((SRC / "graded.py").read_text())
    sweeps = {
        node.name: {
            call.func.id
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        }
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name in ("_echelon", "_bareiss")
    }
    assert sorted(sweeps) == ["_bareiss", "_echelon"]
    for name, called in sweeps.items():
        assert "_reduce" in called and "gcd" not in called, name


def test_hall_terms_compare_and_hash_by_identity():
    # terms are interned, so ``object``'s identity equality and hash serve;
    # no method or stored hash may come back to compare trees
    tree = ast.parse((SRC / "hall.py").read_text())
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert not defined & {"__eq__", "__ne__", "__hash__"}, sorted(defined)
    assert "_hash" not in set(_identifiers(tree))


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # -S: ``site`` may load ``typing`` itself, through a .pth file
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gassner.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(SRC.parent)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
