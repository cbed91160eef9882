"""The names and layers the benchmark reads from the package still hold.

``BENCHMARK.json`` lists per-layer cache metrics by the qualified name of
an ``lru_cache`` function, and ``perfbench/tracer.py`` patches its
``TARGETS`` by module and attribute name.  A rename or a deleted cache in
``src`` silently drops those metrics, so both files are read here (and
never edited) and every name is resolved against the package.  The
benchmark's self-test also requires that its smoke workload reaches the
series, matrix, class and elimination layers; that self-test runs outside
the test paths, so the same counts are checked here in-process.
"""

import ast
import importlib
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _literal(relpath: str, name: str):
    """The literal assigned to ``name`` at the top of a file, read without importing it."""
    tree = ast.parse((ROOT / relpath).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{relpath} defines no {name}")


def _tracer_targets():
    return _literal("perfbench/tracer.py", "TARGETS")


def test_cache_metrics_name_lru_caches():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer"] if m["name"].startswith("cache.")]
    assert names
    for name in names:
        _, module, *qualname, counter = name.split(".")
        assert counter in ("hits", "misses"), name
        owner = importlib.import_module(f"gassner.{module}")
        for part in qualname:
            owner = getattr(owner, part, None)
            assert owner is not None, f"{name}: gassner.{module} has no {part}"
        assert hasattr(owner, "cache_info") and hasattr(owner, "cache_clear"), (
            f"{name}: {'.'.join(qualname)} is not an lru_cache"
        )


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    for metric, module, attr in targets:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name, None)
            assert isinstance(cls, type), f"{metric}: {module} has no class {cls_name}"
            # the tracer reads cls.__dict__[method], so inheritance does not count
            assert method in cls.__dict__, f"{metric}: {attr} is not defined on {cls_name}"
        else:
            assert callable(getattr(owner, attr, None)), f"{metric}: {module} has no {attr}"


def _gassner_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "gassner" or name.startswith("gassner.")
    ]


def test_smoke_workload_reaches_the_counted_layers(monkeypatch, capsys):
    # perfbench/test_perfbench.py requires these five counts to be positive
    # on the smoke workload, run on cold caches as the benchmark runs it
    import gassner.cli
    from gassner import graded
    from gassner.laurent import SquareMatrix, TruncatedSeries

    counts = Counter()

    def counting(metric, fn):
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    for cls in (TruncatedSeries, SquareMatrix):
        metric = f"{cls.__name__}.__mul__"
        monkeypatch.setattr(cls, "__mul__", counting(metric, cls.__mul__))
    for name, metric in (
        ("phi", "phi"),
        ("integer_rank", "elim"),
        ("integer_kernel", "elim"),
    ):
        original = getattr(graded, name)
        wrapped = counting(metric, original)
        # patched wherever the package binds the name, as the tracer does
        for module in _gassner_modules():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapped)

    smoke = _literal("perfbench/workload.py", "WORKLOADS")["smoke"]
    assert smoke
    for template in smoke:
        for module in _gassner_modules():
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
        assert gassner.cli.main(list(template)) == 0, template
        counts["misses"] += graded._commutator_matrix.cache_info().misses
    capsys.readouterr()
    for metric in (
        "TruncatedSeries.__mul__",
        "SquareMatrix.__mul__",
        "phi",
        "elim",
        "misses",
    ):
        assert counts[metric] > 0, metric
