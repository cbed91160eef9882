"""The names the benchmark reads from the package still resolve.

``BENCHMARK.json`` lists per-layer cache metrics by the qualified name of
an ``lru_cache`` function, and ``perfbench/tracer.py`` patches its
``TARGETS`` by module and attribute name.  A rename or a deleted cache in
``src`` silently drops those metrics, so both files are read here (and
never edited) and every name is resolved against the package.
"""

import ast
import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tracer_targets():
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


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
