"""Layer tracing from outside the ``gassner`` package.

Entering a ``Tracer`` replaces each traced function at every module of the
package that binds its name (``search`` imports ``kernel_report`` and
``evaluate_exact`` by name, for example), and each traced ring or matrix
operator on its class; leaving it restores the originals.  ``src`` is never
edited.

Every wrapped call is timed.  A call's self time is its duration minus the
durations of the wrapped calls made inside it.  Calls of the layers above
the ring (braid, hall, graded, search) are also kept as spans
``(name, start, end, parent)`` in memory, with ``parent`` the index of the
enclosing span or -1; the ring operators run millions of times per run, so
they are only counted and timed, not kept one by one.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (metric, module, attribute); an attribute "Class.method" is patched on the class.
TARGETS = (
    ("laurent.series_mul", "gassner.laurent", "TruncatedSeries.__mul__"),
    ("laurent.series_add", "gassner.laurent", "TruncatedSeries.__add__"),
    ("laurent.matmul", "gassner.laurent", "SquareMatrix.__mul__"),
    ("laurent.series_inverse", "gassner.laurent", "series_matrix_inverse"),
    ("laurent.poly_mul", "gassner.laurent", "LaurentPoly.__mul__"),
    ("braid.evaluate_exact", "gassner.braid", "evaluate_exact"),
    ("braid.evaluate_truncated", "gassner.braid", "evaluate_truncated"),
    ("hall.basic_commutators", "gassner.hall", "basic_commutators"),
    ("graded.phi", "gassner.graded", "phi"),
    ("graded.assemble", "gassner.graded", "assemble_phi_matrix"),
    ("graded.elim", "gassner.graded", "integer_rank"),
    ("graded.elim", "gassner.graded", "integer_kernel"),
    ("graded.kernel_report", "gassner.graded", "kernel_report"),
    ("graded.verify_tables", "gassner.graded", "verify_tables"),
    ("graded.sfold_property_check", "gassner.graded", "sfold_property_check"),
    ("search.run_search", "gassner.search", "run_search"),
    ("search.breakdown", "gassner.search", "breakdown_regression"),
)

UNTRACKED_SPAN_LAYERS = ("laurent",)


def _coeff_bits(poly) -> int:
    return max((abs(c).bit_length() for c in poly.terms.values()), default=0)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []  # frames: [child seconds, span index]
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.coeff_bits_max = 0
        self._first_span = len(self.spans)

    # -- patching -------------------------------------------------------

    def __enter__(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "gassner" or name.startswith("gassner.")
        }
        for metric, mod_name, attr in TARGETS:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self._wrap(metric, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(metric, original)
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, metric: str, fn):
        stack, depth, spans = self._stack, self._depth, self.spans
        keep_span = metric.split(".")[0] not in UNTRACKED_SPAN_LAYERS
        observe_bits = metric == "laurent.poly_mul"
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = -1
            if keep_span:
                span = len(spans)
                parent_span = next(
                    (f[1] for f in reversed(stack) if f[1] >= 0), -1
                )
                spans.append((metric, 0.0, 0.0, parent_span))
            frame = [0.0, span]
            stack.append(frame)
            depth[metric] = depth.get(metric, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[metric] -= 1
                duration = end - start
                tracer.calls[metric] = tracer.calls.get(metric, 0) + 1
                if not depth[metric]:
                    tracer.inclusive[metric] = tracer.inclusive.get(metric, 0.0) + duration
                tracer.self_time[metric] = (
                    tracer.self_time.get(metric, 0.0) + duration - frame[0]
                )
                if parent is not None:
                    parent[0] += duration
                if keep_span:
                    spans[span] = (metric, start, end, spans[span][3])
            if observe_bits:
                tracer.coeff_bits_max = max(tracer.coeff_bits_max, _coeff_bits(result))
            return result

        return traced

    # -- results --------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics since the last summary; resets the counters."""

        def get(table, metric):
            return table.get(metric, 0)

        out = {}
        for metric in (
            "laurent.series_mul",
            "laurent.series_add",
            "laurent.matmul",
            "laurent.series_inverse",
            "laurent.poly_mul",
        ):
            out[f"{metric}.calls"] = get(self.calls, metric)
            out[f"{metric}.self_s"] = float(get(self.self_time, metric))
        out["laurent.coeff_bits_max"] = self.coeff_bits_max
        for metric in ("braid.evaluate_exact", "braid.evaluate_truncated", "graded.phi", "graded.elim"):
            out[f"{metric}.calls"] = get(self.calls, metric)
            out[f"{metric}.s"] = float(get(self.inclusive, metric))
        for metric in ("hall.basic_commutators", "graded.assemble", "search.breakdown"):
            out[f"{metric}.s"] = float(get(self.inclusive, metric))
        out["graded.self_s"] = sum(
            t
            for m, t in self.self_time.items()
            if m.startswith("graded.") and m != "graded.elim"
        )
        out["search.self_s"] = sum(
            t for m, t in self.self_time.items() if m.startswith("search.")
        )
        new_spans = self.spans[self._first_span :]
        out["search.exact_evals"] = sum(
            1
            for name, _, _, parent in new_spans
            if name == "braid.evaluate_exact" and self._has_search_ancestor(parent)
        )
        self.reset()
        return out

    def _has_search_ancestor(self, index: int) -> bool:
        while index >= 0:
            name, _, _, index = self.spans[index]
            if name.startswith("search."):
                return True
        return False
