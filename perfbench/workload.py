"""Run one benchmark workload in this process and print its raw measurements.

This is the workload process that ``run.py`` starts once per run, with
``PYTHONHASHSEED`` fixed, ``GASSNER_JOBS`` unset and ``src`` on the path:

    python3 perfbench/workload.py WORKLOAD SEED SECONDS TRACE

It drives the public entry point ``gassner.cli.main(argv)`` in-process.
Before every command it clears every ``functools`` cache found in the
``gassner`` modules and runs ``gc.collect()``, so each command pays what a
fresh ``gassner`` invocation pays.  Passes repeat until the next one would
end after SECONDS.  With TRACE 1, untraced and traced passes alternate; the
traced ones wrap the layer functions from outside the package (see
``tracer.py``).  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import pkgutil
import resource
import sys
from pathlib import Path
from time import perf_counter

from speed import Sampler

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Command templates per workload; search commands also get ``--seed SEED``.
WORKLOADS = {
    "lattice": (
        ("rank", "--n", "5", "--weight", "5"),
        ("kernel", "--n", "4", "--weight", "6", "--format", "json"),
    ),
    "search": (("search", "--format", "json"),),
    "search-ladder": (("search", "--format", "json", "--degree-probe", "5"),),
    "certify": (("verify", "--suite", "all", "--n", "4", "--format", "json"),),
    # Small workload for the benchmark's own self-test; not in BENCHMARK.json.
    "smoke": (("rank", "--n", "4", "--weight", "4"),),
}

MIN_PASSES = 3

def command_argv(template: tuple[str, ...], seed: int) -> list[str]:
    argv = list(template)
    if argv[0] == "search":
        argv += ["--seed", str(seed)]
    return argv


def output_digest(template: tuple[str, ...], out: str) -> str:
    """sha256 of a command's stdout; for search, the echoed seed is left out.

    Search verdicts are exact, so every line but the seed echo must be the
    same for any seed; dropping only that field lets one pin check them all.
    """
    if template[0] == "search":
        first, sep, rest = out.partition("\n")
        head = json.loads(first)
        del head["config"]["seed"]
        out = json.dumps(head, sort_keys=True) + sep + rest
    return hashlib.sha256(out.encode()).hexdigest()


def import_gassner():
    """Import every ``gassner`` submodule from ``src``; return ``gassner.cli``."""
    sys.path.insert(0, str(SRC))
    import gassner

    if not Path(gassner.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"gassner was imported from {gassner.__file__}, not {SRC}")
    for info in pkgutil.iter_modules(gassner.__path__):
        if info.name != "__main__":
            importlib.import_module(f"gassner.{info.name}")
    return sys.modules["gassner.cli"]


def discover_caches() -> dict[str, object]:
    """Every functools cache in the loaded ``gassner`` modules, by metric name.

    Found by introspection (an object with ``cache_clear`` and
    ``cache_info``), at module level and in classes, so renames in the
    package need no change here.
    """
    found = {}
    for mod_name, module in sorted(sys.modules.items()):
        if mod_name != "gassner" and not mod_name.startswith("gassner."):
            continue
        owners = [module] + [
            v
            for v in vars(module).values()
            if isinstance(v, type) and v.__module__ == mod_name
        ]
        for owner in owners:
            for value in vars(owner).values():
                if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                    short = value.__module__.removeprefix("gassner.")
                    found.setdefault(f"cache.{short}.{value.__qualname__}", value)
    return found


def make_cold() -> None:
    for fn in discover_caches().values():
        fn.cache_clear()
    gc.collect()


class Progress:
    """Wraps the CLI's ``run_search`` to time decisions via its ``progress`` hook."""

    def __init__(self, cli):
        self.cli = cli
        self.original = cli.run_search
        self.marks: list[float] = []
        self.decided_by_truncation = 0

    def __enter__(self):
        run_search = self.original

        def run_search_timed(cfg, progress=None):
            def record(outcome):
                self.marks.append(perf_counter())
                if outcome.first_nonvanishing_degree is not None:
                    self.decided_by_truncation += 1
                if progress is not None:
                    progress(outcome)

            return run_search(cfg, progress=record)

        self.cli.run_search = run_search_timed
        return self

    def __exit__(self, *exc):
        self.cli.run_search = self.original


def run_command(cli, argv: list[str]) -> tuple[int | None, str, str | None]:
    buf = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # counted as a failed command, never fatal
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue(), error


def run_pass(cli, workload: str, seed: int, tracer=None) -> dict:
    """One cold pass: every command of the workload, each on cleared caches.

    Times are scaled to the reference host speed (see ``speed.py``);
    ``raw_wall_s`` is unscaled.
    """
    wall = raw_wall = 0.0
    scales = []
    gaps: list[float] = []
    first_result = None
    candidates = decided_by_truncation = 0
    commands = []
    cache_totals: dict[str, list[int]] = {}
    for template in WORKLOADS[workload]:
        argv = command_argv(template, seed)
        make_cold()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer)
            progress = stack.enter_context(Progress(cli))
            speed = stack.enter_context(Sampler())
            t0 = perf_counter()
            rc, out, error = run_command(cli, argv)
            t1 = perf_counter()
        raw_wall += t1 - t0
        scales.append(speed.factor)
        for name, fn in discover_caches().items():
            info = fn.cache_info()
            totals = cache_totals.setdefault(name, [0, 0])
            totals[0] += info.hits
            totals[1] += info.misses
        if progress.marks:
            if first_result is None:
                first_result = wall + speed.scaled(t0, progress.marks[0])
            gaps += [speed.scaled(a, b) for a, b in zip(progress.marks, progress.marks[1:])]
            candidates += len(progress.marks)
            decided_by_truncation += progress.decided_by_truncation
        else:
            if first_result is None:
                first_result = wall + speed.scaled(t0, t1)
            gaps.append(speed.scaled(t0, t1))
        wall += speed.scaled(t0, t1)
        commands.append(
            {
                "command": " ".join(template),
                "rc": rc,
                "digest": output_digest(template, out) if error is None else None,
                "error": error,
            }
        )
    record = {
        "traced": tracer is not None,
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "scales": scales,
        "first_result_s": first_result,
        "decision_gaps_s": gaps,
        "commands": commands,
    }
    if tracer is not None:
        # Layer times are raw; scale them by the pass's mean speed factor.
        factor = wall / raw_wall
        layers = {
            name: value * factor if name.endswith((".s", "_s")) else value
            for name, value in tracer.summary().items()
        }
        for name, (hits, misses) in sorted(cache_totals.items()):
            layers[f"{name}.hits"] = hits
            layers[f"{name}.misses"] = misses
        braid = [v for k, v in cache_totals.items() if k.startswith("cache.braid.")]
        lookups = sum(h + m for h, m in braid)
        layers["braid.generator.hit_ratio"] = (
            sum(h for h, _ in braid) / lookups if lookups else 0.0
        )
        layers["search.truncation_decided_ratio"] = (
            decided_by_truncation / candidates if candidates else 0.0
        )
        record["layers"] = layers
    return record


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    cli = import_gassner()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    passes = []
    last = {}
    start = perf_counter()
    min_passes = 2 if trace else MIN_PASSES
    while True:
        traced = trace and len(passes) % 2 == 1
        record = run_pass(cli, workload, seed, tracer if traced else None)
        passes.append(record)
        last[traced] = record["raw_wall_s"]
        next_traced = trace and len(passes) % 2 == 1
        estimate = last.get(next_traced, 2 * last[False])
        if len(passes) >= min_passes and perf_counter() - start + estimate > seconds:
            break
    result = {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": passes,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
