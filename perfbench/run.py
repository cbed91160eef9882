"""The gassner benchmark: cold-cache CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that holds ``src/gassner``.  The
workloads, their metrics and the layer each metric belongs to are described
in ``perfbench/README.md``.

The command builds no artefact.  It times ``import gassner.cli`` in several
fresh interpreters (``setup_s``), then starts one workload process
(``workload.py``) that repeats cold passes of the workload for ``--seconds``.
Every command's exit code and stdout digest are checked against the pins in
``reference.json``, taken from the commit that defined the benchmark.  With
``--trace 1`` the per-layer metrics are reported instead of the end-to-end
ones.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with host facts and any spans, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workload import WORKLOADS  # noqa: E402

SETUP_PROBES = 11
HASH_SEED = "0"
CHILD_TIMEOUT_S = 170

# Times ``import gassner.cli`` in a fresh interpreter, scaled to reference
# host speed like every other time (see speed.py).
IMPORT_PROBE = (
    "from time import perf_counter\n"
    "import speed\n"
    "with speed.Sampler(bracket=5) as sampler:\n"
    "    t0 = perf_counter()\n"
    "    import gassner.cli\n"
    "    t1 = perf_counter()\n"
    "print(sampler.scaled(t0, t1))\n"
)


def workload_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GASSNER_JOBS", None)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = str(SRC)
    return env


def host_facts() -> dict:
    def read(path):
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    cpu = next(
        (
            line.split(":", 1)[1].strip()
            for line in read("/proc/cpuinfo").splitlines()
            if line.startswith("model name")
        ),
        platform.processor(),
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "loadavg": read("/proc/loadavg").strip(),
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, so a result is always a measured sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(env) -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT,
            env={**env, "PYTHONPATH": f"{SRC}{os.pathsep}{HERE}"},
            capture_output=True,
            text=True,
            timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def run_workload(args, env) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "workload.py"),
            args.workload,
            str(args.seed),
            str(args.seconds),
            str(args.trace),
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check(passes: list[dict], pins: dict) -> tuple[int, int, list[str]]:
    """Count commands whose exit code or output digest differs from the pin."""
    attempted = failed = 0
    problems = []
    for index, record in enumerate(passes):
        for cmd in record["commands"]:
            attempted += 1
            pin = pins[cmd["command"]]
            if cmd["error"] or cmd["rc"] != pin["rc"] or cmd["digest"] != pin["digest"]:
                failed += 1
                problems.append(f"pass {index}: {cmd['command']}: {cmd}")
    return attempted, failed, problems


def end_to_end(result: dict, setup_s: float) -> dict:
    """Medians over the run's passes; decision percentiles are taken per pass."""
    passes = result["passes"]

    def median_of(fn):
        return statistics.median(fn(p) for p in passes)

    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (median_of(lambda p: p["wall_s"]), "s"),
        "first_result_s": (median_of(lambda p: p["first_result_s"]), "s"),
        "candidate_p50_ms": (
            1000 * median_of(lambda p: percentile(p["decision_gaps_s"], 0.5)),
            "ms",
        ),
        "candidate_p90_ms": (
            1000 * median_of(lambda p: percentile(p["decision_gaps_s"], 0.9)),
            "ms",
        ),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bits_max"):
        return "bits"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def per_layer(result: dict) -> dict:
    untraced = [p["wall_s"] for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    out = {}
    for name in traced[0]["layers"]:
        out[name] = (statistics.median_low(p["layers"][name] for p in traced), layer_unit(name))
    overhead = statistics.median(p["wall_s"] for p in traced) / statistics.median(untraced)
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "gassner" / "cli.py").is_file():
        print(f"error: no gassner sources under {SRC}", file=sys.stderr)
        return 2

    pins = json.loads((HERE / "reference.json").read_text())
    host = host_facts()
    env = workload_env()
    try:
        setup_s = measure_setup(env)
        result = run_workload(args, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = check(result["passes"], pins)
    for line in problems:
        print(f"mismatch: {line}", file=sys.stderr)
    metrics = per_layer(result) if args.trace else end_to_end(result, setup_s)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "fail_ratio": failed / attempted,
        "passes": [
            {k: v for k, v in p.items() if k != "decision_gaps_s"}
            for p in result["passes"]
        ],
        "spans": result.get("spans", []),
        **summary,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print("host " + json.dumps(host, sort_keys=True))
    print(f"fail_ratio {failed}/{attempted}; record in {out_dir / name}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
