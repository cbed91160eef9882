"""Self-test of the benchmark on one small command, ``rank --n 4 --weight 4``.

    python3 -m pytest perfbench/test_perfbench.py

It goes through the same untraced and traced paths as the real workloads.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(root / "perfbench" / "run.py"),
            "--workload",
            "smoke",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            str(trace),
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=120,
    )


def result_and_record(trace: int) -> tuple[dict, dict]:
    proc = run(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((HERE / "results" / f"smoke-seed3-trace{trace}.json").read_text())
    return result, record


def test_traced_and_untraced_agree_and_counts_repeat():
    pins = json.loads((HERE / "reference.json").read_text())
    expected = pins["rank --n 4 --weight 4"]

    plain, _ = result_and_record(0)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 3
    assert set(plain["metrics"]) == {
        "setup_s",
        "wall_s",
        "first_result_s",
        "candidate_p50_ms",
        "candidate_p90_ms",
        "peak_rss_mb",
    }

    counts = []
    for _ in range(2):
        traced, record = result_and_record(1)
        assert traced["correct"] and traced["failed"] == 0
        kinds = {p["traced"] for p in record["passes"]}
        assert kinds == {False, True}
        digests = {c["digest"] for p in record["passes"] for c in p["commands"]}
        assert digests == {expected["digest"]}
        metrics = traced["metrics"]
        assert metrics["trace.overhead_ratio"]["value"] > 0
        counts.append(
            {
                k: v["value"]
                for k, v in metrics.items()
                if k.endswith(".calls") or k.endswith(".misses")
            }
        )
    assert counts[0] == counts[1]
    for name in (
        "laurent.series_mul.calls",
        "laurent.matmul.calls",
        "graded.phi.calls",
        "graded.elim.calls",
        "cache.graded._commutator_matrix.misses",
    ):
        assert counts[0][name] > 0, name


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
