"""The benchmark harness in perfbench/ still runs against the package."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_harness_smoke():
    # perfbench/run.py reads engine and node internals (Engine._seq, _heap
    # and packet_log, Node.relay_gens and decoders) and wraps every traced
    # function by name, so a change to any of them must fail here
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "coded_lossy",
         "--seed", "1", "--seconds", "1.5", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= result["metrics"].keys()


@pytest.mark.parametrize("workload", ["coded_lossy", "relay_long"])
def test_benchmark_end_to_end_smoke(workload):
    # --trace 0 is the mode the benchmark's end-to-end metrics come from: one
    # untraced simulation of each judged workload here, reporting exactly
    # the declared metrics
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1.5", "--trace", "0"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] == 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"] for m in declared} == result["metrics"].keys()


@pytest.mark.parametrize("workload", ["coded_lossy", "relay_long"])
def test_traced_counts_match_the_profiler(workload):
    # the tracer counts calls by wrapping named methods; a refactor that moves
    # work out of a traced method would skew its counts, and --check-counts
    # holds every traced count against cProfile's, on the coded multicast
    # path and on the coding-off unicast one
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--check-counts"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert out.returncode == 0, out.stdout + out.stderr
