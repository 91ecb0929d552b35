"""Smoke test of the benchmark itself, at tiny sizes, in well under a minute.

    python3 perfbench/test_smoke.py        # or: python3 -m pytest perfbench

Each workload runs once untraced and once traced with ``--tiny``.  The test
asserts that every metric BENCHMARK.json names appears with its unit, that
all checks pass (including the pinned digests of the tiny rounds), that the
from-imported ``core.random_graph`` was patched, and that the layer self
times recomputed from the written spans match the report and sum to the
time the spans cover.  It also checks that the benchmark refuses to run
without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd=ROOT) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def _result(workload: str, trace: int) -> dict:
    code, stdout = _run(workload, trace)
    assert code == 0, stdout
    assert "pin: match" in stdout, stdout
    last = json.loads(stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    return last


def _assert_metrics(last: dict, listed: list) -> None:
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in last["metrics"].items()}
    assert got == want
    for name, m in last["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_end_to_end_metrics():
    for workload in WORKLOADS:
        last = _result(workload, 0)
        _assert_metrics(last, SPEC["end_to_end"])
        for name, m in last["metrics"].items():
            assert m["value"] > 0, (workload, name)


def test_layer_metrics_and_self_times():
    for workload in WORKLOADS:
        last = _result(workload, 1)
        _assert_metrics(last, SPEC["per_layer"])
        metrics = {k: m["value"] for k, m in last["metrics"].items()}
        if workload == "weakseq-dense":
            assert metrics["core.random_graph.s"] > 0
            assert metrics["core.rng_calls"] > 0
            assert metrics["weakseq.cover_tries"] > 0

        tag = f"{workload}-tiny-seed1-trace1.json"
        result = json.loads((OUT / "results" / tag).read_text())
        spans = json.loads((OUT / "spans" / tag).read_text())
        child = defaultdict(float)
        for _, start, end, parent, _ in spans["spans"]:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        covered = 0.0
        for i, (fid, start, end, parent, _) in enumerate(spans["spans"]):
            self_s[spans["names"][fid].split(".")[0]] += end - start - child[i]
            if parent < 0:
                covered += end - start
        for layer, value in self_s.items():
            assert abs(metrics[f"{layer}.self_s"] - value) < 1e-9
        total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        wall = result["trace_summary"]["wall_s"]
        assert abs(total - covered) < 1e-6 * max(covered, 1.0)
        assert covered <= wall
        assert abs(metrics["trace.coverage"] - covered / wall) < 1e-9
        assert metrics["trace.coverage"] > 0.8


def test_refuses_without_sources():
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, stdout = _run(WORKLOADS[0], 0, cwd=tmp)
    assert code != 0
    assert '"correct"' not in stdout


if __name__ == "__main__":
    for test in (test_end_to_end_metrics, test_layer_metrics_and_self_times,
                 test_refuses_without_sources):
        test()
        print(f"ok {test.__name__}")
