"""Tests for ``exlab bench``: the file it writes, the ratio to the previous
file and the start-up cost it must not add to the other commands."""

import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from exlab import bench, expcli, weakseq
from exlab.core import Failure
from exlab.removal import read_grid

README = Path(__file__).resolve().parents[1] / "README.md"


def tiny(timer):
    timer("tiny.sum", sum, range(1000))
    timer("tiny.sum", sum, range(1000))
    timer.check(True, "never listed")


def failing(timer):
    timer("failing.len", len, "abc")
    timer.check(False, "failing: wrong answer")


def test_bench_file_holds_medians_environment_and_ratio(tmp_path):
    first = bench.run_bench(tmp_path / "BENCH_1.json", (tiny,), reps=3,
                            tier1=False)
    assert first["ratio_to"] is None and first["failures"] == []
    assert first["repetitions"] == 3 and first["tier1"] is None
    entry = first["entries"]["tiny.sum"]
    assert len(entry["runs_s"]) == 3
    assert sorted(entry["runs_s"])[1] == entry["median_s"]
    # one calibration run before each workload of each repetition
    assert len(first["entries"]["calibration"]["runs_s"]) == 3
    assert set(first["entries"]) == {"calibration", "tiny.sum"}
    env = first["environment"]
    assert env["rng_algorithm"] == expcli.RngStream.ALGORITHM
    assert env["cpu_count"] >= 1 and env["python"] and env["commit"]
    # the newest earlier file is the largest number below the output's own
    (tmp_path / "BENCH_3.json").write_text("{}")
    (tmp_path / "notes.json").write_text("{}")
    second = bench.run_bench(tmp_path / "BENCH_2.json", (tiny,), reps=1,
                             tier1=False)
    assert second["ratio_to"]["file"] == "BENCH_1.json"
    assert set(second["ratio_to"]["ratios"]) == {"calibration", "tiny.sum"}
    assert json.loads((tmp_path / "BENCH_2.json").read_text()) == second
    assert bench.previous_bench(tmp_path / "out.json").name == "BENCH_3.json"


def test_bench_calibrates_each_repetition_and_ratios_read_it(tmp_path):
    doc = bench.run_bench(tmp_path / "BENCH_1.json", (tiny,), reps=3,
                          tier1=False)
    cal = doc["entries"]["calibration"]
    entry = doc["entries"]["tiny.sum"]
    assert "median_cal" not in cal
    # one workload, so run i was timed right after calibration run i
    assert entry["median_cal"] == pytest.approx(statistics.median(
        s / c for s, c in zip(entry["runs_s"], cal["runs_s"])), rel=2e-3)
    prev = {"entries": {"tiny.sum": {"median_s": 1.0, "median_cal": 4.0},
                        "calibration": {"median_s": 2.0}}, "tier1": None}
    out = bench.ratios(doc, prev)
    assert out["tiny.sum"] == pytest.approx(entry["median_cal"] / 4.0,
                                            rel=1e-3)
    assert out["calibration"] == pytest.approx(cal["median_s"] / 2.0,
                                               rel=1e-3)
    # a file without calibrated medians is compared raw
    del prev["entries"]["tiny.sum"]["median_cal"]
    assert bench.ratios(doc, prev)["tiny.sum"] == pytest.approx(
        entry["median_s"], rel=1e-3)


def test_bench_refuses_a_bad_previous_file_before_running(tmp_path):
    (tmp_path / "BENCH_1.json").write_text("[1, 2]")
    with pytest.raises(ValueError, match="not an exlab bench file"):
        bench.run_bench(tmp_path / "BENCH_2.json", (failing,), tier1=False)
    (tmp_path / "BENCH_1.json").write_text("{not json")
    assert expcli.main(["bench", str(tmp_path / "BENCH_2.json")]) == 2
    assert not (tmp_path / "BENCH_2.json").exists()


def test_bench_lists_failed_checks(tmp_path):
    doc = bench.run_bench(tmp_path / "BENCH_1.json", (tiny, failing), reps=2,
                          tier1=False)
    assert doc["failures"] == ["failing: wrong answer"]
    assert len(doc["entries"]["calibration"]["runs_s"]) == 4


def test_bench_times_the_rs_construction_and_its_check_apart(tmp_path):
    doc = bench.run_bench(tmp_path / "BENCH_1.json",
                          (bench.rsgraph_construct,), reps=1, tier1=False)
    assert doc["failures"] == []
    assert {"rsgraph_construct.rs_from_behrend", "rsgraph_construct.verify_rs",
            "rsgraph_construct.digest", "rsgraph_construct.total"} \
        <= set(doc["entries"])


def test_bench_times_the_cli_mix_violate_digests(tmp_path):
    doc = bench.run_bench(tmp_path / "BENCH_1.json", (bench.setmap_violate,),
                          reps=1, tier1=False)
    assert doc["failures"] == []
    assert set(doc["entries"]) == {"calibration", "setmap_violate.digest"}


def test_bench_times_the_gate7_transpose_apart_from_the_draw(tmp_path):
    doc = bench.run_bench(tmp_path / "BENCH_1.json", (bench.gate7,), reps=1,
                          tier1=False)
    assert doc["failures"] == []
    assert {"gate7.random_graph.n2000", "gate7.bit_columns.n2000",
            "gate7.total"} <= set(doc["entries"])
    assert len(doc["entries"]["gate7.bit_columns.n2000"]["runs_s"]) == 1


def test_bench_times_the_gate7_restrictions_apart(tmp_path):
    doc = bench.run_bench(tmp_path / "BENCH_1.json", (bench.gate7_induced,),
                          reps=1, tier1=False)
    assert doc["failures"] == []
    entries = {name: e["median_s"] for name, e in doc["entries"].items()}
    assert entries["gate7_induced.total"] == pytest.approx(
        entries["gate7.induced"] + entries["gate7.incidence_graph"],
        rel=1e-3)


def test_bench_times_the_minor_path_search_inside_its_pipeline(tmp_path):
    doc = bench.run_bench(tmp_path / "BENCH_1.json", (bench.weakseq_minor,),
                          reps=1, tier1=False)
    assert doc["failures"] == []
    entries = {name: e["median_s"] for name, e in doc["entries"].items()}
    assert 0 < entries["weakseq_minor.paths_drc"] \
        < entries["weakseq_minor.minor_pipeline"]
    # the path search is part of the pipeline's time, counted once
    assert entries["weakseq_minor.total"] == pytest.approx(
        entries["weakseq_minor.random_graph"]
        + entries["weakseq_minor.minor_pipeline"], rel=1e-3)
    # the workload puts the module's own paths_drc back
    assert weakseq.paths_drc.__name__ == "paths_drc"


def test_bench_times_the_cli_mix_oracle(tmp_path):
    doc = bench.run_bench(tmp_path / "BENCH_1.json", (bench.setmap_oracle,),
                          reps=1, tier1=False)
    assert doc["failures"] == []
    assert {"setmap_oracle.eh_map", "setmap_oracle.free_set_oracle",
            "setmap_oracle.total"} <= set(doc["entries"])


def test_bench_times_the_tight_instance_apart_from_the_oracle(tmp_path):
    doc = bench.run_bench(tmp_path / "BENCH_1.json", (bench.bipfree_tight,),
                          reps=1, tier1=False)
    assert doc["failures"] == []
    entries = {name: e["median_s"] for name, e in doc["entries"].items()}
    assert entries["bipfree_tight.total"] == pytest.approx(
        entries["bipfree_tight.tight_instance"]
        + entries["bipfree_tight.zarankiewicz_oracle"], rel=1e-3)


def test_bench_times_the_removal_cover_apart_from_the_descent(tmp_path):
    doc = bench.run_bench(tmp_path / "BENCH_1.json", (bench.removal_iterate,),
                          reps=1, tier1=False)
    assert doc["failures"] == []
    entries = {name: e["median_s"] for name, e in doc["entries"].items()}
    assert entries["removal_iterate.total"] == pytest.approx(
        entries["removal_iterate.grid_cover"]
        + entries["removal_iterate.removal_iterate"]
        + entries["removal_iterate.corner_free"], rel=1e-3)
    golden = Path(__file__).with_name("golden") / "corner_free_4.grid"
    assert read_grid(golden).cells == bench.CORNER_FREE_4


def test_bench_lists_an_extraction_that_exhausts_its_retry_cap(
        tmp_path, monkeypatch):
    failure = Failure("extract_free", "retry cap exhausted", {"best": 1})
    monkeypatch.setattr(bench.bipfree, "extract_free",
                        lambda *args, **kwargs: failure)
    doc = bench.run_bench(tmp_path / "BENCH_1.json", (bench.bipfree_extract,),
                          reps=1, tier1=False)
    assert doc["failures"] == [f"bipfree extract: seed {seed}"
                               for seed in bench.EXTRACT_SEEDS]


def test_bench_times_start_up_in_a_fresh_interpreter(tmp_path):
    doc = bench.run_bench(tmp_path / "BENCH_1.json", (bench.cold_start,),
                          reps=2, tier1=False)
    assert doc["failures"] == []
    entry = doc["entries"]["cold_start"]
    assert len(entry["runs_s"]) == 2 and entry["median_cal"] > 0


def test_bench_commit_is_marked_dirty_when_tracked_files_change(
        tmp_path, monkeypatch):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=tmp_path, check=True,
                       capture_output=True)

    git("init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "first")
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path,
                         capture_output=True, text=True,
                         check=True).stdout.strip()
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    (tmp_path / "untracked.txt").write_text("ignored\n")
    assert bench._git_commit() == sha
    (tmp_path / "a.txt").write_text("two\n")
    assert bench._git_commit() == f"{sha}-dirty"


def test_bench_runs_the_readme_examples(tmp_path):
    readme = README.read_text(encoding="utf-8")
    for line in bench.README_EXAMPLES[:6]:
        assert f"exlab {line}" in readme
    spec = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    assert json.loads(spec) == bench.README_SPEC
    doc = bench.run_bench(tmp_path / "BENCH_1.json",
                          (bench.gate5, bench.readme_examples), reps=1,
                          tier1=False)
    assert doc["failures"] == []
    assert [e for e in doc["entries"] if e.startswith("exlab ")] == [
        "exlab " + line for line in bench.README_EXAMPLES]
    assert expcli.build_parser().parse_args(["bench", "B.json"]).out == \
        "B.json"


def test_bench_module_is_not_loaded_at_start_up():
    code = ("import sys, exlab.expcli; exlab.expcli.build_parser(); "
            "print('exlab.bench' in sys.modules)")
    src = str(Path(bench.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
