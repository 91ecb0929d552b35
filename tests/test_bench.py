"""Tests for ``exlab bench``: the file it writes, the ratio to the previous
file, the pinned job table and the start-up cost it must not add."""

import json
import os
import re
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import exlab
from exlab import bench, expcli
from exlab.core import GuardError
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # as time_workloads
@pytest.mark.parametrize("job", bench.JOBS, ids=lambda job: job.name)
def test_bench_job_matches_its_pin_and_times_each_stage_inside_the_run(
        tmp_path, job):
    timer = bench.Timer([], tmp_path)
    job(timer)
    assert timer.failures == []
    # the stages are inner: the total is the run's wall time alone
    total = timer.times.pop(f"{job.name}.total")
    assert timer.inner == set(timer.times) == {
        f"{job.name}.{stage.split('.')[1]}" for stage in job.stages}
    assert all(0 < s <= total for s in timer.times.values())


def test_bench_lists_a_job_whose_trials_differ_from_its_pin(
        tmp_path, monkeypatch):
    key = ("bipfree", "tight")
    opdef = expcli.OPS[key]

    def runner(params, host, rng):
        ok, outcome, witness, stats = opdef.runner(params, host, rng)
        return ok, outcome, witness, {**stats, "nodes": stats["nodes"] + 1}

    monkeypatch.setitem(expcli.OPS, key, replace(opdef, runner=runner))
    jobs = {job.name: job for job in bench.JOBS}
    doc = bench.run_bench(tmp_path / "BENCH_1.json",
                          (jobs["bipfree_tight"], jobs["corner_free"]),
                          reps=1, tier1=False)
    assert doc["failures"] == ["bipfree_tight: trials differ from the pin"]
    # a listed stage that the run never calls fails its entry too
    job = replace(jobs["corner_free"], stages=("removal.diamond_find",))
    doc = bench.run_bench(tmp_path / "BENCH_2.json", (job,), 1, tier1=False)
    assert doc["failures"] == ["corner_free.diamond_find never called"]


def test_bench_job_restores_every_wrapped_name_when_its_run_raises(
        tmp_path, monkeypatch):
    monkeypatch.setattr(expcli, "run", lambda spec: 1 / 0)
    for job in bench.JOBS:
        names = [stage.split(".") for stage in job.stages]
        before = [getattr(getattr(exlab, mod), fn) for mod, fn in names]
        with pytest.raises(ZeroDivisionError):
            job(bench.Timer([], tmp_path))
        assert before == [getattr(getattr(exlab, mod), fn)
                          for mod, fn in names]


def test_bench_corner_free_grid_is_the_golden_grid(tmp_path):
    (tmp_path / "g.grid").write_text(bench.CORNER_FREE_4, encoding="utf-8")
    assert read_grid(tmp_path / "g.grid") == read_grid(
        Path(__file__).with_name("golden") / "corner_free_4.grid")


def test_bench_refuses_an_unwritable_file_before_any_workload(
        tmp_path, capsys):
    out = tmp_path / "missing" / "BENCH_1.json"
    with pytest.raises(GuardError, match="cannot write the bench file"):
        bench.run_bench(out, (pytest.fail,), tier1=False)  # never reached
    assert expcli.main(["bench", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot write the bench file to {out}\n")


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


def test_readme_bench_paragraph_names_every_workload():
    text = README.read_text(encoding="utf-8").split("`exlab bench ", 1)[1]
    text = text.split("The machine's speed drifts", 1)[0]
    assert [w.__name__ for w in bench.WORKLOADS
            if f"`{w.__name__}`" not in text] == []


def test_bench_module_is_not_loaded_at_start_up():
    code = ("import sys, exlab.expcli; exlab.expcli.build_parser(); "
            "print('exlab.bench' in sys.modules)")
    src = str(Path(bench.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
