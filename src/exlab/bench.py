"""``exlab bench``: wall times of perfbench's job kinds and their stages,
the README command lines, the tier-1 suite and each acceptance gate,
written as one JSON file.

Each entry of ``WORKLOADS`` runs one workload.  ``JOBS`` runs jobs of
perfbench's workloads through ``expcli.run`` and times their stages inside
the run.  ``cold_start`` times perfbench's start-up code, and the README
examples run in process through ``expcli.main`` (which builds its parser
on its first call only), with file names moved into a temporary
directory.  Each of these entries is the median of ``REPS`` repetitions.
Tier-1 runs once, in a subprocess, when pytest is importable and the
checkout's ``tests/`` is present; the ``tier1`` entry is ``null``
otherwise.  Its junit XML gives one more entry per ``test_gate_*`` test of
``tests/test_acceptance.py``: the gate's time in that one run.

The file records the machine, the interpreter, the CPU count, the commit
and ``RngStream.ALGORITHM``, and gives the ratio of each time to the same
entry of the newest earlier ``BENCH_<n>.json`` beside it.  A shared
machine's speed drifts between runs and within one, so a fixed kernel
that calls no exlab code is timed before every workload.  Beside its raw
median, each entry holds ``median_cal``, the median of its runs divided
by the kernel time just before each, and the ratios compare those where
both files have them.  A failed check is listed under ``failures`` and
makes the command exit 1.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import io
import json
import os
import platform
import random
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from xml.etree import ElementTree

from . import expcli

REPS = 5
ROOT = Path(__file__).resolve().parents[2]
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")

# The README "Command line" examples in order; the last three run the spec
# file example through run, replay and report.
README_EXAMPLES = (
    "setmap --op violate --k 2 --n 6 --trials 100 --seed 7",
    "bipfree --op extract --n 40 --p 0.5 --trials 5 --out extract.json",
    "embed --op lemma --trials 10 --seed 3",
    "weakseq --op pipeline --n 2000 --p 0.5 --r 4 --seed 1",
    "rsgraph --op construct --N 3000",
    "removal --op iterate --N 15 --r 2 --trials 5",
    "run spec.json --out record.json",
    "replay record.json",
    "report record.json --format md",
)
README_SPEC = {"module": "setmap", "operation": "violate",
               "params": {"k": 2, "n": 6}, "seed": 7, "trials": 100}


class Timer:
    """Collects named wall times of one repetition and the failed checks;
    ``workdir`` holds the files a workload writes."""

    def __init__(self, failures: list, workdir: Path):
        self.times = {}
        self.failures = failures
        self.workdir = workdir

    def __call__(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.add(name, time.perf_counter() - t0)
        return out

    def add(self, name: str, seconds: float) -> None:
        self.times[name] = self.times.get(name, 0.0) + seconds

    def check(self, ok: bool, what: str) -> None:
        if not ok and what not in self.failures:
            self.failures.append(what)


@dataclass(frozen=True)
class Job:
    """A perfbench job kind run through ``expcli.run`` at seed 1.  During
    the run each ``"mod.fn"`` of ``stages``, the name ``fn`` of
    ``exlab.mod``, is wrapped in the timer and timed as ``<name>.<fn>``;
    ``<name>.total`` is the run's wall time, with the stages inside it.  No
    two stages may share ``fn``.  The entry fails unless the SHA-256 of
    the run's trials is ``pin`` and each stage was called."""

    name: str
    module: str
    operation: str
    params: dict
    trials: int
    stages: tuple
    pin: str

    def __post_init__(self):
        names = [stage.split(".")[1] for stage in self.stages]
        if len(set(names)) < len(names):
            raise ValueError(f"{self.name}: two stages share a function name")

    @property
    def __name__(self) -> str:
        return self.name

    def __call__(self, timer: Timer) -> None:
        spec = expcli.ExperimentSpec(self.module, self.operation, self.params,
                                     seed=1, trials=self.trials)
        wrapped = {}  # entry: (module, name, original)
        for stage in self.stages:
            mod, fn = stage.split(".")
            module = importlib.import_module(f"{__package__}.{mod}")
            wrapped[f"{self.name}.{fn}"] = module, fn, getattr(module, fn)
        try:
            for entry, (module, fn, original) in wrapped.items():
                setattr(module, fn, functools.partial(timer, entry, original))
            record = timer(f"{self.name}.total", expcli.run, spec)
        finally:
            for module, fn, original in wrapped.values():
                setattr(module, fn, original)
        timer.check(expcli.digest(record.trials) == self.pin,
                    f"{self.name}: trials differ from the pin")
        for entry in wrapped:
            timer.check(entry in timer.times, f"{entry} never called")


# perfbench's job sizes; weakseq_t12 asks weakseq-dense's G(2000, 1/2) for
# t = 12 (regime2_order gives 1) and times the draw's core.bit_columns;
# corner_free runs the golden 4 x 4 grid, one deletion step
JOBS = (
    Job("weakseq_t12", "weakseq", "pipeline",
        {"n": 2000, "p": 0.5, "r": 4, "t": 12}, 3,
        ("expcli.random_graph", "core.bit_columns",
         "weakseq.weak_sequence_pipeline",
         "weakseq.random_equitable_bipartition", "weakseq._incidence_graph",
         "weakseq.verify_sequence"),
        "a1de33640866419c1778a137c6e1ff24b3dfc59561e745737678ba4d9b3bef18"),
    Job("weakseq_minor", "weakseq", "minor",
        {"n": 600, "p": 0.7, "r": 2, "t": 4}, 3,
        ("expcli.random_graph", "weakseq.minor_pipeline", "weakseq.paths_drc"),
        "ef152fb91d4d10a3e8993709820a9d5f64086ea2f4ad285d551221b3b092aaee"),
    Job("bipfree_extract", "bipfree", "extract", {"n": 400, "p": 0.05}, 3,
        ("expcli.random_graph", "bipfree._pattern_free",
         "bipfree._graph_round", "bipfree.verify_free_subgraph"),
        "a54489647b242724e1536a351ed077373e9d89f7e70b4269fcd84cd47b4303c4"),
    Job("bipfree_tight", "bipfree", "tight", {"m": 64}, 1,
        ("bipfree.tight_instance", "bipfree.zarankiewicz_oracle"),
        "c81f6a1adac6842c0168e154b685417551d46082c7e0bff7ea2ea007a4c34b39"),
    Job("rsgraph_construct", "rsgraph", "construct", {"N": 1000}, 1,
        ("rsgraph.rs_from_behrend", "rsgraph.verify_rs", "expcli.digest"),
        "9050ddb3a463d3342b2f069f906ed47fc2b65f259bdd768f3d9e48fe89a0d090"),
    Job("setmap_violate", "setmap", "violate", {"k": 2, "n": 6}, 20,
        ("expcli.digest",),
        "e879ec5cc5f2b2e0ad9a0bf4a0aa0859d9f8d9272a38f4ad1fbdb63991b6d459"),
    Job("setmap_oracle", "setmap", "oracle", {"k": 2, "n": 4}, 1,
        ("setmap.eh_map", "setmap.free_set_oracle"),
        "ae3f83dce64a13f3a77176f63d90c1f6553c251b58e21e98d2d02fb3766d208f"),
    Job("removal_iterate", "removal", "iterate", {"N": 15, "r": 2}, 3,
        ("removal.grid_cover", "removal.removal_iterate"),
        "ceeaaca26846da7194c2d6aa3c3733be5fe717c53b273f10def057eefe0b5fdf"),
    Job("corner_free", "removal", "iterate",
        {"grid_file": str(ROOT / "tests/golden/corner_free_4.grid")}, 1,
        ("removal.removal_iterate",),
        "1e86ffa7eaf7f93ac0308d300acffa94d1b4e67c3e91b9a49581a152d2958649"),
    Job("bipfree_kcheck", "bipfree", "kcheck",
        {"k": 3, "r": 2, "n": 2, "p": 0.5}, 1,
        ("bipfree.kpartite_count_check",),
        "a1c96f673390df1de244bcbdd0fbaf26cc4b02a1c48061dde00f4eb9245d2e9b"),
    Job("embed_lemma", "embed", "lemma",
        {"N": 128, "k": 3, "delta": "9/1000", "d": 3}, 5,
        ("lll_embed.random_dense_dch", "lll_embed.resample_embed"),
        "60fd9eeb43237e3eb086cf0727df05846e460c1da2a595b12dcde6799cb73efd"),
    Job("embed_pipeline", "embed", "pipeline", {"N": 512}, 1,
        ("expcli.random_coloring", "lll_embed.bip_ramsey_pipeline"),
        "b0746e0e8513ad1cc26cffd03f72f87ebf01e2faa8ce5393be01c9e187217c69"),
)


# perfbench's setup_s code: what every exlab command pays before its op runs
COLD_START = """
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import exlab.expcli
from exlab import weakseq
exlab.expcli.build_parser()
weakseq.load_preset("desk")
print(time.perf_counter() - t0)
"""


def cold_start(timer: Timer) -> None:
    """Import ``exlab.expcli``, build the parser and load the desk preset in
    a fresh ``python -I``, timed inside it.  An untimed interpreter runs
    first to write the bytecode caches: ``-I`` writes them even where
    PYTHONDONTWRITEBYTECODE is set."""
    code = COLD_START.format(src=str(Path(__file__).resolve().parents[1]))
    for _ in range(2):
        out = subprocess.run([sys.executable, "-I", "-c", code],
                             capture_output=True, text=True, check=True)
    timer.add("cold_start", float(out.stdout))


def readme_examples(timer: Timer) -> None:
    workdir = timer.workdir
    (workdir / "spec.json").write_text(json.dumps(README_SPEC),
                                       encoding="utf-8")
    for line in README_EXAMPLES:
        argv = [str(workdir / a) if a.endswith(".json") else a
                for a in shlex.split(line)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = timer("exlab " + line, expcli.main, argv)
        timer.check(code == 0, f"exlab {line}: exit {code}")


WORKLOADS = (*JOBS, cold_start, readme_examples)


def calibration_kernel() -> int:
    """Fixed work that calls no exlab code: Bernoulli draws into
    big-integer rows, then popcounts of row intersections."""
    rng = random.Random(20150702)
    rows = [0] * 192
    for u in range(192):
        for v in range(u + 1, 192):
            if rng.random() < 0.5:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return sum((rows[u] & rows[v]).bit_count()
               for u in range(192) for v in range(u))


def time_workloads(workloads, reps: int, failures: list) -> dict:
    """Per entry, the median and the runs of ``reps`` repetitions, and
    ``median_cal``: the median of each run divided by the calibration
    timed just before it, which cancels the machine's drift within a run."""
    runs, calibrated = {}, {}
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # weakseq_t12 and embed_pipeline run outside their theorem regimes
        warnings.simplefilter("ignore")
        for _ in range(reps):
            for workload in workloads:
                t0 = time.perf_counter()
                calibration_kernel()
                cal = time.perf_counter() - t0
                runs.setdefault("calibration", []).append(cal)
                timer = Timer(failures, Path(tmp))
                workload(timer)
                times = dict(timer.times)
                if len(times) > 1:  # a job times its own total
                    times.setdefault(f"{workload.__name__}.total",
                                     sum(times.values()))
                for name, s in times.items():
                    runs.setdefault(name, []).append(s)
                    calibrated.setdefault(name, []).append(s / cal)
    entries = {}
    for name, r in runs.items():
        entries[name] = {"median_s": _round(statistics.median(r)),
                         "runs_s": [_round(s) for s in r]}
        if name in calibrated:
            entries[name]["median_cal"] = _round(
                statistics.median(calibrated[name]))
    return entries


def time_tier1() -> tuple[dict | None, dict]:
    """The tier-1 run's wall time, exit code and summary line, and its
    ``gate_times``; ``(None, {})`` without pytest or ``tests/``."""
    if importlib.util.find_spec("pytest") is None \
            or not (ROOT / "tests").is_dir():
        return None, {}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    with tempfile.TemporaryDirectory() as tmp:
        junit = Path(tmp) / "tier1.xml"
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *TIER1, f"--junitxml={junit}"],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, check=False)
        seconds = time.perf_counter() - t0
        gates = gate_times(junit) if junit.exists() else {}
    tail = proc.stdout.strip().splitlines()
    return {"seconds": _round(seconds), "exit_code": proc.returncode,
            "summary": tail[-1] if tail else ""}, gates


def gate_times(junit: Path) -> dict:
    """One entry per ``test_gate_*`` case of a pytest junit XML file, named
    as the test, with the case's time as its one run."""
    entries = {}
    for case in ElementTree.parse(junit).iter("testcase"):
        name = case.get("name", "")
        if name.startswith("test_gate_"):
            seconds = _round(float(case.get("time", "0")))
            entries[name] = {"median_s": seconds, "runs_s": [seconds]}
    return entries


def environment() -> dict:
    return {"machine": platform.machine(), "cpu_model": _cpu_model(),
            "platform": platform.platform(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "optimize": sys.flags.optimize, "commit": _git_commit(),
            "rng_algorithm": expcli.RngStream.ALGORITHM}


def previous_bench(out: Path) -> Path | None:
    """The ``BENCH_<n>.json`` beside ``out`` with the largest n below
    ``out``'s own number (any n when ``out`` carries no number)."""
    own = _bench_number(out)
    earlier = [(n, p) for p in out.parent.glob("BENCH_*.json")
               if (n := _bench_number(p)) is not None and p.name != out.name
               and (own is None or n < own)]
    return max(earlier)[1] if earlier else None


def ratios(doc: dict, prev: dict) -> dict:
    """This run's times divided by ``prev``'s, entry by entry: the
    calibrated medians where both files hold them, else the raw ones."""
    before = prev.get("entries", {})
    out = {}
    for name, e in doc["entries"].items():
        old = before.get(name, {})
        key = "median_cal" if e.get("median_cal") and old.get("median_cal") \
            else "median_s"
        if old.get(key):
            out[name] = _round(e[key] / old[key])
    if doc["tier1"] and (prev.get("tier1") or {}).get("seconds"):
        out["tier1"] = _round(doc["tier1"]["seconds"]
                              / prev["tier1"]["seconds"])
    return out


def check_previous(doc, path: Path) -> None:
    """ValueError unless ``doc`` has the shape that ``ratios`` reads: an
    object of objects under ``entries``, an object or null under ``tier1``,
    and numbers under their ``median_s``, ``median_cal`` and ``seconds``."""
    doc = doc if isinstance(doc, dict) else {"entries": None}
    entries, tier1 = doc.get("entries", {}), doc.get("tier1")
    rows = [*entries.values(), {} if tier1 is None else tier1] \
        if isinstance(entries, dict) else [None]
    if not all(isinstance(row, dict) and all(
            type(row.get(k, 0)) in (int, float)
            for k in ("median_s", "median_cal", "seconds")) for row in rows):
        raise ValueError(f"{path} is not an exlab bench file")


def run_bench(out: Path, workloads=WORKLOADS, reps: int = REPS,
              tier1: bool = True) -> dict:
    t0 = time.perf_counter()
    expcli.destination_guard(out, "the bench file")
    prev = previous_bench(out)
    if prev is not None:  # read first, so a bad file fails before the run
        prev_doc = json.loads(prev.read_text(encoding="utf-8"))
        check_previous(prev_doc, prev)
    failures = []
    entries = time_workloads(workloads, reps, failures)
    summary, gates = time_tier1() if tier1 else (None, {})
    doc = {"environment": environment(), "repetitions": reps,
           "entries": {**entries, **gates}, "tier1": summary}
    if summary is not None and summary["exit_code"] != 0:
        failures.append(f"tier-1: {summary['summary']}")
    doc["ratio_to"] = None if prev is None else {
        "file": prev.name, "ratios": ratios(doc, prev_doc)}
    doc["failures"] = failures
    doc["total_s"] = _round(time.perf_counter() - t0)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return doc


def main(out) -> int:
    doc = run_bench(Path(out))
    for name, e in doc["entries"].items():
        print(f"{e['median_s']:10.4f} s  {name}")
    if doc["tier1"] is not None:
        print(f"{doc['tier1']['seconds']:10.2f} s  tier-1: "
              f"{doc['tier1']['summary']}")
    print(f"{doc['total_s']:10.2f} s  total; written to {out}")
    for what in doc["failures"]:
        print(f"failed: {what}", file=sys.stderr)
    return 1 if doc["failures"] else 0


def _round(x: float) -> float:
    return float(f"{x:.4g}")


def _bench_number(path: Path) -> int | None:
    m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    return int(m.group(1)) if m else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def _git_commit() -> str:
    """HEAD's sha, with "-dirty" appended when tracked files differ from
    HEAD, so numbers taken before a commit do not name its parent."""
    try:
        sha = _git("rev-parse", "HEAD")
        dirty = _git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{sha}-dirty" if dirty else sha
