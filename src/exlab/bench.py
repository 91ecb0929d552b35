"""``exlab bench``: wall times of the acceptance-gate workloads, the README
command lines and the tier-1 suite, written as one JSON file.

Each entry of ``WORKLOADS`` runs one workload.  The gate workloads rebuild
gates 5, 6 and 7 of ``tests/test_acceptance.py`` at gate size with the
gates' seeds; their docstrings say what they time.  ``JOBS`` runs jobs of
perfbench's workloads through ``expcli.run`` and times their stages inside
the run.  ``cold_start`` times perfbench's start-up code, and the README
examples run in process through ``expcli.main`` (which builds its parser
on its first call only), with file names moved into a temporary
directory.  Each entry is the median of ``REPS`` repetitions.  Tier-1
runs once, in a subprocess, when pytest is importable and the checkout's
``tests/`` is present; the entry is ``null`` otherwise.

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
from fractions import Fraction
from pathlib import Path

from . import bipfree, expcli, lll_embed, weakseq
from .core import (BipartiteGraph, Failure, RngStream, bit_columns,
                   complete_graph, hypercube, mask_of, random_coloring,
                   random_equitable_bipartition, random_graph)

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
        self.inner = set()  # entries timed inside another, left out of totals
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


def gate5(timer: Timer) -> None:
    """100 random sub-hypergraphs of the k-partite instances, k = 2 and 3."""
    rng = RngStream(55)
    for k in (2, 3):
        inst = bipfree.kpartite_instance(k, 2, 2)
        full = inst.hypergraph
        edges = sorted(tuple(sorted(e)) for e in full.edges)
        for i in range(50):
            sub = rng.derive("sub", k, i)
            keep = sub.random()
            H = type(full)(full.n, full.k,
                           [e for e in edges if sub.random() < keep])
            chk = timer("gate5.kpartite_count_check",
                        bipfree.kpartite_count_check, H, inst.parts, 2)
            timer.check(chk.passed, f"gate 5: k={k} sub-hypergraph {i}")


def gate6(timer: Timer) -> None:
    """50 resampled cube embeddings and 20 two-colorings of K_512."""
    target = lll_embed.neighborhood_hypergraph(hypercube(3))
    for seed in range(50):
        rng = RngStream(6000 + seed)
        host = timer("gate6.random_dense_dch", lll_embed.random_dense_dch,
                     128, 3, Fraction(9, 1000), rng.derive("host"))
        res = timer("gate6.resample_embed", lll_embed.resample_embed,
                    target, host, rng.derive("embed"))
        timer.check(not isinstance(res, Failure), f"gate 6: embed {seed}")
    q3 = hypercube(3)
    for seed in range(20):
        rng = RngStream(6100 + seed)
        col = timer("gate6.random_coloring", random_coloring,
                    complete_graph(512), 2, rng.derive("col"))
        res = timer("gate6.bip_ramsey_pipeline", lll_embed.bip_ramsey_pipeline,
                    col, q3, rng.derive("pipe"))
        timer.check(not isinstance(res, Failure), f"gate 6: pipeline {seed}")


def gate7(timer: Timer) -> None:
    """Weak sequences on 10 G(2000, 1/2) hosts, each host's upper-row
    ``bit_columns`` transpose timed alone, and minors on 10 G(240, 0.7)."""
    for seed in range(10):
        rng = RngStream(7000 + seed)
        g = timer("gate7.random_graph.n2000", random_graph, 2000, 0.5,
                  rng.derive("gen"))
        upper = [row >> u + 1 << u + 1 for u, row in enumerate(g.adj)]
        lower = timer("gate7.bit_columns.n2000", bit_columns, upper, 2000)
        # g's own lower halves came from bit_columns too: check the shape
        timer.check(sum(map(int.bit_count, lower))
                    == sum(map(int.bit_count, upper))
                    and not any(low >> v for v, low in enumerate(lower)),
                    f"gate 7: bit columns {seed}")
        t = weakseq.regime2_order(2000, g.density(), 4)
        w = timer("gate7.weak_sequence_pipeline",
                  weakseq.weak_sequence_pipeline, g, 4, t, rng.derive("run"))
        if not isinstance(w, Failure):
            ok = timer("gate7.verify_sequence", weakseq.verify_sequence, g, w)
            timer.check(ok == (True, None), f"gate 7: sequence {seed}")
    desk = weakseq.load_preset("desk")
    for seed in range(10):
        rng = RngStream(7100 + seed)
        g = timer("gate7.random_graph.n240", random_graph, 240, 0.7,
                  rng.derive("gen"))
        m = timer("gate7.minor_pipeline", weakseq.minor_pipeline, g, 2, 4,
                  rng.derive("run"), desk)
        timer.check(not isinstance(m, Failure)
                    and weakseq.verify_minor(g, m) == (True, None),
                    f"gate 7: minor {seed}")


def gate7_induced(timer: Timer) -> None:
    """The restriction layer on gate 7's 10 G(2000, 1/2) hosts: ``induced``
    on the equitable halves that each host's pipeline draws first, and
    ``_incidence_graph`` of a cover of those halves by 4-blocks, V2
    against 250 block vertices.  The entries are named under gate7, whose
    hosts they take, and kept out of ``gate7.total``."""
    for seed in range(10):
        rng = RngStream(7000 + seed)
        g = random_graph(2000, 0.5, rng.derive("gen"))
        halves = random_equitable_bipartition(g, rng.derive("run")).bipartite
        m1, m2 = halves.mask(1), halves.mask(2)
        B = timer("gate7.induced", BipartiteGraph.induced, g, m1, m2)
        timer.check(B == halves and B.n1 == B.n2 == 1000 and B.m == sum(
            (g.adj[u] & m2).bit_count() for u in B.v1),
            f"gate 7: induced halves {seed}")
        blocks = weakseq.cover_partition(B, 4, rng.derive("cover")).blocks
        X = timer("gate7.incidence_graph", weakseq._incidence_graph, B,
                  blocks)
        masks = [mask_of(blk) for blk in blocks]
        timer.check((X.n1, X.n2) == (1000, 250) and X.m == sum(
            1 for v in B.v2 for blk in masks if B.adj[v] & blk),
            f"gate 7: incidence graph {seed}")


@dataclass(frozen=True)
class Job:
    """A perfbench job kind run through ``expcli.run`` at seed 1.  During
    the run each ``"mod.fn"`` of ``stages``, the name ``fn`` of
    ``exlab.mod``, is wrapped in the timer and timed as ``<name>.<fn>``;
    the stages are inner, so ``<name>.total`` is the run's wall time.  The
    entry fails unless the SHA-256 of the run's trials is ``pin`` and each
    stage was called.  A ``grid_file`` parameter holds the grid's text,
    which the run reads from a file in the timer's workdir."""

    name: str
    module: str
    operation: str
    params: dict
    trials: int
    stages: tuple
    pin: str

    @property
    def __name__(self) -> str:
        return self.name

    def __call__(self, timer: Timer) -> None:
        params = dict(self.params)
        if "grid_file" in params:
            path = timer.workdir / f"{self.name}.grid"
            path.write_text(params["grid_file"], encoding="utf-8")
            params["grid_file"] = str(path)
        spec = expcli.ExperimentSpec(self.module, self.operation, params,
                                     seed=1, trials=self.trials)
        wrapped = {}  # entry: (module, name, original)
        for stage in self.stages:
            mod, fn = stage.split(".")
            module = importlib.import_module(f"{__package__}.{mod}")
            wrapped[f"{self.name}.{fn}"] = module, fn, getattr(module, fn)
        timer.inner.update(wrapped)
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
# t = 12, where regime2_order gives t = 1, and corner_free runs the grid of
# tests/golden/corner_free_4.grid, which takes one deletion step
CORNER_FREE_4 = "4 2\n0 1 0 1\n1 0 1 0\n1 0 0 1\n0 1 0 0\n"
JOBS = (
    Job("weakseq_t12", "weakseq", "pipeline",
        {"n": 2000, "p": 0.5, "r": 4, "t": 12}, 3,
        ("expcli.random_graph", "weakseq.weak_sequence_pipeline",
         "weakseq.verify_sequence"),
        "a1de33640866419c1778a137c6e1ff24b3dfc59561e745737678ba4d9b3bef18"),
    Job("weakseq_minor", "weakseq", "minor",
        {"n": 600, "p": 0.7, "r": 2, "t": 4}, 3,
        ("expcli.random_graph", "weakseq.minor_pipeline", "weakseq.paths_drc"),
        "ef152fb91d4d10a3e8993709820a9d5f64086ea2f4ad285d551221b3b092aaee"),
    Job("bipfree_extract", "bipfree", "extract", {"n": 400, "p": 0.05}, 3,
        ("expcli.random_graph", "bipfree._pattern_free",
         "bipfree._graph_round", "bipfree.count_pattern"),
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
    Job("corner_free", "removal", "iterate", {"grid_file": CORNER_FREE_4}, 1,
        ("removal.removal_iterate",),
        "1e86ffa7eaf7f93ac0308d300acffa94d1b4e67c3e91b9a49581a152d2958649"),
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


WORKLOADS = (gate5, gate6, gate7, gate7_induced, *JOBS, cold_start,
             readme_examples)


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
        # the gates run some stages outside their theorem regimes on purpose
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
                if len(times) > 1:
                    times[f"{workload.__name__}.total"] = sum(
                        s for name, s in times.items()
                        if name not in timer.inner)
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


def time_tier1() -> dict | None:
    if importlib.util.find_spec("pytest") is None \
            or not (ROOT / "tests").is_dir():
        return None
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=False)
    seconds = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()
    return {"seconds": _round(seconds), "exit_code": proc.returncode,
            "summary": tail[-1] if tail else ""}


def environment() -> dict:
    return {"machine": platform.machine(), "cpu_model": _cpu_model(),
            "platform": platform.platform(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "optimize": sys.flags.optimize, "commit": _git_commit(),
            "rng_algorithm": RngStream.ALGORITHM}


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
    before = {name: e for name, e in (prev.get("entries") or {}).items()
              if isinstance(e, dict)}
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


def run_bench(out: Path, workloads=WORKLOADS, reps: int = REPS,
              tier1: bool = True) -> dict:
    t0 = time.perf_counter()
    expcli.destination_guard(out, "the bench file")
    prev = previous_bench(out)
    if prev is not None:  # read first, so a bad file fails before the run
        prev_doc = json.loads(prev.read_text(encoding="utf-8"))
        if not isinstance(prev_doc, dict):
            raise ValueError(f"{prev} is not an exlab bench file")
    failures = []
    entries = time_workloads(workloads, reps, failures)
    doc = {"environment": environment(), "repetitions": reps,
           "entries": entries, "tier1": time_tier1() if tier1 else None}
    if doc["tier1"] is not None and doc["tier1"]["exit_code"] != 0:
        failures.append(f"tier-1: {doc['tier1']['summary']}")
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
