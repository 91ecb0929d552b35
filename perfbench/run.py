"""exlab benchmark: one workload, one seed, one closed-loop timed run.

    python3 perfbench/run.py --workload weakseq-dense --seed 3 --seconds 30
    python3 perfbench/run.py --workload cli-mix --trace 1
    python3 perfbench/run.py --workload all      # every workload in turn

Runs from the repository root and imports the package from ``src/``.  It
clears ``EXLAB_THREADS``, so trials run in this process and the process
pool is not measured.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs the
jobs untraced for half of ``--seconds``, then the same jobs again with
every public function of every layer wrapped (see ``tracer.py``), and
reports the per-layer metrics plus the tracing overhead.  Either way,
every trial, exit code, replay and report is checked, and the trial lists
of one round at the default seed are compared with the SHA-256 pinned in
``pins.json`` for the current ``RngStream.ALGORITHM``.  Time metrics are
scaled to a reference machine speed by the kernel in ``calibration.py``;
the raw values are reported beside them.

The readable summary goes to stdout; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The full result,
with an environment block, goes to ``.perfbench_out/results/``, and the
spans of a traced run to ``.perfbench_out/spans/``.  The exit code is 0
only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, Checks, drive,  # noqa: E402
                       round_digest)

SETUP_REPS = 11
# Timed in a fresh interpreter, which then runs the calibration kernel so
# that its own speed scales its own setup time.
SETUP_CODE = f"""
import statistics, sys, time
sys.path.insert(0, {str(SRC)!r})
t0 = time.perf_counter()
import exlab.expcli
from exlab import weakseq
exlab.expcli.build_parser()
weakseq.load_preset("desk")
setup_s = time.perf_counter() - t0
sys.path.insert(0, {str(BENCH)!r})
import calibration
kernel_s = []
calibration.sample(kernel_s, 5)
print(setup_s, statistics.median(kernel_s))
"""

# Reported on the last line with --trace 0; the rest of the end-to-end
# metrics exist only on some workloads or are zero on a correct run, and
# appear in the summary and the result file.
END_TO_END = ("trials_per_s", "job_s.p50", "setup_s", "peak_rss_mb")

LAYER_FUNCTIONS = (
    "core.random_graph", "core.random_equitable_bipartition",
    "core.random_coloring",
    "weakseq.weak_sequence_pipeline", "weakseq.cover_partition",
    "weakseq.find_ktt", "weakseq.minor_pipeline", "weakseq.paths_drc",
    "weakseq.verify_sequence", "weakseq.verify_minor",
    "lll_embed.random_dense_dch", "lll_embed.resample_embed",
    "lll_embed.bip_ramsey_pipeline", "lll_embed.drc_subset",
    "bipfree.count_pattern", "bipfree.kpartite_count_check",
    "bipfree.extract_free",
    "setmap.eh_violator", "setmap.free_set_oracle",
    "removal.grid_cover", "removal.removal_iterate", "removal.grid_pipeline",
    "rsgraph.rs_from_behrend", "rsgraph.verify_rs", "rsgraph.bipartite_double",
    "expcli.build_parser", "expcli.digest", "expcli.write_record",
    "expcli.read_record", "expcli.replay",
)
LAYER_COUNTS = {
    "core.rng_calls": "count", "weakseq.cover_tries": "count",
    "weakseq.bipartition_tries": "count", "lll_embed.resample_rounds": "count",
    "lll_embed.drc_tries": "count", "bipfree.extract_rounds": "count",
    "setmap.oracle_nodes": "count", "expcli.record_bytes": "bytes",
}


def import_exlab():
    """Import the package from this checkout's ``src/``, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import exlab
        import exlab.expcli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import exlab from {SRC}: {exc}")
    if not Path(exlab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: exlab imported from {exlab.__file__}, "
                 f"not from {SRC}")
    return exlab


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout read from ``.git``; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(exlab, seed: int) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "optimize": sys.flags.optimize,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "git_commit": git_commit(),
            "seed": seed,
            "rng_algorithm": exlab.core.RngStream.ALGORITHM,
            "exlab_threads": "cleared: trials run in-process, no pool"}


def measure_setup() -> tuple:
    """Medians over fresh interpreters of the raw and the scaled time of
    import + parser + preset."""
    env = {k: v for k, v in os.environ.items() if k != "EXLAB_THREADS"}
    raw, scaled = [], []
    for rep in range(SETUP_REPS + 1):
        out = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE],
                             env=env, cwd=ROOT, capture_output=True,
                             text=True, timeout=60, check=True).stdout
        setup_s, kernel_s = map(float, out.split())
        if rep:  # the first interpreter writes the bytecode caches
            raw.append(setup_s)
            scaled.append(setup_s * calibration.REFERENCE_S / kernel_s)
    return statistics.median(raw), statistics.median(scaled)


def check_pin(exlab, name: str, digest: str, checks: Checks) -> str:
    algorithm = exlab.core.RngStream.ALGORITHM
    pins = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))
    pinned = pins.get(algorithm, {}).get(name)
    if pinned is None:
        return (f"unpinned: no digest for {name} under {algorithm}; "
                f"this run gave {digest}")
    checks.check(pinned == digest,
                 f"pin mismatch for {name}: {digest} != {pinned}")
    return "match" if pinned == digest else f"mismatch: {digest}"


def kind_median(job_s: list, k: int) -> float:
    """Median over the ``k`` job kinds of each kind's median job time.

    With one kind, or an odd number of well separated kinds, this is the
    median of all jobs.  A run holds equally many jobs of each kind, so with
    an even number of kinds the median of all jobs would fall in the gap
    between two kinds and follow the fastest job of one and the slowest of
    the other; the median of kind medians stays put.
    """
    return statistics.median(statistics.median(job_s[i::k])
                             for i in range(k))


def p90(values):
    """90th percentile; None below 100 samples (under 10 beyond it)."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[8]


def layer_metrics(tracer: Tracer, traced, untraced_s: float) -> tuple:
    """Per-layer metrics; ``untraced_s`` is the same jobs' scaled time."""
    summary = tracer.summary()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (summary["self_s"][layer], "s")
        metrics[f"{layer}.calls"] = (summary["layer_calls"][layer], "count")
        metrics[f"{layer}.warnings"] = (tracer.warnings[layer], "count")
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}.s"] = (summary["inclusive_s"].get(name, 0.0), "s")
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = (tracer.counters[name], unit)
    metrics["trace.overhead"] = (untraced_s / traced.scaled_elapsed(),
                                 "ratio")
    metrics["trace.coverage"] = (summary["covered_s"] / traced.elapsed,
                                 "ratio")
    return metrics, summary


def run_workload(args) -> int:
    exlab = import_exlab()
    expcli = exlab.expcli
    # Regime warnings repeat on every job; the traced run counts them.
    warnings.simplefilter("ignore", RuntimeWarning)
    workload = WORKLOADS[args.workload]
    kinds = workload.tiny if args.tiny else workload.kinds
    pin_name = args.workload + ("/tiny" if args.tiny else "")
    tag = f"{args.workload}{'-tiny' if args.tiny else ''}" \
          f"-seed{args.seed}-trace{args.trace}"
    checks = Checks()
    result = {"workload": args.workload, "tiny": args.tiny,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(exlab, args.seed)}
    metrics = {}
    if not args.trace:
        raw, scaled = measure_setup()
        metrics["setup_s"] = (scaled, "s")
        metrics["setup_s.raw"] = (raw, "s")
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        work = Path(tmp)
        # one round at the default seed: output check and warm-up
        pin = drive(expcli, kinds, DEFAULT_SEED, work / "pin", checks,
                    cli=workload.cli, jobs=len(kinds))
        result["pin"] = check_pin(exlab, pin_name, round_digest(pin), checks)
        seconds = args.seconds / 2 if args.trace else args.seconds
        timed = drive(expcli, kinds, args.seed, work / "timed", checks,
                      cli=workload.cli, seconds=seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer = Tracer(exlab)
            tracer.install()
            try:
                traced = drive(expcli, kinds, args.seed, work / "traced",
                               checks, cli=workload.cli, jobs=timed.jobs,
                               after_job=tracer.end_job)
            finally:
                tracer.uninstall()
            for j, (a, b) in enumerate(zip(timed.digests, traced.digests)):
                checks.check(a == b, f"job {j}: traced trials differ")
            metrics, summary = layer_metrics(tracer, traced,
                                             timed.scaled_elapsed())
            result["trace_summary"] = {"wall_s": traced.elapsed, **summary}
            (OUT / "spans").mkdir(exist_ok=True)
            tracer.write_spans(OUT / "spans" / f"{tag}.json")
    timed_stats = {"jobs": timed.jobs, "trials": timed.trials,
                   "elapsed_s": timed.elapsed, "job_s": timed.job_s,
                   "replay_s": timed.replay_s, "round_s": timed.round_s,
                   "kernel_s": timed.kernel_s}
    if not args.trace:
        job_s = timed.scaled(timed.job_s)
        metrics["trials_per_s"] = (timed.trials / timed.scaled_elapsed(),
                                   "trials/s")
        metrics["trials_per_s.raw"] = (timed.trials / timed.elapsed,
                                       "trials/s")
        metrics["job_s.p50"] = (kind_median(job_s, len(kinds)), "s")
        metrics["job_s.p50.raw"] = (kind_median(timed.job_s, len(kinds)), "s")
        tail = p90(job_s)
        if tail is not None:
            metrics["job_s.p90"] = (tail, "s")
        if timed.replay_s:
            metrics["replay_s.p50"] = (
                statistics.median(timed.scaled(timed.replay_s)), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MiB")
        metrics["calibration.scale"] = (statistics.median(timed.scales()),
                                        "ratio")
    metrics["fail_rate"] = (checks.failed / checks.attempted, "ratio")
    result.update({"timed": timed_stats, "checks": {
        "attempted": checks.attempted, "failed": checks.failed,
        "failures": checks.notes}, "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}{' (tiny)' if args.tiny else ''}  "
          f"seed {args.seed}  trace {args.trace}  jobs {timed.jobs}  "
          f"trials {timed.trials}  elapsed {timed.elapsed:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>14.6g} {unit}")
    print(f"  pin: {result['pin']}")
    for note in checks.notes:
        print(f"  FAILED: {note}")
    reported = END_TO_END if not args.trace else [
        m for m in metrics if m != "fail_rate"]
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": {m: {"value": metrics[m][0],
                                      "unit": metrics[m][1]}
                                  for m in reported}}))
    return 0 if checks.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    import_exlab()
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    print(f"all workloads: {'every check passed' if status == 0 else 'FAILED'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (the smoke test uses this)")
    args = parser.parse_args(argv)
    os.environ.pop("EXLAB_THREADS", None)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
