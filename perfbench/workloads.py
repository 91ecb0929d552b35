"""Workload definitions and the closed-loop job runner.

A workload is a fixed cycle of job kinds.  One client runs the jobs one
after another (a closed loop: each job starts when the previous one ends),
one round of the cycle at a time, so every run holds whole rounds.  Job
``j`` runs kind ``j % len(kinds)`` with a spec seed derived from the
benchmark seed and ``j``; the program sees only the resulting specs.

``api`` workloads call ``expcli.run`` with a record path.  The ``cli``
workload writes spec files and calls ``expcli.main`` for ``run SPEC --out
REC`` and then ``replay REC`` per job, and ends with one ``report`` over
all records it wrote.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibration

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Kind:
    module: str
    operation: str
    params: dict
    trials: int = 1


@dataclass(frozen=True)
class Workload:
    cli: bool
    kinds: tuple    # the measured sizes
    tiny: tuple     # the same kinds at smoke-test sizes


WORKLOADS = {
    "weakseq-dense": Workload(
        cli=False,
        kinds=(Kind("weakseq", "pipeline", {"n": 2000, "p": 0.5, "r": 4}),
               Kind("weakseq", "minor",
                    {"n": 600, "p": 0.7, "r": 2, "t": 4})),
        tiny=(Kind("weakseq", "pipeline", {"n": 240, "p": 0.5, "r": 4}),
              Kind("weakseq", "minor", {"n": 200, "p": 0.7, "r": 2, "t": 3}))),
    "hyper-embed": Workload(
        cli=False,
        kinds=(Kind("embed", "lemma",
                    {"N": 128, "k": 3, "delta": "9/1000", "d": 3}, 5),
               Kind("embed", "pipeline", {"N": 512}),
               Kind("bipfree", "kcheck", {"k": 3, "r": 2, "n": 2, "p": 0.5})),
        tiny=(Kind("embed", "lemma",
                   {"N": 128, "k": 3, "delta": "9/1000", "d": 3}),
              Kind("embed", "pipeline", {"N": 256}),
              Kind("bipfree", "kcheck", {"k": 3, "r": 2, "n": 2, "p": 0.25}))),
    "cli-mix": Workload(
        cli=True,
        kinds=(Kind("setmap", "violate", {"k": 2, "n": 6}, 20),
               Kind("setmap", "oracle", {"k": 2, "n": 4}),
               Kind("bipfree", "extract", {"n": 40, "p": 0.5}, 5),
               Kind("bipfree", "extract", {"n": 400, "p": 0.05}),
               Kind("bipfree", "tight", {"m": 64}),
               Kind("rsgraph", "construct", {"N": 1000}),
               Kind("rsgraph", "double", {"N": 200}),
               Kind("removal", "iterate", {"N": 15, "r": 2}, 5),
               Kind("removal", "grid", {"N": 8, "r": 3}, 5)),
        tiny=(Kind("setmap", "violate", {"k": 2, "n": 6}, 2),
              Kind("setmap", "oracle", {"k": 2, "n": 3}),
              Kind("bipfree", "extract", {"n": 40, "p": 0.5}),
              Kind("bipfree", "extract", {"n": 100, "p": 0.05}),
              Kind("bipfree", "tight", {"m": 64}),
              Kind("rsgraph", "construct", {"N": 100}),
              Kind("rsgraph", "double", {"N": 100}),
              Kind("removal", "iterate", {"N": 6, "r": 2}),
              Kind("removal", "grid", {"N": 5, "r": 3}))),
}


def job_seed(seed: int, index: int) -> int:
    blob = f"perfbench\x1f{seed}\x1f{index}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big")


def trials_digest(trials: list) -> str:
    blob = json.dumps(trials, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Checks:
    """Pass/fail tally of every checked operation; failures keep a note."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def trials(self, trials: list, what: str) -> None:
        for t in trials:
            self.check(t["ok"], f"{what}: trial {t['trial']} "
                                f"outcome {t['outcome']}")


@dataclass
class Phase:
    """What one pass over a job sequence did and how long it took.

    ``kernel_s[r]`` holds the calibration samples taken just before round
    ``r``; one more list follows the last round.  Each round's times are
    scaled by the samples on both sides of it, because the machine's speed
    changes within a run as well as between runs.
    """

    per_round: int
    jobs: int = 0
    trials: int = 0
    job_s: list = field(default_factory=list)
    replay_s: list = field(default_factory=list)
    digests: list = field(default_factory=list)   # per job, of its trials
    round_s: list = field(default_factory=list)   # calibration excluded
    kernel_s: list = field(default_factory=list)
    report_s: float = 0.0

    @property
    def elapsed(self) -> float:
        return sum(self.round_s) + self.report_s

    def scales(self) -> list:
        """Per round, the factor that takes its times to reference speed."""
        return [calibration.REFERENCE_S
                / statistics.median(self.kernel_s[r] + self.kernel_s[r + 1])
                for r in range(len(self.round_s))]

    def scaled_elapsed(self) -> float:
        scales = self.scales()
        return (sum(t * f for t, f in zip(self.round_s, scales))
                + self.report_s * scales[-1])

    def scaled(self, times: list) -> list:
        scales = self.scales()
        return [t * scales[i // self.per_round] for i, t in enumerate(times)]


def _main(expcli, argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = expcli.main(argv)
    return code, out.getvalue()


def _calibrate(phase: Phase) -> None:
    phase.kernel_s.append([])
    calibration.sample(phase.kernel_s[-1])


def drive(expcli, kinds, seed: int, workdir: Path, checks: Checks, *,
          cli: bool, seconds=None, jobs=None, after_job=None) -> Phase:
    """Run whole rounds of ``kinds`` until ``seconds`` pass or ``jobs`` ran.

    Every trial, exit code, replay and the closing report is checked into
    ``checks``.  ``after_job`` runs after each job, outside its timing.  The
    calibration kernel runs before the first round and after each round,
    outside the measured time.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    phase = Phase(per_round=len(kinds))
    records = []
    clock = time.perf_counter
    _calibrate(phase)
    while True:
        round_start = clock()
        for kind in kinds:
            j = phase.jobs
            rec = workdir / f"job{j:05d}.json"
            where = f"job {j} {kind.module} {kind.operation}"
            if cli:
                spec = workdir / f"spec{j:05d}.json"
                spec.write_text(json.dumps(
                    {"module": kind.module, "operation": kind.operation,
                     "params": kind.params, "seed": job_seed(seed, j),
                     "trials": kind.trials}), encoding="utf-8")
                t0 = clock()
                code, _ = _main(expcli, ["run", str(spec), "--out", str(rec)])
                phase.job_s.append(clock() - t0)
                checks.check(code == 0, f"{where}: run exit {code}")
                t0 = clock()
                code, out = _main(expcli, ["replay", str(rec)])
                phase.replay_s.append(clock() - t0)
                match = code == 0 and json.loads(out)["match"] is True
                checks.check(match, f"{where}: replay exit {code} {out!r}")
                records.append(rec)
            else:
                spec = expcli.ExperimentSpec(
                    kind.module, kind.operation, dict(kind.params),
                    seed=job_seed(seed, j), trials=kind.trials, out=str(rec))
                t0 = clock()
                record = expcli.run(spec)
                phase.job_s.append(clock() - t0)
                checks.check(rec.stat().st_size > 0, f"{where}: no record")
                checks.trials(record.trials, where)
                phase.trials += len(record.trials)
                phase.digests.append(trials_digest(record.trials))
            phase.jobs += 1
            if after_job is not None:
                after_job()
        phase.round_s.append(clock() - round_start)
        _calibrate(phase)
        if seconds is not None and sum(phase.round_s) >= seconds:
            break
        if jobs is not None and phase.jobs >= jobs:
            break
    if cli:
        t0 = clock()
        code, out = _main(expcli, ["report", *map(str, records),
                                   "--format", "json"])
        phase.report_s = clock() - t0
        rows = json.loads(out) if code == 0 else []
        checks.check(len(rows) == len(records)
                     and all(r["success_rate"] == 1.0 for r in rows),
                     f"report exit {code}, {len(rows)} rows for "
                     f"{len(records)} records")
    for j, rec in enumerate(records):
        trials = json.loads(rec.read_text(encoding="utf-8"))["trials"]
        checks.trials(trials, f"job {j}")
        phase.trials += len(trials)
        phase.digests.append(trials_digest(trials))
    return phase


def round_digest(phase: Phase) -> str:
    """SHA-256 over the per-job trial digests of a phase, in job order."""
    return hashlib.sha256("".join(phase.digests).encode("ascii")).hexdigest()

