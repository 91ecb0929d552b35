"""Seeded fuzz of the command line's exit contract.

Each case mutates one golden invocation (``tests/test_cli_golden.py``), one
record-corpus spec file (``tests/test_record_corpus.py``) or one record of
a corpus spec with stdlib ``random``: a token, flag, parameter, spec key or
record field is dropped, duplicated, swapped or set to a hostile value.
Invocations and spec files run through ``expcli.main`` with
``--dry-run``, so no trial runs; a mutated record, written as
``expcli.write_record`` writes one, runs through ``replay`` and ``report``.
Every case must exit 0, 1 or 2 without a traceback and within
``CASE_SECONDS``, and an exit 2 must print exactly one ``error:`` line.
"""

import contextlib
import copy
import dataclasses
import io
import json
import random
import shlex
import signal
import time
import traceback
import warnings

from exlab import expcli
from test_cli_golden import INVOCATIONS
from test_record_corpus import CORPUS

SEED = 20261019
CASES = 500  # per source: golden invocations, then corpus spec files
RECORD_CASES = 300  # mutated records, each replayed and reported
CASE_SECONDS = 2.0

HOSTILE_TEXT = ["", "-1", "0", "1_000", "1e-10000000", "1e100000",
                "9" * 5000, "nan", "-inf", "1/0", "0x10", "３", "true",
                "2.5", "[", "a\nb", "\x00", "--", "-", str(10 ** 30)]
HOSTILE_JSON = [None, True, -1, 0, 2.5, 1e308, 10 ** 30, "", [], {},
                [[[]]], "1e-10000000", "1e100000", "9" * 5000, "a\nb",
                "1_000", "-inf"]


def _mutate_argv(rng: random.Random, argv: list) -> list:
    argv = list(argv)
    kind = rng.randrange(5)
    i = rng.randrange(len(argv))
    if kind == 0:
        del argv[i]
    elif kind == 1:
        argv.insert(i, argv[i])
    elif kind == 2:
        j = rng.randrange(len(argv))
        argv[i], argv[j] = argv[j], argv[i]
    elif kind == 3:  # a flag's value, so that the line still parses
        values = [k for k in range(1, len(argv)) if argv[k - 1][:2] == "--"]
        argv[rng.choice(values or [i])] = rng.choice(HOSTILE_TEXT)
    else:
        names = sorted(expcli._module_params(argv[0])) + ["seed", "trials"]
        name = rng.choice(names)
        argv += ["--" + name.replace("_", "-"), rng.choice(HOSTILE_TEXT)]
    return argv


def _mutate_spec(rng: random.Random, spec) -> dict:
    data = {"module": spec.module, "operation": spec.operation,
            "params": dict(spec.params), "seed": spec.seed,
            "trials": spec.trials}
    kind = rng.randrange(4)
    if kind == 0:
        names = sorted(expcli.OPS[spec.module, spec.operation].schema)
        data["params"][rng.choice(names)] = rng.choice(HOSTILE_JSON)
    elif kind == 1:
        data[rng.choice(sorted(data))] = rng.choice(HOSTILE_JSON)
    elif kind == 2:
        data.pop(rng.choice(sorted(data)))
    else:
        data["module"], data["operation"] = rng.choice(sorted(expcli.OPS))
    return data


def _paths(value, path=()):
    """The paths to the values inside a record, four keys deep at most."""
    if len(path) == 4:
        return
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


def _mutate_record(rng: random.Random, record: dict) -> dict:
    data = copy.deepcopy(record)
    *parents, last = rng.choice(list(_paths(data)))
    holder = data
    for key in parents:
        holder = holder[key]
    if rng.randrange(4) == 0:
        del holder[last]
    elif (holder is data and last == "trials") or rng.randrange(4) == 0:
        # a list in place of a list, as write_record lays out the trials
        holder[last] = [rng.choice(HOSTILE_JSON)] * rng.randrange(3)
    else:
        holder[last] = rng.choice(HOSTILE_JSON)
    return data


class _Record(dict):
    """A record's fields as ``write_record`` reads them."""

    def to_dict(self) -> dict:
        return self


class CaseTimeout(BaseException):
    """A case past its time.  Not an Exception, which ``_run_one_trial``
    would record as the trial's error and go on."""


def _alarm(signum, frame):
    raise CaseTimeout(f"over {CASE_SECONDS} s")


def _run(argv) -> tuple:
    """(exit code, stderr, seconds) of ``main(argv)``, stopped after
    ``CASE_SECONDS``; an exception that escapes main is returned as its
    traceback text."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = expcli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except (Exception, CaseTimeout):  # the defects this test looks for
            code = "traceback"
            err.write(traceback.format_exc())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue(), time.perf_counter() - start


def _cases(tmp_path):
    rng = random.Random(SEED)
    invocations = [shlex.split(line) for line in INVOCATIONS]
    for _ in range(CASES):
        yield _mutate_argv(rng, rng.choice(invocations)) + ["--dry-run"]
    specs = [CORPUS[key] for key in sorted(CORPUS)]
    for n in range(CASES):
        path = tmp_path / f"spec{n}.json"
        path.write_text(json.dumps(_mutate_spec(rng, rng.choice(specs))),
                        encoding="utf-8")
        yield ["run", str(path), "--dry-run"]


def _record_cases(tmp_path):
    rng = random.Random(SEED + 1)
    records = []
    for key in sorted(CORPUS):
        path = tmp_path / f"{key}.json"
        expcli.run(dataclasses.replace(CORPUS[key], out=str(path)))
        records.append(expcli.read_record(path))
    for n in range(RECORD_CASES):
        path = tmp_path / f"record{n}.json"
        expcli.write_record(
            _Record(_mutate_record(rng, rng.choice(records))), path)
        yield ["replay", str(path)]
        yield ["report", str(path)]


def _broken(cases) -> tuple:
    """(number of cases, the cases that break the exit contract)."""
    broken = []
    count = 0
    for argv in cases:
        count += 1
        code, err, seconds = _run(argv)
        errors = [line for line in err.splitlines() if "error:" in line]
        if (code not in (0, 1, 2) or "Traceback" in err
                or seconds > CASE_SECONDS
                or code == 2 and len(errors) != 1):
            broken.append((shlex.join(argv), code, round(seconds, 2),
                           err[-300:]))
    return count, broken


def test_mutated_command_lines_and_specs_keep_the_exit_contract(tmp_path):
    count, broken = _broken(_cases(tmp_path))
    assert count == 1000  # so that a lowered CASES fails here
    assert broken == []


def test_mutated_records_keep_the_exit_contract(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        count, broken = _broken(_record_cases(tmp_path))
    assert count == 2 * RECORD_CASES == 600
    assert broken == []
