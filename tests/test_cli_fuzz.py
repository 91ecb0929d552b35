"""Seeded fuzz of the command line's exit contract.

Each case mutates one golden invocation (``tests/test_cli_golden.py``) or
one record-corpus spec file (``tests/test_record_corpus.py``) with stdlib
``random``: a token, flag, parameter or spec key is dropped, duplicated,
swapped or set to a hostile value.  The result runs through
``expcli.main`` with ``--dry-run``, so no trial runs.  Every case must exit
0, 1 or 2 without a traceback and within ``CASE_SECONDS``, and an exit 2
must print exactly one ``error:`` line.
"""

import contextlib
import io
import json
import random
import shlex
import time
import traceback

from exlab import expcli
from test_cli_golden import INVOCATIONS
from test_record_corpus import CORPUS

SEED = 20261019
CASES = 500  # per source: golden invocations, then corpus spec files
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


def _run(argv) -> tuple:
    """(exit code, stderr, seconds) of ``main(argv + ["--dry-run"])``; an
    exception that escapes main is returned as its traceback text."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = expcli.main(argv + ["--dry-run"])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the defect this test looks for
            code = "traceback"
            err.write(traceback.format_exc())
    return code, err.getvalue(), time.perf_counter() - start


def _cases(tmp_path):
    rng = random.Random(SEED)
    invocations = [shlex.split(line) for line in INVOCATIONS]
    for _ in range(CASES):
        yield _mutate_argv(rng, rng.choice(invocations))
    specs = [CORPUS[key] for key in sorted(CORPUS)]
    for n in range(CASES):
        path = tmp_path / f"spec{n}.json"
        path.write_text(json.dumps(_mutate_spec(rng, rng.choice(specs))),
                        encoding="utf-8")
        yield ["run", str(path)]


def test_mutated_command_lines_and_specs_keep_the_exit_contract(tmp_path):
    broken = []
    count = 0
    for argv in _cases(tmp_path):
        count += 1
        code, err, seconds = _run(argv)
        errors = [line for line in err.splitlines() if "error:" in line]
        if (code not in (0, 1, 2) or "Traceback" in err
                or seconds > CASE_SECONDS
                or code == 2 and len(errors) != 1):
            broken.append((shlex.join(argv), code, round(seconds, 2),
                           err[-300:]))
    assert count == 1000  # so that a lowered CASES fails here
    assert broken == []
