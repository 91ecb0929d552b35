"""Frozen ``--dry-run`` output of the exlab command line.

Every invocation below runs through ``expcli.main`` with ``--dry-run``
appended, and its exit code and stdout must equal the entry stored in
``golden/cli_dry_run.json``.  The list holds one invocation per operation,
every example of the README's "Command line" section, some of the command
lines that ``tests/test_expcli.py`` passes to ``main``, and rejected input,
so a change to how flags become parameters shows up here byte for byte.

To rewrite the golden file after an intended change of output, run
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import shlex
import sys
from pathlib import Path

from exlab import expcli

GOLDEN = Path(__file__).with_name("golden") / "cli_dry_run.json"

INVOCATIONS = [
    # one per operation
    "setmap --op construct --k 2 --n 4",
    "setmap --op construct --n 3 --variant caro3",
    "setmap --op violate --k 3 --n 4 --size 20 --variant lexicographic",
    "setmap --op oracle --k 2 --n 3",
    "setmap --op oracle --n 3 --variant caro3 --mode not_subset "
    "--budget 500",
    "bipfree --op count --n 30 --p 0.5 --r 3",
    "bipfree --op count --n 30 --p 0.5",
    "bipfree --op count --input host.txt",
    "bipfree --op extract --n 40 --p 0.5 --retry-cap 50",
    "bipfree --op tight --m 64",
    "bipfree --op tight --r 2 --s 3 --m 27 --budget 1000",
    "bipfree --op kcheck --k 3 --r 2 --n 2 --p 0.5",
    "embed --op lemma --N 64 --k 3 --delta 1/100 --d 2 --round-cap 50",
    "embed --op drc",
    "embed --op drc --N 40 --p 0.8 --eps 1/2 --k 2 --b 3/2 --n 2 "
    "--retry-cap 10",
    "embed --op pipeline --N 256 --d 2 --drc-retry 5 --round-cap 100",
    "embed --op cube --d 4",
    "weakseq --op pipeline --n 200 --p 0.5 --r 2 --t 3 --retry-cap 20",
    "weakseq --op minor --n 200 --p 0.7 --t 3",
    "weakseq --op minor --n 200 --p 0.7 --t 3 --preset paper",
    "weakseq --op minor --input host.txt --r 3 --t 2 --retry-cap 5",
    "weakseq --op oracle --n 10 --p 0.5",
    "rsgraph --op behrend --N 100",
    "rsgraph --op construct --N 100 --chunk 7",
    "rsgraph --op double --N 200",
    "rsgraph --op decompose --N 5 --n 2 --t 3 --budget 1000",
    "rsgraph --op arrow --N 4 --t 2 --n 2",
    "rsgraph --op arrow --N 1000 --t 3 --n 10 --mode theorem",
    "removal --op census --N 6 --r 2",
    "removal --op step --grid-file grid.txt",
    "removal --op diamond --N 5 --r 2 --seed 3",
    "removal --op grid --N 8 --r 3 --format csv",
    # README "Command line" examples
    "setmap --op violate --k 2 --n 6 --trials 100 --seed 7",
    "bipfree --op extract --n 40 --p 0.5 --trials 5 --out extract.json",
    "embed --op lemma --trials 10 --seed 3",
    "weakseq --op pipeline --n 2000 --p 0.5 --r 4 --seed 1",
    "rsgraph --op construct --N 3000",
    "removal --op iterate --N 15 --r 2 --trials 5",
    # some command lines of tests/test_expcli.py
    "setmap --op violate --k 2 --n 6 --trials 3 --seed 7",
    "weakseq --op pipeline --n 40 --p 0.5 --r 4 --t 50",
    "weakseq --op pipeline --n 100 --p 0.5 --r 0",
    "bipfree --op count --n 30 --p 0.5 --out rec.json",
    "removal --op diamond --N 4 --r 2 --trials 2 --out rec.json",
    "removal --op census --grid-file grid.txt",
    "bipfree --op count --n 30 --p 0.5 --input somefile",
    # rejected input keeps exit code 2
    "setmap --op construct --n 4 --size 3",
    "setmap --op construct --n 4 --variant bogus",
    "bipfree --op tight",
    "bipfree --op count --n 30 --p 1.5",
    "embed --op lemma --delta 1",
    "rsgraph --op arrow --N 4 --t 2 --n 2 --mode guess",
    "rsgraph --op arrow --N 20 --t 2 --n 2 --mode theorem",
    "removal --op census",
    "removal --op census --N 4 --r 2 --grid-file grid.txt",
    "removal --op iterate --N 15 --r 2 --trials 5 --preset paper",
    "weakseq --op minor --n 200 --p 0.7 --t 3 --preset lab",
    "weakseq --op pipeline --n 200 --p 0.5 --preset paper",
    "weakseq --op minor --n 200 --p 0.7 --t 3 --diameter-aware 7",
    "setmap --op violate --k 2 --n 6.9",
    "setmap --op violate --k 2 --n 6 --seed 1_000",
    "embed --op drc --eps 1e-10000000",
    "embed --op drc --eps 1e100000",
    "embed --op drc --N 40000004 --k 10000000 --eps 1/3",
    "embed --op cube --d 17",
    "bipfree --op count --n 1000000000000000000000 --p 0.5",
    "embed --op drc --N 1000000000000000000000 --k 1",
    "removal --op census --N 4 --r 100000",
]

# spec files for ``run SPEC --dry-run``: the README example, some specs of
# tests/test_expcli.py, malformed ones, and values that the schema casts
# refuse rather than truncate (an integer's exact decimal text is accepted,
# since it is what the command line passes)
SPEC_FILES = [
    {"module": "setmap", "operation": "violate",
     "params": {"k": 2, "n": 6}, "seed": 7, "trials": 100},
    {"module": "setmap", "operation": "violate",
     "params": {"k": 2, "n": 6}, "seed": 7, "trials": 4},
    {"module": "embed", "op": "lemma", "params": {"delta": "9/1000"},
     "preset": "paper"},
    {"module": "removal", "operation": "grid", "params": {"N": 8, "r": 3}},
    {"params": {"n": 6}},
    [1, 2],
    {"module": "setmap", "operation": "violate", "params": [1]},
    {"module": "setmap", "operation": "violate", "trials": "many"},
    {"module": "setmap", "operation": "violate", "params": {"k": 2, "n": 0}},
    {"module": "setmap", "operation": "violate", "params": {"k": 2, "n": 6},
     "sead": 5, "trails": 9},
    {"module": "setmap", "operation": "violate",
     "params": {"k": 2, "n": 6.9}, "seed": 7.9, "trials": "3"},
    {"module": "setmap", "operation": "violate",
     "params": {"k": True, "n": 6}},
    {"module": "setmap", "operation": "violate", "params": {"k": 2, "n": 6},
     "trials": 2.5},
    {"module": "bipfree", "operation": "count", "params": {"n": 30, "p": 1.5}},
    {"module": "setmap", "operation": "violate", "params": {"k": 2, "n": "6"}},
]


def _spec_key(spec) -> str:
    return "run " + json.dumps(spec, sort_keys=True)


def _dry_run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = expcli.main(argv + ["--dry-run"])
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue()}


def observed(tmp_path) -> dict:
    got = {line: _dry_run(shlex.split(line)) for line in INVOCATIONS}
    path = tmp_path / "spec.json"
    for spec in SPEC_FILES:
        path.write_text(json.dumps(spec), encoding="utf-8")
        got[_spec_key(spec)] = _dry_run(["run", str(path)])
    return got


def test_dry_run_output_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = observed(tmp_path)
    assert sorted(got) == sorted(golden)
    for key, want in golden.items():
        assert got[key] == want, key


def test_golden_has_one_invocation_per_operation():
    reached = set()
    for line in INVOCATIONS:
        words = shlex.split(line)
        reached.add((words[0], words[2]))
    assert reached >= set(expcli.OPS)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = observed(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(data)} entries to {GOLDEN}", file=sys.stderr)
