"""Orchestration tests: canonical forms, records, replay, reports, CLI."""

import collections
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from exlab import bipfree, expcli, removal, setmap
from exlab.core import (
    BipartiteGraph,
    EdgeColoring,
    Graph,
    GuardError,
    KUniformHypergraph,
    RngStream,
    random_graph,
    read_graph,
)
from exlab.expcli import ExperimentSpec
from test_core import write_graph
from test_record_corpus import CORPUS, first_specs
from test_removal import write_grid


# ---------------------------------------------------------------------------
# Canonical serialization


def test_canonical_primitives_pass_through():
    assert expcli.canonical(None) is None
    assert expcli.canonical(3) == 3
    assert expcli.canonical(0.5) == 0.5
    assert expcli.canonical("x") == "x"
    assert expcli.canonical(True) is True


def test_canonical_fraction_is_exact_string():
    assert expcli.canonical(Fraction(9, 1000)) == "9/1000"
    assert expcli.canonical(Fraction(-1, 3)) == "-1/3"
    assert expcli.canonical(Fraction(4)) == "4/1"


def test_canonical_sets_and_dicts_are_ordered():
    assert expcli.canonical(frozenset({3, 1, 2})) == [1, 2, 3]
    out = expcli.canonical({"b": 1, "a": frozenset({(2, 1), (1, 2)})})
    assert list(out) == ["a", "b"]
    assert out["a"] == [[1, 2], [2, 1]]
    # non-string keys serialize deterministically
    assert expcli.canonical({(1, 2): "x"}) == {"[1, 2]": "x"}


def test_canonical_graphs_and_colorings():
    g = Graph(3, [(0, 1), (1, 2)])
    cg = expcli.canonical(g)
    assert cg == {"type": "Graph", "n": 3, "edges": [[0, 1], [1, 2]]}
    b = BipartiteGraph(2, 2, [(0, 2), (1, 3)])
    cb = expcli.canonical(b)
    assert cb["type"] == "BipartiteGraph" and cb["n1"] == 2
    col = EdgeColoring(g, {(0, 1): 0, (1, 2): 1}, 2)
    cc = expcli.canonical(col)
    assert cc["r"] == 2 and [0, 1, 0] in cc["colors"]
    h = KUniformHypergraph(4, 2, [(2, 3), (0, 1)])
    assert expcli.canonical(h)["edges"] == [[0, 1], [2, 3]]


def test_canonical_dataclass_skips_callables():
    f = setmap.eh_map(3, 2)
    out = expcli.canonical(f)
    assert out["type"] == "SetMapping" and out["kind"] == "eh"
    assert "rule" not in out
    assert out["k"] == 2 and len(out["points"]) == 9


def test_canonical_rejects_unknown_objects():
    with pytest.raises(TypeError, match="canonicalize"):
        expcli.canonical(object())


def _recursive_canonical(obj):
    """canonical's element-by-element recursion for the types below, with
    no shortcut for plain list and tuple elements."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (list, tuple)):
        return [_recursive_canonical(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        items = [_recursive_canonical(x) for x in obj]
        return sorted(items, key=lambda x: json.dumps(x, sort_keys=True))
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            key = k if isinstance(k, str) else json.dumps(
                _recursive_canonical(k))
            out[key] = _recursive_canonical(v)
        return dict(sorted(out.items()))
    out = {"type": type(obj).__name__}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not callable(value):
            out[f.name] = _recursive_canonical(value)
    return out


class _Str(str):
    pass


class _Int(int):
    pass


@dataclasses.dataclass(frozen=True)
class _Pair:
    left: object
    right: object


_Point = collections.namedtuple("_Point", "x y")


def test_canonical_lists_match_element_by_element_recursion():
    values = [
        [True, False, None, 0, -3, 1.5, float("inf"), "", "a\"b\né"],
        (1, (2, (3, [4, (None,)])), [], ()),
        [Fraction(1, 3), (Fraction(-2, 7), [Fraction(5)])],
        [frozenset({(2, 1), (1, 2)}), {3, 1}, (frozenset(), {"x"})],
        [_Pair(1, (True, None)), (_Pair([0.25, "s"], {2: [Fraction(1, 2)]}),)],
        [_Str("sub"), _Int(7), (_Str("x"), [_Int(0)]), True, 1, 1.0],
        {"k": [(0, 551), (18, 533)], (1, 2): ([None], (False,))},
        {2: "two", 10: ["ten"], "a": 1, True: None, None: 0, 1.5: -1},
        [_Pair(len, ({0: 1, 2: Fraction(1, 2), 10: (3,)}, {"census": 4}))],
        [_Point(1, (2, _Str("y"))), float("nan"), float("-inf"), {}, set()],
    ]
    for value in values:
        assert expcli.canonical(value) == _recursive_canonical(value)
        # == holds True equal to 1; the JSON tells them apart
        assert json.dumps(expcli.canonical(value), sort_keys=True) == \
            json.dumps(_recursive_canonical(value), sort_keys=True)


def test_digest_is_stable_and_discriminating():
    a = expcli.digest({"x": Fraction(1, 2), "y": [1, 2]})
    b = expcli.digest({"y": [1, 2], "x": Fraction(1, 2)})
    c = expcli.digest({"x": Fraction(1, 2), "y": [2, 1]})
    assert a == b and len(a) == 64
    assert a != c


# ---------------------------------------------------------------------------
# Spec validation


def test_validate_rejects_unknown_module_and_operation():
    with pytest.raises(GuardError, match="unknown module"):
        expcli.validate_spec(ExperimentSpec("nope", "x", {}))
    with pytest.raises(GuardError, match="unknown operation"):
        expcli.validate_spec(ExperimentSpec("setmap", "x", {"n": 3}))


def test_validate_rejects_bad_counts_and_presets():
    spec = ExperimentSpec("setmap", "violate", {"n": 6}, trials=0)
    with pytest.raises(GuardError, match="trial count"):
        expcli.validate_spec(spec)
    spec = ExperimentSpec("weakseq", "minor",
                          {"n": 200, "p": 0.7, "preset": "lab"})
    with pytest.raises(GuardError, match="unknown preset 'lab'"):
        expcli.validate_spec(spec)
    spec = ExperimentSpec("weakseq", "pipeline",
                          {"n": 200, "p": 0.5, "preset": "paper"})
    with pytest.raises(GuardError, match="unknown parameter 'preset'"):
        expcli.validate_spec(spec)


def test_validate_rejects_unknown_and_missing_parameters():
    with pytest.raises(GuardError, match="unknown parameter 'q'"):
        expcli.validate_spec(ExperimentSpec("setmap", "violate",
                                            {"n": 6, "q": 1}))
    with pytest.raises(GuardError, match="missing required parameter 'n'"):
        expcli.validate_spec(ExperimentSpec("setmap", "violate", {}))


def test_validation_error_runs_nothing(tmp_path):
    # zero pattern order must fail before any trial executes
    out = tmp_path / "rec.json"
    spec = ExperimentSpec("weakseq", "pipeline",
                          {"n": 100, "p": 0.5, "r": 0},
                          trials=5, out=str(out))
    with pytest.raises(GuardError, match="'r' must be >= 1"):
        expcli.run(spec)
    assert not out.exists()


def test_validate_resolves_defaults_and_casts():
    params, _ = expcli.validate_spec(ExperimentSpec(
        "embed", "lemma", {"delta": "9/1000", "N": "128"}))
    assert params["delta"] == Fraction(9, 1000)
    assert params["N"] == 128 and params["k"] == 3


def test_casts_refuse_what_they_would_truncate():
    def resolve(**params):
        return expcli.validate_spec(ExperimentSpec(
            "bipfree", "extract", {"n": 30, "p": 0.5, **params}))[0]
    assert resolve(n="30", p="1")["n"] == 30 == resolve(n=30)["n"]
    for params in ({"n": True}, {"n": 30.0}, {"n": "30.5"}, {"n": " 30"},
                   {"n": "1_000"}, {"r": False}, {"n": 0}, {"retry_cap": 0},
                   {"p": True}, {"p": 0}, {"p": "1.5"}, {"p": "nan"}):
        with pytest.raises(GuardError, match="parameter"):
            resolve(**params)


# ---------------------------------------------------------------------------
# Execution and replay


def test_run_violate_example_all_trials_succeed():
    spec = ExperimentSpec("setmap", "violate", {"k": 2, "n": 6},
                          seed=7, trials=100)
    rec = expcli.run(spec)
    assert rec.aggregate["successes"] == 100
    assert rec.aggregate["success_rate"] == 1.0
    assert all(t["ok"] and t["outcome"] == "violation" for t in rec.trials)


def test_run_same_seed_is_byte_identical():
    spec = ExperimentSpec("bipfree", "extract", {"n": 30, "p": 0.5},
                          seed=13, trials=6)
    a = expcli.run(spec)
    b = expcli.run(spec)
    assert json.dumps(a.trials) == json.dumps(b.trials)
    assert a.aggregate == b.aggregate


def test_run_seed_changes_witnesses():
    base = {"n": 30, "p": 0.5}
    a = expcli.run(ExperimentSpec("bipfree", "extract", base, seed=1))
    b = expcli.run(ExperimentSpec("bipfree", "extract", base, seed=2))
    assert a.trials[0]["witness"] != b.trials[0]["witness"]


def test_trials_are_independent_of_count():
    # trial i derives its stream from (seed, i), so prefixes agree
    base = {"n": 30, "p": 0.5}
    short = expcli.run(ExperimentSpec("bipfree", "extract", base,
                                      seed=5, trials=2))
    long = expcli.run(ExperimentSpec("bipfree", "extract", base,
                                     seed=5, trials=5))
    assert long.trials[:2] == short.trials


def test_per_trial_failures_recorded_not_thrown():
    # the copy bound of a thinned instance depends on the draw
    spec = ExperimentSpec("bipfree", "kcheck",
                          {"k": 3, "r": 2, "n": 4, "p": 0.5}, trials=2)
    rec = expcli.run(spec)
    assert rec.aggregate["successes"] == 0
    for t in rec.trials:
        assert not t["ok"]
        assert t["outcome"] == "error:GuardError"
        assert "copy bound" in t["stats"]["error"]


def test_record_roundtrip_and_rng_field(tmp_path):
    path = tmp_path / "rec.json"
    spec = ExperimentSpec("rsgraph", "behrend", {"N": 500}, seed=3,
                          out=str(path))
    rec = expcli.run(spec)
    assert rec.rng["algorithm"] == "mt19937-digits/sha256-derive"
    assert rec.schema_version == 2
    stored = expcli.read_record(path)
    assert stored["trials"] == rec.trials
    assert sorted(stored["spec"]) == ["module", "operation", "params",
                                      "seed", "trials"]
    assert stored["spec"]["params"]["N"] == 500


def test_aggregate_key_statistics():
    spec = ExperimentSpec("removal", "census", {"N": 4, "r": 2},
                          seed=2, trials=8)
    rec = expcli.run(spec)
    keys = [t["stats"]["key"] for t in rec.trials]
    assert rec.aggregate["key_name"] == "total"
    assert rec.aggregate["key_min"] == min(keys)
    assert rec.aggregate["key_max"] == max(keys)
    assert rec.aggregate["key_mean"] == pytest.approx(sum(keys) / len(keys))


def test_replay_matches_and_detects_tampering(tmp_path):
    path = tmp_path / "rec.json"
    spec = ExperimentSpec("setmap", "violate", {"k": 2, "n": 6},
                          seed=7, trials=4, out=str(path))
    expcli.run(spec)
    match, fresh = expcli.replay(path)
    assert match and fresh.aggregate["successes"] == 4

    stored = expcli.read_record(path)
    stored["trials"][2]["witness"] = "0" * 64
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stored, fh)
    match, _ = expcli.replay(path)
    assert not match


def test_replay_rejects_schema_mismatch(tmp_path):
    path = tmp_path / "rec.json"
    spec = ExperimentSpec("rsgraph", "behrend", {"N": 100}, out=str(path))
    expcli.run(spec)
    stored = expcli.read_record(path)
    stored["schema_version"] = 99
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stored, fh)
    with pytest.raises(ValueError, match="schema version mismatch"):
        expcli.replay(path)


def test_replay_restores_fraction_parameters(tmp_path):
    path = tmp_path / "rec.json"
    spec = ExperimentSpec("embed", "lemma",
                          {"N": 64, "k": 3, "delta": "1/100"},
                          seed=4, trials=2, out=str(path))
    # at N = 64 and delta = 1/100 the embedding runs outside its regime
    with pytest.warns(RuntimeWarning, match="resample_embed outside"):
        rec = expcli.run(spec)
        match, _ = expcli.replay(path)
    assert rec.spec["params"]["delta"] == "1/100"
    assert match


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def test_replay_checks_rng_algorithm(tmp_path):
    path = tmp_path / "rec.json"
    expcli.run(ExperimentSpec("rsgraph", "behrend", {"N": 100},
                              out=str(path)))
    stored = expcli.read_record(path)
    stored["rng"]["algorithm"] = "pcg64/other"
    _write_json(path, stored)
    with pytest.raises(ValueError, match="pcg64/other"):
        expcli.replay(path)
    del stored["rng"]
    _write_json(path, stored)
    with pytest.raises(ValueError, match="RNG algorithm None"):
        expcli.replay(path)


def test_replay_refuses_records_of_the_old_algorithm(tmp_path, capsys):
    # records written before the digit-rule draws name the old algorithm
    path = tmp_path / "rec.json"
    expcli.run(ExperimentSpec("bipfree", "count", {"n": 30, "p": 0.5},
                              seed=2, out=str(path)))
    stored = expcli.read_record(path)
    assert stored["schema_version"] == 2
    stored["rng"]["algorithm"] = "mt19937/sha256-derive"
    _write_json(path, stored)
    _assert_input_error(["replay", str(path)], capsys)


def test_failing_trial_of_any_type_is_recorded(tmp_path, monkeypatch):
    key = ("setmap", "violate")
    runner = expcli.OPS[key].runner
    calls = []

    def flaky(params, host, rng):
        calls.append(1)
        if len(calls) == 2:
            raise TypeError("runner bug")
        return runner(params, host, rng)

    monkeypatch.setitem(expcli.OPS, key,
                        dataclasses.replace(expcli.OPS[key], runner=flaky))
    path = tmp_path / "rec.json"
    rec = expcli.run(ExperimentSpec("setmap", "violate", {"k": 2, "n": 6},
                                    seed=7, trials=4, out=str(path)))
    assert [t["ok"] for t in rec.trials] == [True, False, True, True]
    assert rec.trials[1]["outcome"] == "error:TypeError"
    assert rec.trials[1]["stats"]["error"] == "runner bug"
    assert expcli.read_record(path)["trials"] == rec.trials


def test_trial_that_cannot_be_serialized_is_recorded(tmp_path, capsys,
                                                    monkeypatch):
    # a stats Fraction with a 5001-digit denominator, which the canonical
    # "p/q" form cannot print
    if not getattr(sys, "get_int_max_str_digits", lambda: 0)():
        pytest.skip("this interpreter has no int-to-str digit limit")
    key = ("removal", "iterate")
    runner = expcli.OPS[key].runner

    def unprintable(params, host, rng):
        ok, outcome, witness, stats = runner(params, host, rng)
        return ok, outcome, witness, {**stats,
                                      "bound": Fraction(1, 10 ** 5000)}

    monkeypatch.setitem(expcli.OPS, key,
                        dataclasses.replace(expcli.OPS[key],
                                            runner=unprintable))
    out = tmp_path / "rec.json"
    assert expcli.main(["removal", "--op", "iterate", "--N", "15", "--r",
                        "2", "--seed", "1", "--out", str(out)]) == 1
    capsys.readouterr()
    trial, = expcli.read_record(out)["trials"]
    assert trial["outcome"] == "error:ValueError" and not trial["ok"]
    assert trial["witness"] is None and "digits" in trial["stats"]["error"]
    assert expcli.main(["replay", str(out)]) == 1
    assert json.loads(capsys.readouterr().out)["match"] is True


def test_removal_iterate_color_cap(tmp_path, capsys):
    spec = ExperimentSpec("removal", "iterate", {"N": 15, "r": 7})
    assert expcli.validate_spec(spec)[0]["r"] == 7
    with pytest.raises(GuardError, match="descent guard 7"):
        expcli.validate_spec(dataclasses.replace(spec,
                                                 params={"N": 15, "r": 8}))
    _assert_input_error(["removal", "--op", "iterate", "--N", "15", "--r",
                         "8"], capsys)
    # validation checks the colors of the grid file it parses: no trial
    # runs and no record is written
    grid = tmp_path / "grid.txt"
    write_grid(removal.GridColoring(
        3, 8, [[0, 1, 2], [3, 4, 5], [6, 7, 0]]), grid)
    out = tmp_path / "rec.json"
    _assert_input_error(["removal", "--op", "iterate", "--grid-file",
                         str(grid), "--out", str(out)], capsys)
    assert not out.exists()


# prints which op modules ran their body, and which heavy stdlib modules
# loaded, after start-up and again after one three-trial setmap command
START_UP = """
import contextlib, io, json, sys
import exlab.expcli

OP_MODULES = ("bipfree", "lll_embed", "removal", "rsgraph", "setmap",
              "weakseq")
HEAVY = ("concurrent.futures.process", "importlib.resources")


def loaded():
    # a lazily bound module holds only dunder names until its body runs;
    # object.__getattribute__ reads its namespace without running it
    modules = [(name, sys.modules.get("exlab." + name)) for name in OP_MODULES]
    return [name for name, m in modules if m is not None and any(
        not key.startswith("_")
        for key in object.__getattribute__(m, "__dict__"))], [
        name for name in HEAVY if name in sys.modules]


exlab.expcli.build_parser()
at_start = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = exlab.expcli.main(["setmap", "--op", "violate", "--k", "2",
                              "--n", "6", "--trials", "3"])
print(json.dumps([at_start, code, loaded()]))
"""


def test_start_up_runs_only_the_op_module_a_command_uses():
    src = str(Path(expcli.__file__).resolve().parents[1])
    # -S: no site hook may preload what exlab should not; the variable that
    # once sent trials to a process pool must not start one
    out = subprocess.run([sys.executable, "-S", "-c", START_UP],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src,
                              "EXLAB_THREADS": "2"})
    at_start, code, after = json.loads(out.stdout)
    assert at_start == [[], []]
    assert code == 0 and after == [["setmap"], []]


# ---------------------------------------------------------------------------
# Reports


def _two_records(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    expcli.run(ExperimentSpec("rsgraph", "behrend", {"N": 200},
                              out=str(p1)))
    expcli.run(ExperimentSpec("bipfree", "extract", {"n": 30, "p": 0.5},
                              seed=2, trials=3, out=str(p2)))
    return p1, p2


def test_report_rows_sorted_by_module_then_op(tmp_path):
    p1, p2 = _two_records(tmp_path)
    rows = expcli.report_rows([expcli.read_record(p1),
                               expcli.read_record(p2)])
    assert [r["module"] for r in rows] == ["bipfree", "rsgraph"]
    assert rows[0]["op"] == "extract" and rows[1]["op"] == "behrend"


def test_report_extraction_ratio_at_least_one(tmp_path):
    _, p2 = _two_records(tmp_path)
    rows = expcli.report_rows([expcli.read_record(p2)])
    assert rows[0]["key_name"] == "size_over_floor"
    assert rows[0]["key_min"] >= 1.0


def test_report_formats_render(tmp_path):
    p1, p2 = _two_records(tmp_path)
    md = expcli.report([str(p1), str(p2)], "md")
    assert md.startswith("| module |")
    assert md.count("\n") == 4
    as_json = json.loads(expcli.report([str(p1)], "json"))
    assert as_json[0]["module"] == "rsgraph"
    csv_text = expcli.report([str(p1)], "csv")
    header, row = csv_text.strip().splitlines()
    assert header.split(",")[0] == "module"
    assert row.split(",")[0] == "rsgraph"
    with pytest.raises(ValueError, match="format"):
        expcli.report([str(p1)], "xml")


def test_json_report_has_the_bytes_of_one_dump():
    row = {"module": "setmap", "op": "violate", "params": "k=2 n=6",
           "trials": 3, "successes": 2, "success_rate": 2 / 3,
           "key_name": "", "key_mean": "", "key_min": 1.5, "key_max": None}
    odd = dict(row, params='line\none "quoted" \\ naïve ∆ ünï', key_name="é")
    for rows in ([], [row], [row, odd, dict(row, trials=0)], [{}], [odd] * 4):
        assert expcli.render_report(rows, "json") == \
            json.dumps(rows, indent=2, sort_keys=True)


def test_report_flags_schema_mismatch(tmp_path):
    p1, _ = _two_records(tmp_path)
    stored = expcli.read_record(p1)
    stored["schema_version"] = 0
    with open(p1, "w", encoding="utf-8") as fh:
        json.dump(stored, fh)
    with pytest.raises(ValueError, match=str(p1)):
        expcli.report([str(p1)], "md")


# ---------------------------------------------------------------------------
# Command line


def test_main_success_exit_and_json_row(capsys):
    code = expcli.main(["setmap", "--op", "violate", "--k", "2",
                        "--n", "6", "--trials", "3", "--seed", "7"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["successes"] == 3


def test_main_failure_exit_on_failed_trials(capsys):
    code = expcli.main(["bipfree", "--op", "kcheck", "--k", "3", "--n", "4",
                        "--p", "0.5"])
    assert code == 1
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["success_rate"] == 0.0


@pytest.mark.parametrize("name, stage", [
    ("bipfree-extract-retry-cap-failure", "extract_free"),
    ("embed-drc-retry-cap-failure", "drc_subset")])
def test_main_exhausted_retry_cap_is_a_failed_trial(name, stage, tmp_path):
    spec = CORPUS[name]
    out = tmp_path / "rec.json"
    assert expcli.main(_cli_argv(spec) + ["--out", str(out)]) == 1
    trial, = expcli.read_record(out)["trials"]
    assert trial["outcome"] == f"failure:{stage}"
    # the best attempt's stats reach the record through the witness digest
    params, source = expcli.validate_spec(spec)
    rng = RngStream(spec.seed).derive("trial", 0)
    failure = expcli.OPS[(spec.module, spec.operation)].runner(
        params, source and source(rng), rng)
    assert failure.stats and trial["witness"] == expcli.digest(failure)


def test_main_ktt_search_past_its_budget_is_a_failed_trial(tmp_path, capsys):
    # G(2000, 0.1) at r = 2 leaves a 500 x 500 incidence graph of density
    # about 0.34, where K_{10,10} is absent but costly to rule out
    out = tmp_path / "rec.json"
    t0 = time.perf_counter()
    with pytest.warns(RuntimeWarning):
        code = expcli.main(["weakseq", "--op", "pipeline", "--n", "2000",
                            "--p", "0.1", "--r", "2", "--t", "10",
                            "--seed", "1", "--out", str(out)])
    assert time.perf_counter() - t0 < 20
    assert code == 1
    capsys.readouterr()
    trial, = expcli.read_record(out)["trials"]
    assert trial["outcome"] == "failure:find_ktt"
    assert trial["stats"]["reason"] == "search budget exhausted"


@pytest.mark.parametrize("line, code, outcome", [
    ("rsgraph --op arrow --N 1000 --t 3 --n 10 --mode theorem", 0, "arrows"),
    ("rsgraph --op decompose --N 8 --n 2 --budget 3", 1,
     "failure:greedy_decompose"),
    ("bipfree --op count --input {host}", 0, "count")])
def test_main_records_and_replays_the_outcome(line, code, outcome, tmp_path,
                                              capsys):
    host, out = tmp_path / "host.txt", tmp_path / "rec.json"
    write_graph(random_graph(30, 0.5, RngStream(5)), host)
    argv = line.format(host=host).split() + ["--out", str(out)]
    assert expcli.main(argv) == code
    capsys.readouterr()
    trial, = expcli.read_record(out)["trials"]
    assert trial["outcome"] == outcome
    assert expcli.main(["replay", str(out)]) == code
    assert json.loads(capsys.readouterr().out)["match"] is True


@pytest.mark.parametrize("line", [
    "weakseq --op pipeline --input {host} --r 4 --t 5",
    "weakseq --op minor --input {host} --r 4 --t 5",
    "weakseq --op oracle --input {host}"])
def test_main_checks_the_input_file_vertex_count(line, tmp_path, capsys):
    # validation applies 2rt <= n, and the oracle's size cap, to the n of
    # the file it parses: no trial runs and no record is written
    host, out = tmp_path / "host.txt", tmp_path / "rec.json"
    write_graph(random_graph(30, 0.5, RngStream(5)), host)
    _assert_input_error(line.format(host=host).split() + ["--out", str(out)],
                        capsys)
    assert not out.exists()


_STAR6 = "6\n0 1\n0 2\n0 3\n0 4\n0 5\n"
_K30 = "30\n" + "".join(f"{u} {v}\n" for u in range(30)
                         for v in range(u + 1, 30))


def _one_colour_grid(N: int) -> str:
    return f"{N} 1\n" + ("0 " * (N - 1) + "0\n") * N


@pytest.mark.parametrize("line, text, message", [
    ("weakseq --op pipeline --input {path} --r 1 --t 2", "4\n",
     "G has no edges"),
    ("weakseq --op minor --input {path} --r 1 --t 2", "4\n",
     "G has no edges"),
    ("weakseq --op pipeline --input {path} --r 7", _K30,
     "2rt exceeds the vertex count 30 for r=7, t=97"),
    ("bipfree --op count --input {path} --r 13", _STAR6,
     "copy bound 2*m^r for m=5, r=13"),
    ("bipfree --op extract --input {path} --r 13", _STAR6,
     "copy bound 2*m^r for m=5, r=13"),
    ("removal --op grid --grid-file {path}", _one_colour_grid(101),
     "grid side 101 exceeds pipeline guard"),
    ("removal --op census --grid-file {path}", _one_colour_grid(151),
     "grid side 151 gives 301 antidiagonals")])
def test_main_checks_the_input_file_edges_and_grid_side(line, text, message,
                                                        tmp_path, capsys):
    # the guards a trial would hit on the file's edge count or grid side
    # run at validation, which parses the file: no trial runs
    path, out = tmp_path / "input.txt", tmp_path / "rec.json"
    path.write_text(text)
    argv = line.format(path=path).split() + ["--out", str(out)]
    for args in (argv, argv + ["--dry-run"]):
        assert expcli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {message}")
    assert not out.exists()


def test_main_records_an_oversized_input_header_as_a_parse_error(tmp_path,
                                                                 capsys):
    # validation parses the file, so no trial runs and no record is written
    host, out = tmp_path / "host.txt", tmp_path / "rec.json"
    host.write_text("100000000000000000000\n")
    argv = ["bipfree", "--op", "count", "--input", str(host), "--out",
            str(out)]
    assert expcli.main(argv) == 2
    assert capsys.readouterr().err == \
        "error: line 1: vertex count must lie in 0..16384\n"
    assert not out.exists()


@pytest.mark.parametrize("line", [
    "bipfree --op count --input {path}",
    "bipfree --op extract --input {path}",
    "weakseq --op pipeline --input {path} --r 2",
    "weakseq --op minor --input {path} --t 2",
    "weakseq --op oracle --input {path}",
    "removal --op census --grid-file {path}",
    "removal --op iterate --grid-file {path}",
    "removal --op grid --grid-file {path}"])
@pytest.mark.parametrize("text, message", [
    (None, "No such file or directory"),  # missing
    ("2\n0 1\n1 x\n", "line 3: non-integer field"),  # malformed line
    ("# header\n100000000000000000000\n", "line 2: "),  # oversized header
    ("", "line 1: empty file")])
def test_main_rejects_a_bad_input_file_before_any_trial(line, text, message,
                                                        tmp_path, capsys):
    path, out = tmp_path / "input.txt", tmp_path / "rec.json"
    if text is not None:
        path.write_text(text)
    argv = line.format(path=path).split() + ["--out", str(out)]
    for args in (argv, argv + ["--dry-run"]):
        assert expcli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and message in captured.err
    assert not out.exists()


def test_main_counts_a_host_graph_file(tmp_path, capsys):
    host = tmp_path / "host.txt"
    write_graph(random_graph(30, 0.5, RngStream(5)), host)
    assert expcli.main(["bipfree", "--op", "count", "--input", str(host)]) == 0
    row, = json.loads(capsys.readouterr().out)
    assert row["key_mean"] == bipfree.count_pattern(read_graph(host),
                                                    bipfree.K_rr(2))


@pytest.mark.parametrize("module, reader, write, host, op, name", [
    (expcli, "read_graph", write_graph, random_graph(30, 0.5, RngStream(5)),
     ("bipfree", "extract"), "input"),
    (removal, "read_grid", write_grid, removal.random_grid(6, 2, RngStream(5)),
     ("removal", "census"), "grid_file")], ids=("graph", "grid"))
def test_each_input_file_is_parsed_once_per_run(module, reader, write, host,
                                                op, name, tmp_path,
                                                monkeypatch):
    # validation parses the file and every trial runs on that parse; a
    # replay validates its spec, so it parses the file once again
    path, out = tmp_path / "input.txt", tmp_path / "rec.json"
    write(host, path)
    calls = []
    parse = getattr(module, reader)

    def counting(source):
        calls.append(source)
        return parse(source)

    monkeypatch.setattr(module, reader, counting)
    rec = expcli.run(ExperimentSpec(*op, {name: str(path)}, seed=3,
                                    trials=5, out=str(out)))
    assert len(rec.trials) == 5 and all(t["ok"] for t in rec.trials)
    assert calls == [str(path)]
    match, _ = expcli.replay(out)
    assert match and calls == [str(path)] * 2


def test_unwritable_record_path_is_refused_before_any_trial(tmp_path, capsys,
                                                            monkeypatch):
    key = ("weakseq", "pipeline")
    calls = []

    def counting(*args):
        calls.append(args)

    monkeypatch.setitem(expcli.OPS, key,
                        dataclasses.replace(expcli.OPS[key], runner=counting))
    spec_path = tmp_path / "spec.json"
    for out in (tmp_path / "missing" / "rec.json", tmp_path):
        argv = ["weakseq", "--op", "pipeline", "--n", "200", "--p", "0.5",
                "--trials", "6", "--out", str(out)]
        for args in (argv, argv + ["--dry-run"]):
            _assert_input_error(args, capsys)
        _write_json(spec_path, {"module": "weakseq", "operation": "pipeline",
                                "params": {"n": 200, "p": 0.5}, "trials": 6,
                                "out": str(out)})
        _assert_input_error(["run", str(spec_path)], capsys)
        _assert_input_error(["run", str(spec_path), "--dry-run"], capsys)
    assert calls == [] and not (tmp_path / "missing").exists()


def test_main_validation_error_exit(capsys):
    code = expcli.main(["weakseq", "--op", "pipeline", "--n", "100",
                        "--p", "0.5", "--r", "0"])
    assert code == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_main_dry_run_prints_resolved_params(tmp_path, capsys):
    out = tmp_path / "rec.json"
    code = expcli.main(["bipfree", "--op", "count", "--n", "30", "--p", "0.5",
                        "--dry-run", "--out", str(out)])
    assert code == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["params"]["n"] == 30 and resolved["params"]["r"] == 2
    assert not out.exists()


def test_main_random_grid_and_record(tmp_path, capsys):
    out = tmp_path / "rec.json"
    code = expcli.main(["removal", "--op", "diamond", "--N", "4", "--r",
                        "2", "--trials", "2", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    stored = expcli.read_record(out)
    assert stored["spec"]["params"]["N"] == 4
    assert len(stored["trials"]) == 2


def test_main_grid_file_census(tmp_path, capsys):
    gc = removal.GridColoring(3, 2, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    path = tmp_path / "grid.txt"
    write_grid(gc, path)
    code = expcli.main(["removal", "--op", "census", "--grid-file",
                        str(path)])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["key_mean"] == 11.0


def test_main_run_replay_report_commands(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    rec_path = tmp_path / "rec.json"
    spec_path.write_text(json.dumps({
        "module": "setmap", "operation": "violate",
        "params": {"k": 2, "n": 6}, "seed": 7, "trials": 4}))
    assert expcli.main(["run", str(spec_path), "--out", str(rec_path)]) == 0
    capsys.readouterr()
    assert expcli.main(["replay", str(rec_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["match"] is True
    report_path = tmp_path / "report.md"
    assert expcli.main(["report", str(rec_path), "--format", "md",
                        "--out", str(report_path)]) == 0
    capsys.readouterr()
    assert report_path.read_text().startswith("| module |")


def test_report_refuses_an_unwritable_out_before_reading_a_record(
        tmp_path, monkeypatch, capsys):
    read = []
    monkeypatch.setattr(expcli, "read_record", read.append)
    out = tmp_path / "missing" / "report.md"
    assert expcli.main(["report", str(tmp_path / "rec.json"), "--out",
                        str(out)]) == 2
    captured = capsys.readouterr()
    assert read == [] and captured.out == ""
    assert captured.err == f"error: cannot write the report to {out}\n"


def test_main_builds_one_parser_for_every_call(tmp_path, monkeypatch,
                                              capsys):
    built = []
    build = expcli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(expcli, "build_parser", counted)
    expcli._parser.cache_clear()
    try:
        rec_path = tmp_path / "rec.json"
        assert expcli.main(["bipfree", "--op", "count", "--n", "30", "--p",
                            "0.5", "--seed", "5", "--dry-run",
                            "--out", str(rec_path)]) == 0
        dry = json.loads(capsys.readouterr().out)
        assert dry["seed"] == 5 and dry["params"]["n"] == 30
        assert not rec_path.exists()

        spec_path = tmp_path / "spec.json"
        _write_json(spec_path, {"module": "setmap", "operation": "violate",
                                "params": {"k": 2, "n": 6}, "trials": 2})
        assert expcli.main(["run", str(spec_path),
                            "--out", str(rec_path)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["module"] == "setmap" and rows[0]["trials"] == 2
        assert expcli.read_record(rec_path)["spec"]["trials"] == 2

        assert expcli.main(["replay", str(rec_path)]) == 0
        assert json.loads(capsys.readouterr().out)["match"] is True

        # --op came with the first call only
        with pytest.raises(SystemExit) as exc:
            expcli.main(["bipfree", "--n", "30", "--p", "0.5"])
        assert exc.value.code == 2
        assert "--op" in capsys.readouterr().err
        assert len(built) == 1
        argv = ["bipfree", "--op", "count", "--n", "30"]
        assert vars(expcli._parser().parse_args(argv)) == \
            vars(build().parse_args(argv))
    finally:
        expcli._parser.cache_clear()


def test_main_spec_file_needs_module_and_operation(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"params": {"n": 6}}))
    assert expcli.main(["run", str(spec_path)]) == 2
    assert "module" in capsys.readouterr().err


def _assert_input_error(argv, capsys):
    assert expcli.main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "Traceback" not in captured.err + captured.out


def test_main_spec_file_must_be_an_object(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    for data in ([1, 2], "setmap", 3, None):
        _write_json(spec_path, data)
        _assert_input_error(["run", str(spec_path)], capsys)
    for bad in ({"params": [1]}, {"seed": None}, {"trials": "many"},
                {"out": 5}, {"seed": 1e999}, {"params": {"k": 1e999}},
                {"params": {"k": 2, "n": 6}, "sead": 5, "trails": 9},
                {"params": {"k": 2, "n": 6}, "preset": "paper"},
                {"op": "violate"}):
        _write_json(spec_path, {"module": "setmap", "operation": "violate",
                                **bad})
        _assert_input_error(["run", str(spec_path)], capsys)


def test_main_replay_and_report_reject_incomplete_records(tmp_path, capsys):
    path = tmp_path / "rec.json"
    expcli.run(ExperimentSpec("setmap", "violate", {"k": 2, "n": 6},
                              trials=2, out=str(path)))
    good = expcli.read_record(path)
    broken = tmp_path / "broken.json"
    for field in ("spec", "trials", "aggregate"):
        _write_json(broken, {k: v for k, v in good.items() if k != field})
        _assert_input_error(["replay", str(broken)], capsys)
        _assert_input_error(["report", str(broken)], capsys)
    for mutate in (lambda r: r["spec"].pop("seed"),
                   lambda r: r["aggregate"].pop("successes"),
                   lambda r: r["spec"].update(params=[1])):
        rec = json.loads(json.dumps(good))
        mutate(rec)
        _write_json(broken, rec)
        _assert_input_error(["replay", str(broken)], capsys)
        _assert_input_error(["report", str(broken)], capsys)
    _write_json(broken, [good])
    _assert_input_error(["replay", str(broken)], capsys)
    _assert_input_error(["report", str(broken)], capsys)
    rec = json.loads(json.dumps(good))
    rec["rng"]["algorithm"] = "other"
    _write_json(broken, rec)
    _assert_input_error(["replay", str(broken)], capsys)
    # schema 1 kept the preset in the spec
    rec = json.loads(json.dumps(good))
    rec["schema_version"] = 1
    rec["spec"]["preset"] = "desk"
    _write_json(broken, rec)
    _assert_input_error(["replay", str(broken)], capsys)
    _assert_input_error(["report", str(broken)], capsys)


def test_preset_is_a_parameter_of_weakseq_minor_alone(capsys):
    for key, spec in first_specs().items():
        argv = _cli_argv(spec) + ["--preset", "paper", "--dry-run"]
        try:
            code = expcli.main(argv)
        except SystemExit as exc:  # a module without the flag
            code = exc.code
        assert code == (0 if key == ("weakseq", "minor") else 2), key
    assert json.loads(capsys.readouterr().out)["params"]["preset"] == "paper"


def test_report_row_shows_the_preset(tmp_path, capsys):
    rows = []
    for preset in ("desk", "paper"):
        out = tmp_path / f"{preset}.json"
        expcli.main(["weakseq", "--op", "minor", "--n", "200", "--p", "0.7",
                     "--t", "3", "--preset", preset, "--out", str(out)])
        rows += expcli.report_rows([expcli.read_record(out)])
    capsys.readouterr()
    assert [r["params"] for r in rows] == [
        f"diameter_aware=1 n=200 p=0.7 preset={preset} r=2 retry_cap=50 t=3"
        for preset in ("desk", "paper")]


def test_main_exclusive_graph_sources(capsys):
    code = expcli.main(["bipfree", "--op", "count", "--n", "30", "--p", "0.5",
                        "--input", "somefile"])
    assert code == 2
    assert "not both" in capsys.readouterr().err


def test_main_fraction_with_zero_denominator_is_input_error(tmp_path,
                                                            capsys):
    _assert_input_error(["embed", "--op", "lemma", "--delta", "1/0"], capsys)
    spec_path = tmp_path / "spec.json"
    _write_json(spec_path, {"module": "embed", "operation": "drc",
                            "params": {"eps": "1/0"}})
    _assert_input_error(["run", str(spec_path)], capsys)


@pytest.mark.parametrize("eps", ["1e-10000000", "1e100000"])
def test_main_fraction_digits_are_bounded_before_the_fraction_is_built(
        eps, capsys):
    start = time.perf_counter()
    assert expcli.main(["embed", "--op", "drc", "--eps", eps]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == \
        "error: parameter 'eps': numerator or denominator over 1000 digits\n"
    # the bound admits what a record writes back: "p/q" with 1000 digits each
    top = "9" * 1000
    assert expcli._frac(f"{top}/{top[:-1]}8") == Fraction(int(top),
                                                          int(top) - 1)


@pytest.mark.parametrize("command", ["run", "replay", "report"])
def test_main_json_nested_too_deeply_is_an_input_error(command, tmp_path,
                                                       capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    _assert_input_error([command, str(path)], capsys)


@pytest.mark.parametrize("argv", [
    ["embed", "--op", "cube", "--d", "21"],
    ["embed", "--op", "lemma", "--d", "21"],
    ["embed", "--op", "pipeline", "--d", "21"],
    ["embed", "--op", "lemma", "--N", "3", "--k", "5"],
    ["bipfree", "--op", "kcheck", "--k", "3", "--n", "7"],
    ["bipfree", "--op", "kcheck", "--k", "3", "--n", "5"],
    ["bipfree", "--op", "kcheck", "--k", "5", "--n", "2", "--p", "0.5"],
    ["embed", "--op", "lemma", "--d", "4", "--k", "3"],
    ["embed", "--op", "lemma", "--N", "2000", "--k", "4"],
    ["embed", "--op", "lemma", "--N", "100000", "--k", "50000"],
    ["rsgraph", "--op", "decompose", "--N", "41", "--n", "2"],
    ["weakseq", "--op", "pipeline", "--n", "40", "--p", "0.5", "--r", "4",
     "--t", "50"],
], ids=["cube-d21", "lemma-d21", "pipeline-d21", "lemma-k-above-N",
        "kcheck-edge-guard", "kcheck-copy-bound", "kcheck-k5",
        "lemma-d-above-k", "lemma-top-level-guard", "lemma-huge-binomial",
        "decompose-vertex-cap", "pipeline-t-above-ktt"])
def test_main_parameter_guards_are_input_errors(argv, capsys):
    _assert_input_error(argv, capsys)


def test_main_draw_dependent_copy_bound_stays_a_trial_failure(tmp_path,
                                                              capsys):
    out = tmp_path / "rec.json"
    code = expcli.main(["bipfree", "--op", "kcheck", "--k", "3", "--n", "4",
                        "--p", "0.5", "--out", str(out)])
    assert code == 1
    capsys.readouterr()
    trial, = expcli.read_record(out)["trials"]
    assert trial["outcome"] == "error:GuardError"
    assert "copy bound" in trial["stats"]["error"]


def test_kcheck_sizes_past_desk_scale_never_build_the_instance(monkeypatch):
    def build(*args):
        raise AssertionError("kpartite_instance called")
    monkeypatch.setattr(expcli.bipfree, "kpartite_instance", build)
    for params in ({"k": 40}, {"r": 99}, {"n": 10 ** 9}):
        with pytest.raises(GuardError, match="desk scale"):
            expcli.validate_spec(ExperimentSpec("bipfree", "kcheck", params))


@pytest.mark.parametrize("argv", [
    ["bipfree", "--op", "extract", "--n", "20", "--p", "0.5", "--retry-cap",
     "0"],
    ["embed", "--op", "pipeline", "--drc-retry", "0"],
    ["embed", "--op", "pipeline", "--round-cap", "0"],
], ids=["extract-retry-cap", "pipeline-drc-retry", "pipeline-round-cap"])
def test_main_caps_must_be_positive(argv, capsys):
    assert expcli.main(argv) == 2
    assert "must be >= 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The op table drives the command line


def _cli_argv(spec: ExperimentSpec) -> list:
    argv = [spec.module, "--op", spec.operation]
    for name, value in spec.params.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    return argv + ["--seed", str(spec.seed), "--trials", str(spec.trials)]


def test_every_schema_parameter_is_a_flag():
    parser = expcli.build_parser()
    for key, spec in first_specs().items():
        resolved, _ = expcli.validate_spec(spec)
        for name, (cast, *_) in expcli.OPS[key].schema.items():
            # the flag carries the text; validation types it by the cast
            value = resolved[name]
            text = "3" if value is None else str(expcli.canonical(value))
            from_flags = expcli._spec_from_args(parser.parse_args(_cli_argv(
                dataclasses.replace(spec, params={**spec.params,
                                                  name: text}))))
            assert from_flags.params[name] == text, (key, name)
            if value is not None:
                assert expcli.validate_spec(from_flags)[0][name] \
                    == cast(text) == value, (key, name)


def test_flags_and_spec_file_give_the_same_dry_run(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    for spec in CORPUS.values():
        assert expcli.main(_cli_argv(spec) + ["--dry-run"]) == 0, spec
        from_flags = capsys.readouterr().out
        _write_json(spec_path, {"module": spec.module,
                                "operation": spec.operation,
                                "params": spec.params, "seed": spec.seed,
                                "trials": spec.trials})
        assert expcli.main(["run", str(spec_path), "--dry-run"]) == 0
        assert capsys.readouterr().out == from_flags, spec


def _readme_command_lines() -> list:
    """The argv of every ``exlab <module> ...`` line of README.md: code
    block lines, and backtick spans with their line wraps joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    blocks = re.findall(r"```[^\n]*\n(.*?)```", text, re.S)
    spans = re.findall(r"`([^`]+)`",
                       re.sub(r"```.*?```", "", text, flags=re.S))
    lines = [line for block in blocks for line in block.splitlines()]
    lines += [" ".join(span.split()) for span in spans]
    argvs = [shlex.split(line, comments=True) for line in lines
             if line.startswith("exlab ")]
    return [argv[1:] for argv in argvs if argv[1] in expcli.MODULES]


def test_readme_command_lines_parse(capsys):
    parser = expcli.build_parser()
    lines = _readme_command_lines()
    assert len(lines) >= 10
    stale = []
    for argv in lines:
        try:
            parser.parse_args(argv)
        except SystemExit:
            stale.append(shlex.join(argv))
    assert stale == []
