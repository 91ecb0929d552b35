"""Every parameter precondition is checked once, before any trial runs.

The sweep takes each operation's first record-corpus spec and sets one int
parameter of the operation at a time to 0, -1 and 13, running one trial.
Each spec must either fail validation (``GuardError``, exit 2 on the
command line) or record trials whose outcome is ``ok``-labelled or
``failure:<stage>``; an ``error:*`` trial is allowed only where
``ALLOWED_ERRORS`` gives the reason.  At 100000 the spec is only
validated, and the parameters in ``REJECTED_AT_100000`` must be refused
there: those sizes would run for minutes or exhaust memory.  The order t
of the weakseq operations has no cap of its own: 2rt <= n refuses it at
100000, and at 13 it runs, its K_{t,t} search bounded by a work budget.
A second sweep sets each retry or round cap to 1 on every corpus spec that
takes it, at the spec's seed and seeds 0-2: a loop that runs out of tries
records ``failure:<stage>``.

The layering check keeps each precondition behind its own module:
``expcli`` may call a library guard, but reads no library bound and calls
no private library function.
"""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from exlab import expcli
from exlab.core import GuardError
from test_record_corpus import CORPUS, first_specs

_COPY_BOUND = "the copy bound 2*m^r depends on the drawn edge count m"
_CHUNK = "chunk is bounded by the size of the progression-free set, known " \
         "once the set is built"
ALLOWED_ERRORS = {
    ("bipfree", "count", "r", 13): _COPY_BOUND,
    ("bipfree", "extract", "r", 13): _COPY_BOUND,
    ("rsgraph", "construct", "chunk", 13): _CHUNK,
    ("rsgraph", "double", "chunk", 13): _CHUNK,
    ("weakseq", "pipeline", "r", 13):
        "with t unset, t is the regime order of the drawn host's density",
}

REJECTED_AT_100000 = {
    ("setmap", "construct"): ("k", "n"),
    ("setmap", "violate"): ("k", "n"),
    ("setmap", "oracle"): ("n",),
    ("bipfree", "count"): ("n",),
    ("bipfree", "extract"): ("n",),
    ("bipfree", "tight"): ("r", "m"),
    ("bipfree", "kcheck"): ("k", "r", "n"),
    ("embed", "lemma"): ("N", "k", "d"),
    ("embed", "drc"): ("N", "k", "n"),
    ("embed", "pipeline"): ("N", "d"),
    ("embed", "cube"): ("d",),
    ("weakseq", "pipeline"): ("n", "r", "t"),
    ("weakseq", "minor"): ("n", "t"),
    ("weakseq", "oracle"): ("n",),
    ("rsgraph", "construct"): ("N",),
    ("rsgraph", "double"): ("N",),
    ("rsgraph", "decompose"): ("N",),
    ("rsgraph", "arrow"): ("N",),
    ("removal", "census"): ("N",),
    ("removal", "step"): ("N",),
    ("removal", "iterate"): ("N", "r"),
    ("removal", "diamond"): ("N",),
    ("removal", "grid"): ("N",),
}


def _int_params(key) -> list:
    return [name for name, (cast, *_) in expcli.OPS[key].schema.items()
            if cast in (expcli._int, expcli._count)]


# the (operation, int parameter) pairs the sweep reaches; a renamed cast
# would shrink the sweep without failing it
SWEPT_PAIRS = 66


def _with(spec, name, value):
    return dataclasses.replace(spec, params={**spec.params, name: value},
                               trials=1)


# t has no cap of its own: 2rt <= n and the work budget of find_ktt bound
# it, so these run at 13 on the corpus hosts
ADMITTED_AT_13 = {("weakseq", "pipeline", "t"), ("weakseq", "minor", "t")}


def test_sweep_exits_two_or_records_clean_trials():
    first = first_specs()
    assert sum(len(_int_params(key)) for key in expcli.OPS) == SWEPT_PAIRS
    errors = {}
    ran = set()
    for key in expcli.OPS:
        for name in _int_params(key):
            for value in (0, -1, 13):
                try:
                    rec = expcli.run(_with(first[key], name, value))
                except GuardError:
                    continue
                ran.add((*key, name, value))
                trial, = rec.trials
                if trial["outcome"].startswith("error:"):
                    errors[(*key, name, value)] = trial["stats"]["error"]
    unexplained = {case: msg for case, msg in errors.items()
                   if case not in ALLOWED_ERRORS}
    assert not unexplained
    assert {(*case, 13) for case in ADMITTED_AT_13} <= ran


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exhausted_caps_record_failures_not_errors():
    outcomes = [expcli.run(dataclasses.replace(_with(spec, cap, 1), seed=seed))
                .trials[0]["outcome"] for spec in CORPUS.values()
                for cap in ("retry_cap", "round_cap", "drc_retry")
                if cap in expcli.OPS[(spec.module, spec.operation)].schema
                for seed in {spec.seed, 0, 1, 2}]
    assert [o for o in outcomes if o.startswith("error:")] == []
    assert {"failure:bipartition", "failure:drc_subset",
            "failure:extract_free"} <= set(outcomes)


def test_sizes_past_every_cap_are_rejected_before_running():
    first = first_specs()
    assert set(REJECTED_AT_100000) <= set(expcli.OPS)
    for key, names in REJECTED_AT_100000.items():
        for name in names:
            assert name in _int_params(key), (key, name)
            with pytest.raises(GuardError):
                expcli.validate_spec(_with(first[key], name, 100000))


_LIBRARY = {"core", "setmap", "bipfree", "lll_embed", "weakseq", "rsgraph",
            "removal"}


def _internal(name: str) -> bool:
    """A private name or a module constant such as MAX_TOP_LEVEL."""
    return name.startswith("_") or re.fullmatch(r"[A-Z][A-Z0-9_]*",
                                                name) is not None


def library_internals_used(source: str) -> list:
    """Library bounds and private library names that ``source`` reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module in _LIBRARY:
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if _internal(alias.name)]
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in _LIBRARY and _internal(node.attr)):
            found.append(f"{node.value.id}.{node.attr} "
                         f"(line {node.lineno})")
    return found


def test_expcli_reads_no_library_bound_or_private_function():
    source = Path(expcli.__file__).read_text(encoding="utf-8")
    assert library_internals_used(source) == []
    # the check itself sees both kinds of reference
    assert library_internals_used(
        "from .core import MAX_HYPERCUBE_DIM\n"
        "lll_embed.MAX_TOP_LEVEL\n"
        "bipfree._hyper_copy_guard(H, r)\n") == [
        "core.MAX_HYPERCUBE_DIM", "lll_embed.MAX_TOP_LEVEL (line 2)",
        "bipfree._hyper_copy_guard (line 3)"]
