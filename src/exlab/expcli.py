"""Experiment orchestration, record persistence, and the command line.

An experiment names a module operation, a parameter map, a seed, and a
trial count.  Parameters are validated against the operation's
preconditions before anything runs, and an input file is parsed there,
once; each trial then takes that host and draws its own stream derived
from (seed, trial index), so trials are order-independent and a record
can be replayed bit-exactly.  Per-trial failures are recorded,
never thrown; the process exit code is 0 exactly when every trial met
its hard postcondition.

Records are JSON with an explicit schema version.  One JSON encoder,
covering the package's result types, writes records, forms stats and
params, and digests witnesses, so replay comparisons are byte-exact
without shipping full graphs.  The report command renders one row per
record, sorted by module then operation, as JSON, CSV, or a markdown
table.  The bench command times fixed workloads (see ``exlab.bench``).
A replayed record must carry this build's RNG algorithm name.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import importlib.util
import io
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii
from math import comb
from typing import Callable, Optional

from .core import (
    BipartiteGraph,
    EdgeColoring,
    Failure,
    Graph,
    GuardError,
    KUniformHypergraph,
    RngStream,
    complete_graph,
    hypercube,
    hypercube_guard,
    random_bipartite,
    random_coloring,
    random_graph,
    read_graph,
    vertex_count_guard,
)

SCHEMA_VERSION = 2


def _lazy(name: str):
    """The op module ``exlab.<name>``, whose body runs on first attribute
    access: building its dataclasses is most of the package's import time,
    and a command runs at most one op module."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


bipfree, lll_embed, removal, rsgraph, setmap, weakseq = map(
    _lazy, ("bipfree", "lll_embed", "removal", "rsgraph", "setmap", "weakseq"))


# ---------------------------------------------------------------------------
# Canonical serialization and digests


def canonical(obj):
    """JSON-safe, deterministic form of results, stats, and parameters:
    obj's encoder text read back.  Raises as ``digest`` does."""
    return json.loads(_encode(obj))


def _shallow(obj):
    """The encoder's ``default``: one level of obj's JSON form, for a type
    that is not None, a bool, int, float, str, list, tuple or dict.  Every
    dict it builds has str keys.  TypeError for a type without a form."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (set, frozenset)):
        return sorted(obj, key=_encode)
    if isinstance(obj, BipartiteGraph):
        # "n0": 0 keeps every RS-decomposition digest byte-identical
        return {"type": "BipartiteGraph", "n0": 0, "n1": obj.n1,
                "n2": obj.n2, "edges": obj.edges()}
    if isinstance(obj, Graph):
        return {"type": "Graph", "n": obj.n, "edges": obj.edges()}
    if isinstance(obj, KUniformHypergraph):
        return {"type": "KUniformHypergraph", "n": obj.n, "k": obj.k,
                "edges": sorted(sorted(e) for e in obj.edges)}
    if isinstance(obj, EdgeColoring):
        return {"type": "EdgeColoring", "graph": obj.graph,
                "r": obj.r, "colors": [[u, v, obj.color_of(u, v)]
                                       for u, v in obj.graph.edges()]}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"type": type(obj).__name__}
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if not callable(value):
                out[f.name] = value
        return out
    # after the dataclass branch, so that only lll_embed's own (plain-class)
    # witnesses load lll_embed
    if isinstance(obj, lll_embed.DownClosedHypergraph):
        return {"type": "DownClosedHypergraph", "N": obj.N, "k": obj.k,
                "deleted": sorted(sorted(t) for t in obj.deleted)}
    if isinstance(obj, lll_embed.TargetHypergraph):
        return {"type": "TargetHypergraph", "n": obj.n,
                "edges": sorted(sorted(e) for e in obj.edges)}
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


# the one C encoder, built once (``json.JSONEncoder.encode`` builds one per
# call): sorted keys, no spaces.  No circular check, whose marks a failed
# call would leave behind: a cycle raises RecursionError.
_encoder = c_make_encoder(None, _shallow, encode_basestring_ascii, None,
                          ":", ",", True, False, True)


def _encode(obj) -> str:
    return "".join(_encoder(obj, 0))


def digest(obj) -> str:
    """SHA-256 of obj's JSON from the compact C encoder: sorted keys, no
    spaces, and ``_shallow``'s form for every other type.  TypeError,
    ValueError or RecursionError for a witness the encoder refuses (a key
    that is not a str, int, float, bool or None, keys of types that do not
    sort together, an unknown type, a cycle, an int too long for text)."""
    return hashlib.sha256(_encode(obj).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Spec and record types


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: module operation, parameters, seed, trial count."""

    module: str
    operation: str
    params: dict
    seed: int = 0
    trials: int = 1
    out: Optional[str] = None


@dataclass(frozen=True)
class ExperimentRecord:
    """Spec echo, per-trial outcomes, and aggregates; JSON round-trippable.

    ``trials`` holds JSON-native dicts only, so equality of serialized
    trial lists is the replay-determinism check.
    """

    schema_version: int
    spec: dict
    rng: dict
    trials: list
    aggregate: dict
    wall_clock: float

    def to_dict(self) -> dict:
        return {"schema_version": self.schema_version, "spec": self.spec,
                "rng": self.rng, "trials": self.trials,
                "aggregate": self.aggregate, "wall_clock": self.wall_clock}


def write_record(record: ExperimentRecord, path) -> None:
    """One line per top-level field, in sorted order, and one compact line
    per trial; the parsed value is that of ``json.dumps(record.to_dict())``."""
    fields = []
    for name, value in sorted(record.to_dict().items()):
        if name == "trials":
            value = "[\n    " + ",\n    ".join(map(_encode, value)) + "\n  ]"
        else:
            value = _encode(value)
        fields.append(f'  "{name}": {value}')
    text = "{\n" + ",\n".join(fields) + "\n}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_record(path) -> dict:
    return _read_json(path)


def _read_json(path):
    """The JSON value in a spec or record file; ValueError, not
    RecursionError, when it nests too deeply to parse."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


_SPEC_FIELDS = ("module", "operation", "params", "seed", "trials")
_AGGREGATE_FIELDS = ("trials", "successes", "success_rate")


def _check_record(rec, source) -> "ExperimentSpec":
    """The spec a record echoes; ValueError unless the record has the
    current schema, every field that replay and report read, and one trial
    count: ``spec.trials``, ``aggregate.trials`` and the listed trials'."""
    if not isinstance(rec, dict):
        raise ValueError(f"record {source} is not a JSON object")
    version = rec.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"schema version mismatch in {source}: "
                         f"{version} != {SCHEMA_VERSION}")
    for name, kind in (("spec", dict), ("trials", list),
                       ("aggregate", dict)):
        if not isinstance(rec.get(name), kind):
            raise ValueError(f"record {source} has no {name!r} "
                             f"{'object' if kind is dict else 'list'}")
    missing = [f"spec.{f}" for f in _SPEC_FIELDS if f not in rec["spec"]]
    missing += [f"aggregate.{f}" for f in _AGGREGATE_FIELDS
                if f not in rec["aggregate"]]
    if missing:
        raise ValueError(f"record {source} lacks {', '.join(missing)}")
    spec = _spec_from_dict(rec["spec"], source)
    counts = (rec["aggregate"]["trials"], len(rec["trials"]))
    if any(type(c) is not int or c != spec.trials for c in counts):
        raise ValueError(f"record {source} has spec.trials {spec.trials}, "
                         f"aggregate.trials {counts[0]!r} and "
                         f"{counts[1]} listed trials")
    return spec


# ---------------------------------------------------------------------------
# Operation registry

_REQUIRED = object()


_FRAC_DIGITS = 1000


def _frac(x) -> Fraction:
    """x as a Fraction whose numerator and denominator have at most
    _FRAC_DIGITS digits, so that the "p/q" a record writes reads back.
    ``Fraction`` expands a decimal exponent in full, so one of more than
    four digits is refused before it runs; a longer digit string stops at
    CPython's int-to-text limit."""
    if isinstance(x, Fraction):
        return x
    exponent = str(x).lower().partition("e")[2].lstrip("+-")
    value = Fraction(str(x)) if len(exponent) <= 4 else None
    if value is None or max(abs(value.numerator),
                            value.denominator) >= 10 ** _FRAC_DIGITS:
        raise ValueError(f"numerator or denominator over {_FRAC_DIGITS} "
                         f"digits")
    return value


def _int(x) -> int:
    """An int, or decimal text that spells one exactly; a bool, a float or
    any other text is refused, so no value is truncated or read loosely."""
    if isinstance(x, str) and x.isascii() and x.removeprefix("-").isdigit():
        return int(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    raise ValueError(f"{x!r} is not an integer")


def _count(x) -> int:
    n = _int(x)
    if n < 1:
        raise ValueError(f"must be >= 1, got {n}")
    return n


def _prob(x) -> float:
    if isinstance(x, bool) or not 0 < float(x) <= 1:
        raise ValueError(f"edge probability {x} outside (0, 1]")
    return float(x)


@dataclass(frozen=True)
class OpDef:
    """Runner plus parameter schema {name: (cast, default[, help])} and checks.

    The schema is the only declaration of an operation's parameters: the
    command line offers each ``name`` as ``--name`` (underscores as dashes),
    described by the help of the module's first operation that declares
    ``name``.  ``cast`` types a flag's text and a spec file's JSON value
    alike, and refuses a value it would truncate or, for ``_count`` and
    ``_prob``, one out of range.  ``check`` guards the parameters and
    returns the operation's source, which maps a trial's stream to its host
    graph or grid, or None.  A runner takes ``(params, host, rng)``, host
    being the source's value or None, and returns ``(ok, outcome, witness,
    stats)`` or a ``Failure``, which the trial records as ``failure:<stage>``.
    """

    runner: Callable
    schema: dict
    check: Callable
    key_name: str


def _resolve_params(opdef: OpDef, params: dict) -> tuple:
    out = {}
    for name, value in params.items():
        if name not in opdef.schema:
            raise GuardError(f"unknown parameter {name!r}")
    for name, (cast, default, *_) in opdef.schema.items():
        if name in params and params[name] is not None:
            try:
                out[name] = cast(params[name])
            except (TypeError, ValueError, OverflowError,
                    ZeroDivisionError) as exc:
                raise GuardError(f"parameter {name!r}: {exc}") from None
        elif default is _REQUIRED:
            raise GuardError(f"missing required parameter {name!r}")
        else:
            out[name] = default
    return out, opdef.check(out)


def _random_source(params: dict, file: str, names: tuple) -> bool:
    """Whether the random source (parameters ``names``) is given;
    GuardError unless exactly one of it and the file parameter is."""
    given = [params.get(name) is not None for name in names]
    file_flag = "--" + file.replace("_", "-")
    flags = " ".join(f"--{name} {name.upper()}" for name in names)
    if params.get(file) is not None and any(given):
        raise GuardError(f"give either {file_flag} or {flags}, not both")
    if params.get(file) is None and not all(given):
        raise GuardError(f"need {file_flag} FILE or {flags}")
    return params.get(file) is None


def _graph_source_check(params: dict) -> tuple:
    """The host's vertex count n, edge count m and source: guard the random
    host's size, or parse the input file, so that a missing or malformed
    file is invalid input and the op's guards see the file's counts.  The
    source gives every trial that one parsed graph, or a G(n, p) drawn from
    the trial's stream, whose m is None here: it depends on the draw."""
    if _random_source(params, "input", ("n", "p")):
        n, p = params["n"], params["p"]
        vertex_count_guard(n)
        return n, None, lambda rng: random_graph(n, p, rng.derive("host"))
    G = read_graph(params["input"])
    return G.n, G.m, lambda rng: G


def _edges_check(m) -> None:
    """GuardError on a host file without edges, which both weakseq
    pipelines refuse; a random host (m None) is checked in the trial."""
    if m == 0:
        raise GuardError("G has no edges")


# --- setmap ----------------------------------------------------------------

_SETMAP_VARIANTS = ("full_factorial", "lexicographic", "caro2", "caro3")


def _setmap_build(params: dict):
    variant = params["variant"]
    if variant.startswith("caro"):
        return setmap.caro_map(params["n"], int(variant[-1]))
    return setmap.eh_map(params["n"], params["k"], variant)


def _setmap_ground(params: dict) -> int:
    """The ground-set size of the mapping the parameters build."""
    if params["variant"] in ("caro2", "caro3"):
        return setmap.caro_map_guard(params["n"], int(params["variant"][-1]))
    return setmap.eh_map_guard(params["n"], params["k"], params["variant"])


def _setmap_check(params: dict) -> None:
    _setmap_ground(params)


def _setmap_oracle_check(params: dict) -> None:
    setmap.free_set_oracle_guard(params["mode"], _setmap_ground(params),
                                 params["budget"])


def _run_setmap_construct(params, host, rng):
    f = _setmap_build(params)
    stats = {"kind": f.kind, "ground": len(f.points), "k": f.k, "l": f.l,
             "overlap": f.overlap, "side": f.side, "key": len(f.points)}
    return True, "mapping", f, stats


def _run_setmap_violate(params, host, rng):
    f = _setmap_build(params)
    size = params["size"]
    if size is None:
        # default: just above the guaranteed free-set threshold
        size = f.k * f.k * f.side + 1 if f.kind == "eh" \
            else len(f.points) - 2
    size = min(size, len(f.points))
    region = rng.sample(sorted(f.points), size)
    finder = setmap.eh_violator if f.kind == "eh" else setmap.caro_violator
    vio = finder(f, region)
    stats = {"size": size, "found": vio is not None, "key": int(vio is not None)}
    return True, "violation" if vio else "none", vio, stats


def _run_setmap_oracle(params, host, rng):
    f = _setmap_build(params)
    res = setmap.free_set_oracle(f, params["mode"], params["budget"])
    stats = {"size": res.size, "upper": res.upper, "exact": res.exact,
             "nodes": res.nodes, "key": res.size}
    return True, "exact" if res.exact else "bracket", res, stats


# --- bipfree ---------------------------------------------------------------


def _bipfree_check(params: dict) -> Callable:
    _, m, host = _graph_source_check(params)
    # a random host's m is drawn in the trial, so only r is checked here
    bipfree.graph_copy_guard(m or 0, params["r"])
    return host


def _run_bipfree_count(params, G, rng):
    count = bipfree.count_pattern(G, params["r"])
    ok = params["r"] != 2 or count <= 2 * G.m * G.m
    stats = {"n": G.n, "m": G.m, "count": count, "key": count}
    return ok, "count", None, stats


def _run_bipfree_extract(params, G, rng):
    res = bipfree.extract_free(G, params["r"], rng.derive("extract"),
                               params["retry_cap"])
    if isinstance(res, Failure):
        return res
    size = res.subgraph.m
    floor = res.target_size
    ok = size >= floor
    stats = {"m": G.m, "size": size, "floor": floor,
             "rounds": res.trials_used,
             "key": size / max(floor, 1)}
    return ok, "extracted", res, stats


def _bipfree_tight_check(params: dict) -> None:
    bipfree.zarankiewicz_oracle_guard(*bipfree.tight_instance_guard(
        params["r"], params["s"], params["m"]))


def _run_bipfree_tight(params, host, rng):
    inst = bipfree.tight_instance(params["r"], params["s"], params["m"])
    res = bipfree.zarankiewicz_oracle(inst, budget=params["budget"])
    stats = {"m": params["m"], "size": res.size, "upper": res.upper,
             "bound": inst.kst_bound(), "exact": res.exact,
             "nodes": res.nodes, "key": res.size}
    # the oracle's verifier holds the size to the counting bound
    return True, "exact" if res.exact else "bracket", res, stats


def _bipfree_kcheck_check(params: dict) -> None:
    k, r = params["k"], params["r"]
    m = bipfree.kpartite_instance_guard(k, r, params["n"])
    if params["p"] == 1:  # below 1 the copy bound depends on the draw
        bipfree.hyper_copy_guard(k, m, r)


def _run_bipfree_kcheck(params, host, rng):
    inst = bipfree.kpartite_instance(params["k"], params["r"], params["n"])
    H = inst.hypergraph
    if params["p"] < 1:
        sub = rng.derive("sub")
        kept = [e for e in sorted(H.edges, key=sorted)
                if sub.random() < params["p"]]
        H = KUniformHypergraph(H.n, H.k, kept)
    chk = bipfree.kpartite_count_check(H, inst.parts, params["r"])
    stats = {"count": chk.count, "bound": chk.bound,
             "proof_bound": chk.proof_bound, "passed": chk.passed,
             "proof_passed": chk.proof_passed, "key": chk.count}
    return chk.passed, "checked", chk, stats


# --- embed -----------------------------------------------------------------


def _embed_lemma_check(params: dict) -> None:
    hypercube_guard(params["d"])
    lll_embed.random_dense_dch_guard(params["N"], params["k"],
                                     params["delta"])
    # the target's edges are cube neighbourhoods of d vertices
    lll_embed.resample_embed_guard(params["d"], params["k"])


def _run_embed_lemma(params, host, rng):
    H = lll_embed.neighborhood_hypergraph(hypercube(params["d"]))
    G = lll_embed.random_dense_dch(params["N"], params["k"], params["delta"],
                                   rng.derive("host"))
    res = lll_embed.resample_embed(H, G, rng.derive("embed"),
                                   params["round_cap"])
    if isinstance(res, Failure):
        return res
    return True, "embedded", res, {"rounds": res.rounds, "key": res.rounds}


def _drc_params(params: dict) -> lll_embed.DrcParams:
    return lll_embed.DrcParams(params["eps"], params["k"], params["b"],
                               params["n"])


def _embed_drc_check(params: dict) -> None:
    lll_embed.drc_subset_guard(params["N"], _drc_params(params))
    vertex_count_guard(2 * params["N"])  # the host is G(N, N, p)


def _run_embed_drc(params, host, rng):
    B = random_bipartite(params["N"], params["N"], params["p"],
                         rng.derive("host"))
    res = lll_embed.drc_subset(B, _drc_params(params), rng.derive("drc"),
                               params["retry_cap"])
    if isinstance(res, Failure):
        return res
    stats = {"u_size": len(res.U), "tries": res.tries,
             "bad_k_sets": res.bad_k_sets, "key": len(res.U)}
    return True, "subset", res, stats


def _embed_pipeline_check(params: dict) -> None:
    vertex_count_guard(params["N"])
    hypercube_guard(params["d"])


def _run_embed_pipeline(params, host, rng):
    col = random_coloring(complete_graph(params["N"]), 2, rng.derive("color"))
    res = lll_embed.bip_ramsey_pipeline(col, hypercube(params["d"]),
                                        rng.derive("pipe"),
                                        params["drc_retry"],
                                        params["round_cap"])
    if isinstance(res, Failure):
        return res
    stats = {"color": res.color, "drc_tries": res.drc_tries,
             "rounds": res.resample_rounds, "key": res.resample_rounds}
    return True, "embedded", res, stats


def _run_embed_cube(params, host, rng):
    H = lll_embed.neighborhood_hypergraph(hypercube(params["d"]))
    stats = {"n": H.n, "edges": len(H.edges), "key": len(H.edges)}
    return True, "target", H, stats


# --- weakseq ---------------------------------------------------------------


def _weakseq_check(params: dict) -> Callable:
    n, m, host = _graph_source_check(params)
    # an unset t becomes the regime order of the host, as in the trial: a
    # file's is known here, and a random host's is at least 1
    t = params["t"]
    if t is None:
        t = weakseq.regime2_order(n, Fraction(m, comb(n, 2)),
                                  params["r"]) if m else 1
    weakseq.weak_sequence_pipeline_guard(params["r"], t, n)
    _edges_check(m)
    return host


def _run_weakseq_pipeline(params, G, rng):
    t = params["t"] or weakseq.regime2_order(G.n, G.density(), params["r"])
    res = weakseq.weak_sequence_pipeline(G, params["r"], t, rng.derive("pipe"),
                                         params["retry_cap"])
    if isinstance(res, Failure):
        return res
    return True, "sequence", res, {"t": res.t, "r": res.r, "key": res.t}


def _run_weakseq_minor(params, G, rng):
    constants = weakseq.load_preset("desk")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = weakseq.minor_pipeline(G, params["r"], params["t"],
                                     rng.derive("pipe"), constants,
                                     bool(params["diameter_aware"]),
                                     params["retry_cap"])
    if isinstance(res, Failure):
        return res
    stats = {"t": len(res.branch_sets), "size_cap": res.size_cap,
             "diameter_cap": res.diameter_cap, "key": len(res.branch_sets)}
    return True, "minor", res, stats


def _weakseq_minor_check(params: dict) -> Callable:
    if params["diameter_aware"] not in (0, 1):
        raise GuardError(f"parameter 'diameter_aware': must be 0 or 1, got "
                         f"{params['diameter_aware']}")
    n, m, host = _graph_source_check(params)
    weakseq.minor_pipeline_guard(params["r"], params["t"], n)
    _edges_check(m)
    return host


def _weakseq_oracle_check(params: dict) -> Callable:
    n, _, host = _graph_source_check(params)
    weakseq.max_weak_sequence_order_guard(params["r"], n)
    return host


def _run_weakseq_oracle(params, G, rng):
    best = weakseq.max_weak_sequence_order(G, params["r"])
    return True, "oracle", None, {"best": best, "key": best}


# --- rsgraph ---------------------------------------------------------------


def _run_rsgraph_behrend(params, host, rng):
    res = rsgraph.behrend_set(params["N"])
    stats = dict(res.stats or {})
    stats.update({"size": len(res.elements), "key": len(res.elements)})
    return True, "ap_free", res, stats


def _rsgraph_construct_check(params: dict) -> None:
    rsgraph.rs_from_behrend_guard(params["N"], params["chunk"])


def _run_rsgraph_construct(params, host, rng):
    dec = rsgraph.rs_from_behrend(params["N"], params.get("chunk"))
    stats = {"n": dec.n, "t": dec.t, "m": dec.graph.m,
             "spanning": dec.spanning, "key": dec.t}
    return True, "decomposition", dec, stats


def _run_rsgraph_double(params, host, rng):
    dec = rsgraph.rs_from_behrend(params["N"], params.get("chunk"))
    dd = rsgraph.bipartite_double(dec.graph, dec)
    stats = {"n": dd.n, "t": dd.t, "m": dd.graph.m, "key": dd.t}
    return True, "doubled", dd, stats


def _run_rsgraph_decompose(params, host, rng):
    g = complete_graph(params["N"])
    res = rsgraph.greedy_decompose(g, params["n"], params.get("t"),
                                   params.get("budget"))
    if isinstance(res, Failure):
        return res
    if isinstance(res, rsgraph.FalsifyingColoring):
        stats = {"red_edges": len(res.red), "key": 0}
        return True, "falsified", res, stats
    return True, "decomposition", res, {"t": res.t, "n": res.n,
                                        "key": res.t}


def _rsgraph_decompose_check(params: dict) -> None:
    vertex_count_guard(params["N"])
    rsgraph.greedy_decompose_guard(params["N"], params["n"], params["t"],
                                   params["budget"])


def _rsgraph_arrow_check(params: dict) -> None:
    N = params["N"]
    # exhaustive mode colours the N(N-1)/2 edges of K_N
    rsgraph.arrow_check_guard(params["t"], params["n"], params["mode"],
                              N * (N - 1) // 2)
    if params["mode"] == "theorem":
        rsgraph.behrend_arrow_guard(N, params["t"], params["n"])


def _run_rsgraph_arrow(params, host, rng):
    if params["mode"] == "theorem":
        dec = rsgraph.rs_from_behrend(params["N"])
        dd = rsgraph.bipartite_double(dec.graph, dec)
        res = rsgraph.arrow_check(dd.graph, params["t"], params["n"],
                                  "theorem", dd)
    else:
        g = complete_graph(params["N"])
        res = rsgraph.arrow_check(g, params["t"], params["n"], "exhaustive")
    ok = res.verdict != "unknown"
    stats = dict(res.stats or {})
    stats["key"] = int(res.verdict == "arrows")
    return ok, res.verdict, res, stats


# --- removal ---------------------------------------------------------------


def _removal_check(params: dict) -> tuple:
    """The grid's side N, colour count r and source, as
    ``_graph_source_check`` gives a host's: guard the random grid, or parse
    the grid file once for all trials; the side guard applies to either."""
    if _random_source(params, "grid_file", ("N", "r")):
        N, r = params["N"], params["r"]
        removal.grid_cover_guard(N)
        removal.grid_coloring_guard(r)
        return N, r, lambda rng: removal.random_grid(N, r, rng.derive("grid"))
    gc = removal.read_grid(params["grid_file"])
    removal.grid_cover_guard(gc.N)
    return gc.N, gc.r, lambda rng: gc


def _removal_cover_check(params: dict) -> Callable:
    return _removal_check(params)[2]


def _removal_grid_check(params: dict) -> Callable:
    N, _, grid = _removal_check(params)
    removal.grid_pipeline_guard(N)
    return grid


def _removal_iterate_check(params: dict) -> Callable:
    _, r, grid = _removal_check(params)
    removal.removal_iterate_guard(r)
    return grid


def _run_removal_census(params, gc, rng):
    cover = removal.grid_cover(gc)
    per, total = removal.triangle_census(cover.coloring, cover.parts)
    stats = {"N": gc.N, "r": gc.r, "per_color": list(per), "total": total,
             "key": total}
    return True, "census", None, stats


def _run_removal_step(params, gc, rng):
    sp = removal.sparse_pair_step(removal.grid_cover(gc))
    stats = {"N": gc.N, "color": sp.color, "pair_size": len(sp.v1),
             "edges": sp.edges, "key": sp.edges}
    return True, "pair", sp, stats


def _run_removal_iterate(params, gc, rng):
    tr = removal.removal_iterate(removal.grid_cover(gc))
    stats = {"N": gc.N, "verdict": tr.verdict, "levels": len(tr.levels),
             "bound_met": tr.bound_met, "census": tr.stats["census"],
             "key": len(tr.levels)}
    return True, tr.verdict, tr, stats


def _run_removal_diamond(params, gc, rng):
    cover = removal.grid_cover(gc)
    dia = removal.diamond_find(cover.coloring, cover.parts)
    stats = {"N": gc.N, "found": dia is not None,
             "key": int(dia is not None)}
    return True, "diamond" if dia else "none", dia, stats


def _run_removal_grid(params, gc, rng):
    corner = removal.grid_pipeline(gc)
    stats = {"N": gc.N, "found": corner is not None,
             "key": int(corner is not None)}
    return True, "corner" if corner else "none", corner, stats


# --- registry ---------------------------------------------------------------

_SETMAP_BASE = {"k": (_int, 2), "n": (_int, _REQUIRED),
                "variant": (str, "full_factorial",
                            "one of " + ", ".join(_SETMAP_VARIANTS))}
_GRAPH_SRC = {"n": (_count, None), "p": (_prob, None),
              "input": (str, None, "edge-list graph file")}
_GRID_SRC = {"grid_file": (str, None, "grid coloring file"),
             "N": (_count, None, "random grid side"),
             "r": (_count, None, "random grid colors")}

OPS = {
    ("setmap", "construct"): OpDef(_run_setmap_construct, dict(_SETMAP_BASE),
                                   _setmap_check, "ground"),
    ("setmap", "violate"): OpDef(_run_setmap_violate,
                                 {**_SETMAP_BASE, "size": (
                                     _count, None, "sampled region size")},
                                 _setmap_check, "found"),
    ("setmap", "oracle"): OpDef(_run_setmap_oracle,
                                {**_SETMAP_BASE,
                                 "mode": (str, "disjoint",
                                          "disjoint or not_subset"),
                                 "budget": (_count, None)},
                                _setmap_oracle_check, "size"),
    ("bipfree", "count"): OpDef(_run_bipfree_count,
                                {**_GRAPH_SRC, "r": (_int, 2)},
                                _bipfree_check, "count"),
    ("bipfree", "extract"): OpDef(_run_bipfree_extract,
                                  {**_GRAPH_SRC, "r": (_int, 2),
                                   "retry_cap": (_count, 400)},
                                  _bipfree_check, "size_over_floor"),
    ("bipfree", "tight"): OpDef(_run_bipfree_tight,
                                {"r": (_int, 2), "s": (_int, 2),
                                 "m": (_int, _REQUIRED,
                                       "edge count of the tight instance"),
                                 "budget": (_count, None)},
                                _bipfree_tight_check, "size"),
    ("bipfree", "kcheck"): OpDef(_run_bipfree_kcheck,
                                 {"k": (_int, 2), "r": (_int, 2),
                                  "n": (_int, 2), "p": (_prob, 1.0)},
                                 _bipfree_kcheck_check, "count"),
    ("embed", "lemma"): OpDef(_run_embed_lemma,
                              {"N": (_int, 128), "k": (_int, 3),
                               "delta": (_frac, Fraction(9, 1000),
                                         "host deletion fraction, e.g. "
                                         "9/1000"),
                               "d": (_int, 3, "hypercube dimension"),
                               "round_cap": (_count, 10000)},
                              _embed_lemma_check, "rounds"),
    ("embed", "drc"): OpDef(_run_embed_drc,
                            {"N": (_int, 32), "p": (_prob, 0.75),
                             "eps": (_frac, Fraction(1, 2)),
                             "k": (_int, 2), "b": (_frac, Fraction(1, 1)),
                             "n": (_int, 2), "retry_cap": (_count, 200)},
                            _embed_drc_check, "u_size"),
    ("embed", "pipeline"): OpDef(_run_embed_pipeline,
                                 {"N": (_count, 512), "d": (_int, 3),
                                  "drc_retry": (_count, 200),
                                  "round_cap": (_count, 10000)},
                                 _embed_pipeline_check, "rounds"),
    ("embed", "cube"): OpDef(_run_embed_cube, {"d": (_int, 3)},
                             lambda p: hypercube_guard(p["d"]), "edges"),
    ("weakseq", "pipeline"): OpDef(_run_weakseq_pipeline,
                                   {**_GRAPH_SRC, "r": (_int, 4),
                                    "t": (_int, None),
                                    "retry_cap": (_count, 200)},
                                   _weakseq_check, "t"),
    ("weakseq", "minor"): OpDef(_run_weakseq_minor,
                                {**_GRAPH_SRC, "r": (_int, 2),
                                 "t": (_int, 4),
                                 "diameter_aware": (_int, 1),
                                 "retry_cap": (_count, 50)},
                                _weakseq_minor_check, "t"),
    ("weakseq", "oracle"): OpDef(_run_weakseq_oracle,
                                 {**_GRAPH_SRC, "r": (_int, 2)},
                                 _weakseq_oracle_check, "best"),
    ("rsgraph", "behrend"): OpDef(_run_rsgraph_behrend,
                                  {"N": (_int, _REQUIRED)},
                                  lambda p: rsgraph.behrend_set_guard(p["N"]),
                                  "size"),
    ("rsgraph", "construct"): OpDef(_run_rsgraph_construct,
                                    {"N": (_int, _REQUIRED),
                                     "chunk": (_int, None)},
                                    _rsgraph_construct_check, "t"),
    ("rsgraph", "double"): OpDef(_run_rsgraph_double,
                                 {"N": (_int, _REQUIRED),
                                  "chunk": (_int, None)},
                                 _rsgraph_construct_check, "t"),
    ("rsgraph", "decompose"): OpDef(_run_rsgraph_decompose,
                                    {"N": (_count, 4),
                                     "n": (_int, _REQUIRED),
                                     "t": (_int, None),
                                     "budget": (_count, None)},
                                    _rsgraph_decompose_check, "t"),
    ("rsgraph", "arrow"): OpDef(_run_rsgraph_arrow,
                                {"N": (_count, 4), "t": (_int, _REQUIRED),
                                 "n": (_int, _REQUIRED),
                                 "mode": (str, "exhaustive",
                                          "exhaustive or theorem")},
                                _rsgraph_arrow_check, "arrows"),
    ("removal", "census"): OpDef(_run_removal_census, dict(_GRID_SRC),
                                 _removal_cover_check, "total"),
    ("removal", "step"): OpDef(_run_removal_step, dict(_GRID_SRC),
                               _removal_cover_check, "edges"),
    ("removal", "iterate"): OpDef(_run_removal_iterate, dict(_GRID_SRC),
                                  _removal_iterate_check, "levels"),
    ("removal", "diamond"): OpDef(_run_removal_diamond, dict(_GRID_SRC),
                                  _removal_cover_check, "found"),
    ("removal", "grid"): OpDef(_run_removal_grid, dict(_GRID_SRC),
                               _removal_grid_check, "found"),
}

MODULES = tuple(sorted({m for m, _ in OPS}))


def destination_guard(path, what: str) -> None:
    """GuardError unless ``what`` can be written to ``path``: a writable
    file, or a new one in a writable directory.  Each command that writes
    a file checks it before any other work."""
    folder = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else folder
    if os.path.isdir(path) or not (os.path.isdir(folder)
                                   and os.access(target, os.W_OK)):
        raise GuardError(f"cannot write {what} to {path}")


MAX_TRIALS = 10 ** 5


def trial_count_guard(trials: int) -> None:
    """GuardError unless 1 <= trials <= MAX_TRIALS.  A run holds every
    trial's outcome until it writes the record in one piece, about 2.5 KB
    of peak memory and 200 bytes of record per trial, so the cap keeps a
    run near 250 MB and its record near 20 MB."""
    if not 1 <= trials <= MAX_TRIALS:
        raise GuardError(f"trial count must lie in 1..{MAX_TRIALS}, "
                         f"got {trials}")


def validate_spec(spec: ExperimentSpec) -> tuple:
    """The resolved parameters and the source that ``OpDef.check`` returns:
    resolve defaults and check preconditions, and that the record can be
    written (``destination_guard``); GuardError on any defect."""
    key = (spec.module, spec.operation)
    if key not in OPS:
        ops = sorted(op for m, op in OPS if m == spec.module)
        if ops:
            raise GuardError(f"unknown operation {spec.operation!r} for "
                             f"{spec.module}; choose from {ops}")
        raise GuardError(f"unknown module {spec.module!r}; choose from "
                         f"{list(MODULES)}")
    trial_count_guard(spec.trials)
    if spec.out:
        destination_guard(spec.out, "the record")
    return _resolve_params(OPS[key], spec.params)


# ---------------------------------------------------------------------------
# Execution


def _run_one_trial(runner: Callable, params: dict, source: Optional[Callable],
                   seed: int, index: int) -> dict:
    rng = RngStream(seed).derive("trial", index)
    try:
        res = runner(params, source and source(rng), rng)
        if isinstance(res, Failure):
            res = (False, f"failure:{res.stage}", res,
                   {"reason": res.reason, "key": 0})
        ok, outcome, witness, stats = res
        return {"trial": index, "ok": bool(ok), "outcome": outcome,
                "witness": digest(witness) if witness is not None else None,
                "stats": canonical(stats)}
    except Exception as exc:  # a failing trial is recorded, never lost,
        # also when its witness or stats cannot be serialized
        return {"trial": index, "ok": False,
                "outcome": f"error:{type(exc).__name__}", "witness": None,
                "stats": {"error": str(exc), "key": 0}}


def run(spec: ExperimentSpec) -> ExperimentRecord:
    """Validate, execute all trials, aggregate, and write the record."""
    params, source = validate_spec(spec)
    opdef = OPS[(spec.module, spec.operation)]
    t0 = time.perf_counter()
    trials = [_run_one_trial(opdef.runner, params, source, spec.seed, i)
              for i in range(spec.trials)]
    successes = sum(1 for t in trials if t["ok"])
    keys = [t["stats"]["key"] for t in trials
            if isinstance(t["stats"], dict)
            and isinstance(t["stats"].get("key"), (int, float))]
    aggregate = {"trials": spec.trials, "successes": successes,
                 "success_rate": successes / spec.trials,
                 "key_name": opdef.key_name}
    if keys:
        aggregate.update({"key_mean": sum(keys) / len(keys),
                          "key_min": min(keys), "key_max": max(keys)})
    record = ExperimentRecord(
        schema_version=SCHEMA_VERSION,
        spec={"module": spec.module, "operation": spec.operation,
              "params": canonical(params), "seed": spec.seed,
              "trials": spec.trials},
        rng={"algorithm": RngStream.ALGORITHM, "seed": spec.seed},
        trials=trials,
        aggregate=aggregate,
        wall_clock=time.perf_counter() - t0)
    if spec.out:
        write_record(record, spec.out)
    return record


def replay(path) -> tuple[bool, ExperimentRecord]:
    """Re-run a record's spec and compare per-trial outcomes byte-exactly.
    The re-run writes no record, whatever ``out`` the record's spec holds."""
    rec = read_record(path)
    spec = _check_record(rec, path)
    rng = rec.get("rng")
    algorithm = rng.get("algorithm") if isinstance(rng, dict) else None
    if algorithm != RngStream.ALGORITHM:
        raise ValueError(f"record {path} was drawn with RNG algorithm "
                         f"{algorithm!r}; this build replays "
                         f"{RngStream.ALGORITHM!r}")
    fresh = run(dataclasses.replace(spec, out=None))
    match = _encode(fresh.trials) == _encode(rec["trials"])
    return match, fresh


# the fields of a trial that a diverged replay names, in the order it checks
_TRIAL_FIELDS = ("outcome", "witness", "stats")


def first_difference(fresh: list, recorded: list) -> Optional[dict]:
    """``{"trial": i, "field": f}`` for the first trial i whose encoding
    differs between two trial lists, None when none does.  f is the first
    of ``outcome``, ``witness``, ``stats`` and then any other key whose
    value differs, or is absent on one side; None when the recorded trial
    is not an object."""
    for i, (new, old) in enumerate(zip(fresh, recorded)):
        if _encode(new) == _encode(old):
            continue
        field = None
        if isinstance(old, dict):
            # sorted keys: two objects that encode apart differ in a key
            field = next(k for k in (*_TRIAL_FIELDS, *new, *old)
                         if (k in new, _encode(new.get(k)))
                         != (k in old, _encode(old.get(k))))
        return {"trial": i, "field": field}
    return None


# ---------------------------------------------------------------------------
# Reporting

_REPORT_COLUMNS = ("module", "op", "params", "trials", "successes",
                   "success_rate", "key_name", "key_mean", "key_min",
                   "key_max")


def _record_row(rec: dict) -> dict:
    spec = rec["spec"]
    agg = rec["aggregate"]
    params = " ".join(f"{k}={v}" for k, v in sorted(spec["params"].items())
                      if v is not None)
    return {"module": spec["module"], "op": spec["operation"],
            "params": params, "trials": agg["trials"],
            "successes": agg["successes"],
            "success_rate": agg["success_rate"],
            "key_name": agg.get("key_name") or "",
            "key_mean": agg.get("key_mean", ""),
            "key_min": agg.get("key_min", ""),
            "key_max": agg.get("key_max", "")}


def report_rows(records, sources=None) -> list:
    """One row per record dict, sorted by module then operation.

    ``sources`` names the records in error messages (default: #index).
    """
    rows = []
    for i, rec in enumerate(records):
        _check_record(rec, sources[i] if sources else f"#{i}")
        rows.append(_record_row(rec))
    rows.sort(key=lambda r: (r["module"], r["op"], r["params"]))
    return rows


def render_report(rows, fmt: str) -> str:
    if fmt == "json":
        # row by row, because one indented dump of every row holds all its
        # chunks at once; the bytes are those of json.dumps(rows, indent=2)
        if not rows:
            return "[]"
        return "[\n" + ",\n".join(
            "  " + json.dumps(row, indent=2, sort_keys=True)
            .replace("\n", "\n  ") for row in rows) + "\n]"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_REPORT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "md":
        lines = ["| " + " | ".join(_REPORT_COLUMNS) + " |",
                 "|" + "|".join(" --- " for _ in _REPORT_COLUMNS) + "|"]
        for row in rows:
            lines.append("| " + " | ".join(str(row[c]) for c in
                                           _REPORT_COLUMNS) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def report(paths, fmt: str = "md") -> str:
    """Render a summary table for stored records; flags version mismatches.

    Records are read one at a time and only their summary rows are kept,
    so memory grows by one row per record, not by one record."""
    paths = list(paths)
    return render_report(report_rows(map(read_record, paths), paths), fmt)


# ---------------------------------------------------------------------------
# Command line


_MODULE_HELP = {
    "setmap": "set mappings and free-set violations",
    "bipfree": "pattern counting and free extraction",
    "embed": "resampled embeddings and Ramsey copies",
    "weakseq": "weak sequences and clique minors",
    "rsgraph": "AP-free sets and induced matchings",
    "removal": "triangle covers and grid corners",
}


def _module_params(module: str) -> dict:
    """{name: help} over the module's operations; the first operation to
    declare a parameter gives its help."""
    params = {}
    for (mod, _), opdef in OPS.items():
        if mod == module:
            for name, (_cast, _default, *text) in opdef.schema.items():
                params.setdefault(name, text[0] if text else None)
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exlab",
        description="Randomized extremal-combinatorics constructions with "
                    "independent verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    # copying a parent's actions into each module subcommand costs less
    # than adding them six times over, and each process still builds one
    # parser (``_parser``) before its first command
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", default=0)
    common.add_argument("--trials", default=1)
    common.add_argument("--out", help="record path (JSON)")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="stdout summary format")
    common.add_argument("--dry-run", action="store_true",
                        help="validate and print resolved parameters only")

    for module in MODULES:
        p = sub.add_parser(module, help=_MODULE_HELP[module],
                           parents=[common])
        p.add_argument("--op", required=True,
                       choices=[op for mod, op in OPS if mod == module])
        # untyped: the schema cast reads the text, as it reads spec files
        for name, text in _module_params(module).items():
            p.add_argument("--" + name.replace("_", "-"), help=text)

    p = sub.add_parser("run", help="execute a JSON experiment spec")
    p.add_argument("spec", help="spec file path")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--dry-run", action="store_true")

    p = sub.add_parser("replay", help="re-run a record and compare trials")
    p.add_argument("record", help="record file path")

    p = sub.add_parser("report", help="summarize stored records")
    p.add_argument("records", nargs="+", help="record file paths")
    p.add_argument("--format", choices=("json", "csv", "md"), default="md")
    p.add_argument("--out")

    p = sub.add_parser("bench", help="time the gate workloads, the README "
                                     "examples and the test suite")
    p.add_argument("out", help="result file, e.g. BENCH_10.json")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads with, built on its first call; parsing
    keeps no state, so one parser serves every call in the process."""
    return build_parser()


def _spec_from_args(args) -> ExperimentSpec:
    module = args.command
    params = {name: getattr(args, name) for name in _module_params(module)
              if getattr(args, name) is not None}
    return _spec_from_dict({"module": module, "operation": args.op,
                            "params": params, "seed": args.seed,
                            "trials": args.trials}, "the command line",
                           args.out)


def _spec_from_dict(data, source, out=None) -> ExperimentSpec:
    """Spec from a spec file's or a record's JSON; GuardError on bad types."""
    if not isinstance(data, dict):
        raise GuardError(f"spec in {source} must be a JSON object")
    unknown = sorted(set(data).difference(_SPEC_FIELDS, ["out"]))
    if unknown:
        raise GuardError(f"spec in {source} has unknown keys {unknown}")
    op = data.get("operation")
    if not isinstance(data.get("module"), str) or not isinstance(op, str):
        raise GuardError(f"spec in {source} needs 'module' and 'operation'")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise GuardError(f"spec in {source}: 'params' must be a JSON object")
    try:
        seed, trials = _int(data.get("seed", 0)), _int(data.get("trials", 1))
    except ValueError:
        raise GuardError(f"spec in {source}: 'seed' and 'trials' must be "
                         f"integers") from None
    out = out if out is not None else data.get("out")
    if out is not None and not isinstance(out, str):
        raise GuardError(f"spec in {source}: 'out' must be a path string")
    return ExperimentSpec(module=data["module"], operation=op,
                          params=dict(params), seed=seed, trials=trials,
                          out=out)


def _spec_from_file(path, out=None) -> ExperimentSpec:
    return _spec_from_dict(_read_json(path), path, out)


def _execute_spec(spec: ExperimentSpec, fmt: str, dry_run: bool) -> int:
    if dry_run:
        resolved, _ = validate_spec(spec)
        print(json.dumps({"module": spec.module, "operation": spec.operation,
                          "params": canonical(resolved), "seed": spec.seed,
                          "trials": spec.trials},
                         indent=2, sort_keys=True))
        return 0
    record = run(spec)
    print(render_report([_record_row(record.to_dict())],
                        "json" if fmt == "json" else "csv"), end="")
    if fmt == "json":
        print()
    if spec.out:
        print(f"record written to {spec.out}", file=sys.stderr)
    return 0 if all(t["ok"] for t in record.trials) else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command in MODULES:
            return _execute_spec(_spec_from_args(args), args.format,
                                 args.dry_run)
        if args.command == "run":
            spec = _spec_from_file(args.spec, args.out)
            return _execute_spec(spec, args.format, args.dry_run)
        if args.command == "replay":
            match, fresh = replay(args.record)
            line = {"match": match,
                    "successes": fresh.aggregate["successes"],
                    "trials": fresh.aggregate["trials"]}
            if not match:  # the record is read again only on a mismatch
                line["first_difference"] = first_difference(
                    fresh.trials, read_record(args.record)["trials"])
            print(json.dumps(line, sort_keys=True))
            return 0 if match and all(t["ok"] for t in fresh.trials) else 1
        if args.command == "report":
            if args.out:
                destination_guard(args.out, "the report")
            text = report(args.records, args.format)
            print(text, end="" if text.endswith("\n") else "\n")
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            return 0
        if args.command == "bench":
            from . import bench  # imported here to keep start-up light
            return bench.main(args.out)
    except (GuardError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
