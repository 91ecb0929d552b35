"""Layer tracing from outside the package.

``Tracer.install()`` replaces every public module-level function of the
exlab layers with a timing wrapper, in every exlab namespace that holds a
reference to it (``from .core import random_graph`` copies the reference
into the importing module, and an unpatched copy would go silently
untimed).  Each call appends one span ``(function id, start, end, parent
span, outermost)`` to an in-memory list; nothing is written until
``write_spans`` runs at the end of the benchmark.

While installed, the tracer also

* registers every ``RngStream`` that is constructed, so the summed stream
  positions give the exact number of RNG calls;
* reads retry and round counts off the return values of the functions
  that report them;
* counts the ``RuntimeWarning``s each layer issues, including those a
  caller silences with ``warnings.catch_warnings``.

``uninstall()`` restores every patched reference.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import warnings
from collections import defaultdict

LAYERS = ("core", "setmap", "bipfree", "lll_embed", "weakseq", "rsgraph",
          "removal", "expcli")

# Tiny hot helpers: a span would cost more than the work it times.
SKIP = {("core", "iter_bits"), ("core", "mask_of"), ("expcli", "canonical")}


def _tries(res):
    return getattr(res, "tries", None)


def _rounds(res):
    rounds = getattr(res, "rounds", None)
    if rounds is None:  # a Failure carries its round count in stats
        rounds = (getattr(res, "stats", None) or {}).get("rounds")
    return rounds


# (layer, function) -> (counter, reader of the count from (result, args))
COUNTERS = {
    ("weakseq", "cover_partition"): ("weakseq.cover_tries",
                                     lambda res, args: _tries(res)),
    ("core", "random_equitable_bipartition"): ("weakseq.bipartition_tries",
                                               lambda res, args: _tries(res)),
    ("lll_embed", "resample_embed"): ("lll_embed.resample_rounds",
                                      lambda res, args: _rounds(res)),
    ("lll_embed", "drc_subset"): ("lll_embed.drc_tries",
                                  lambda res, args: _tries(res)),
    ("bipfree", "extract_free"): ("bipfree.extract_rounds",
                                  lambda res, args: res.trials_used),
    ("setmap", "free_set_oracle"): ("setmap.oracle_nodes",
                                    lambda res, args: res.nodes),
    ("expcli", "write_record"): ("expcli.record_bytes",
                                 lambda res, args: os.path.getsize(args[1])),
}


class _WarningsProxy:
    """Stands in for the ``warnings`` module inside one layer module."""

    def __init__(self, layer: str, counts: dict):
        self._layer = layer
        self._counts = counts

    def warn(self, message, category=None, stacklevel=1, source=None):
        if category is None:
            category = type(message) if isinstance(message, Warning) \
                else UserWarning
        if issubclass(category, RuntimeWarning):
            self._counts[self._layer] += 1
        warnings.warn(message, category, stacklevel + 1, source)

    def __getattr__(self, name):
        return getattr(warnings, name)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = []          # function id -> (layer, function name)
        self.spans = []          # (fid, start, end, parent index, outermost)
        self.counters = defaultdict(int)
        self.warnings = defaultdict(int)
        self.streams = []
        self._patches = []       # (namespace, attribute, original)
        self._stack = []         # indices of open spans
        self._depth = defaultdict(int)  # open calls per function id

    # -- installation -----------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix
                                      or name.startswith(prefix + "."))]

    def _patch(self, namespace, attr, value):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package.__name__}.{layer}"]
            for name, fn in vars(module).items():
                if (name.startswith("_") or (layer, name) in SKIP
                        or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrappers[id(fn)] = self._wrap(layer, name, fn)
            if getattr(module, "warnings", None) is warnings:
                self._patch(module, "warnings",
                            _WarningsProxy(layer, self.warnings))
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patch(module, attr, wrapper)

        stream_cls = self.package.core.RngStream
        original_init = stream_cls.__init__
        streams = self.streams

        def init(stream, *args, **kwargs):
            original_init(stream, *args, **kwargs)
            streams.append(stream)

        self._patch(stream_cls, "__init__", init)

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def _wrap(self, layer: str, name: str, fn):
        fid = len(self.names)
        self.names.append((layer, name))
        spans = self.spans
        stack = self._stack
        depth = self._depth
        counter = COUNTERS.get((layer, name))
        counts = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            outermost = depth[fid] == 0
            depth[fid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[fid] -= 1
                stack.pop()
                spans[index] = (fid, start, end, parent, outermost)
            if counter is not None:
                amount = counter[1](result, args)
                if amount is not None:
                    counts[counter[0]] += amount
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def end_job(self) -> None:
        """Add the positions of the job's streams to ``core.rng_calls``."""
        self.counters["core.rng_calls"] += sum(s.position for s in self.streams)
        self.streams.clear()

    def summary(self) -> dict:
        """Inclusive seconds per function, self seconds and calls per layer.

        A layer's self time is the time during which the innermost open
        span belongs to that layer, so the self times of all layers sum to
        the time covered by root spans.  Inclusive time counts only the
        outermost call of a function, so recursion is not counted twice.
        """
        child = [0.0] * len(self.spans)
        for fid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive = defaultdict(float)
        calls = defaultdict(int)
        self_s = dict.fromkeys(LAYERS, 0.0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        covered = 0.0
        for i, (fid, start, end, parent, outermost) in enumerate(self.spans):
            layer, name = self.names[fid]
            dur = end - start
            calls[f"{layer}.{name}"] += 1
            layer_calls[layer] += 1
            if outermost:
                inclusive[f"{layer}.{name}"] += dur
            self_s[layer] += dur - child[i]
            if parent < 0:
                covered += dur
        return {"inclusive_s": dict(inclusive), "calls": dict(calls),
                "self_s": self_s, "layer_calls": layer_calls,
                "covered_s": covered}

    def write_spans(self, path) -> None:
        names = [f"{layer}.{name}" for layer, name in self.names]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "fields": ["function", "start", "end",
                                                  "parent", "outermost"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")
