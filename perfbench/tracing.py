"""Span tracing of dyuch from outside the package.

`install` replaces public functions and methods of the seven dyuch modules
with timing wrappers, in every namespace where callers look them up (a name
imported with `from .carleson import embedding_sum` is a separate binding in
`dyuch.extremal` and `dyuch.kernel`, so each binding gets its own wrapper).
Nothing under `src/` changes; `uninstall` puts the originals back.

A span is `[name, start, end, parent, item]`: `parent` is the index of the
enclosing span in the same list (-1 at top level) and `item` the work item
the benchmark was running.  Spans stay in memory and are written once, at
exit.  A layer's self time is the sum over its spans of the span's duration
minus the durations of its direct children.

Two hot paths are counted rather than spanned, because a span per call
would cost more than the call: `DyadicInterval` construction (hundreds of
thousands per search call) and the `lru_cache`d
`kernel.normalized_testing_value`, read through `cache_info()` deltas.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import Counter

LAYERS = ("dyadic", "martingale", "carleson", "bellman", "kernel", "extremal", "cli")


def _validating(position):
    # `validate` is the argument at `position` (counting self) and defaults to True
    def when(args, kwargs):
        if "validate" in kwargs:
            return bool(kwargs["validate"])
        return bool(args[position]) if len(args) > position else True
    return when


def _pyramid_unbuilt(args, kwargs):
    return args[0]._pyramid is None


# (module, attribute, span name, counter fed from the result)
FUNCTIONS = (
    ("dyuch.dyadic", "tree_from_json", "dyadic.tree_from_json", None),
    ("dyuch.martingale", "s0", "martingale.s0", None),
    ("dyuch.martingale", "analytic_projection", "martingale.analytic_projection", None),
    ("dyuch.carleson", "measure_from_json", "carleson.measure_from_json", None),
    ("dyuch.carleson", "embedding_sum", "carleson.embedding_sum", None),
    ("dyuch.carleson", "embedding_slack", "carleson.embedding_slack", None),
    ("dyuch.carleson", "weighted_embedding_slack", "carleson.weighted_embedding_slack", None),
    ("dyuch.carleson", "telescoped_weighted_slack", "carleson.telescoped_weighted_slack", None),
    ("dyuch.carleson", "bellman_chain_slacks", "carleson.bellman_chain_slacks", None),
    ("dyuch.bellman", "laplacian_step_gap", "bellman.step_gap", None),
    ("dyuch.bellman", "dynamics_gap", "bellman.step_gap", None),
    ("dyuch.bellman", "verify_sliced_psd", "bellman.verify_sliced_psd",
     ("bellman.psd_samples", lambda rep: rep.samples)),
    ("dyuch.bellman", "scan_unsliced", "bellman.scan_unsliced",
     ("bellman.scan_points", lambda out: out[1]["checked"])),
    ("dyuch.kernel", "testing_constant", "kernel.testing_constant", None),
    ("dyuch.kernel", "testing_to_packing", "kernel.testing_to_packing", None),
    ("dyuch.kernel", "testing_embedding_slack", "kernel.testing_embedding_slack", None),
    ("dyuch.extremal", "search", "extremal.search", None),
    ("dyuch.cli", "main", "cli.main", None),
    ("dyuch.cli", "_load_pair", "cli.load", None),
    ("dyuch.cli", "_load_measure", "cli.load", None),
    ("dyuch.cli", "_dump", "cli.report", None),
    ("dyuch.cli", "_write_text", "cli.report", None),
)

# (module, class, method, span name, condition for opening a span)
METHODS = (
    ("dyuch.dyadic", "PiecewiseConstant", "pyramid", "dyadic.pyramid", _pyramid_unbuilt),
    ("dyuch.martingale", "SlicedMartingale", "__init__", "martingale.validate", _validating(2)),
    ("dyuch.martingale", "DyadicAnalytic", "__init__", "martingale.validate", _validating(3)),
    ("dyuch.carleson", "DiscreteMeasure", "__init__", "carleson.measure_build", None),
    ("dyuch.carleson", "DiscreteMeasure", "packing_intensity", "carleson.packing", None),
    ("dyuch.carleson", "DiscreteMeasure", "balance_residual", "carleson.balance", None),
    ("dyuch.extremal", "Configuration", "build", "extremal.build", None),
)


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.item = None
        self._stack = []
        self._restore = []

    def record(self, name, start, end):
        """Add a finished top-level span measured by the caller."""
        self.spans.append([name, start, end, -1, self.item])

    def wrap(self, name, fn, when=None, counter=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _set(self, owner, attribute, value):
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self):
        """Wrap every traced name where dyuch's modules and package look it up."""
        modules = [importlib.import_module("dyuch")]
        modules += [importlib.import_module(f"dyuch.{layer}") for layer in LAYERS]
        cli = importlib.import_module("dyuch.cli")
        functions = list(FUNCTIONS)
        functions += [
            ("dyuch.cli", attr, "cli.command", None)
            for attr in sorted(vars(cli)) if attr.startswith("_cmd_")
        ]
        for module_name, attribute, name, counter in functions:
            original = getattr(importlib.import_module(module_name), attribute)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is not original:
                        continue
                    site_counter = counter
                    if name == "carleson.embedding_sum" and module.__name__ == "dyuch.extremal":
                        site_counter = ("extremal.evaluations", lambda _: 1)
                    self._set(module, key, self.wrap(name, original, counter=site_counter))
        for module_name, class_name, method, name, when in METHODS:
            owner = getattr(importlib.import_module(module_name), class_name)
            raw = owner.__dict__[method]
            if isinstance(raw, classmethod):
                self._set(owner, method, classmethod(self.wrap(name, raw.__func__, when)))
            else:
                self._set(owner, method, self.wrap(name, raw, when))
        interval = importlib.import_module("dyuch.dyadic").DyadicInterval
        self._set(interval, "__post_init__", self.count_calls(
            "dyadic.interval_constructions", interval.__dict__["__post_init__"]))

    def uninstall(self):
        while self._restore:
            owner, attribute, value = self._restore.pop()
            setattr(owner, attribute, value)

    def kernel_cache(self):
        """Current (hits, misses, entries) of the kernel's testing-value cache."""
        info = importlib.import_module("dyuch.kernel").normalized_testing_value.cache_info()
        return info.hits, info.misses, info.currsize

    def add_cache_delta(self, before, after):
        for key, old, new in zip(("hits", "misses", "entries"), before, after):
            self.counts[f"kernel.cache_{key}"] += new - old

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def summarize(spans, counts, begin=0):
    """Raw per-name and per-layer totals of the pass held in `spans[begin:]`.

    `time` sums span durations per name, skipping spans nested inside a span
    of the same name (recursion, or one validating constructor inside
    another), so no interval is counted twice; `self` sums self time per
    name and per layer.  A pass starts at top level, so its spans' parents
    all lie in `spans[begin:]`.
    """
    child = Counter()
    for _, start, end, parent, _ in spans[begin:]:
        if parent >= 0:
            child[parent] += end - start
    raw = {"time": Counter(), "calls": Counter(), "self": Counter(), "counts": Counter(counts)}
    for i in range(begin, len(spans)):
        name, start, end, parent, _ = spans[i]
        duration = end - start
        own = duration - child[i]
        raw["self"][name] += own
        raw["self"][name.split(".")[0]] += own
        raw["calls"][name] += 1
        above = parent
        while above >= 0 and spans[above][0] != name:
            above = spans[above][3]
        if above < 0:
            raw["time"][name] += duration
    return raw


def merge(raws):
    out = {"time": Counter(), "calls": Counter(), "self": Counter(), "counts": Counter()}
    for raw in raws:
        for key in out:
            out[key].update(raw[key])
    return out


def _rate(numerator, seconds):
    return numerator / seconds if seconds > 0 else 0.0


def _share(part, whole):
    return part / whole if whole > 0 else 0.0


# name, unit, better, value from one pass's raw totals
PER_LAYER = (
    ("dyadic.interval_constructions", "count", "lower",
     lambda r: r["counts"]["dyadic.interval_constructions"]),
    ("dyadic.pyramid_s", "s", "lower", lambda r: r["time"]["dyadic.pyramid"]),
    ("dyadic.tree_from_json_s", "s", "lower", lambda r: r["time"]["dyadic.tree_from_json"]),
    ("dyadic.self_s", "s", "lower", lambda r: r["self"]["dyadic"]),
    ("martingale.validate_s", "s", "lower", lambda r: r["time"]["martingale.validate"]),
    ("martingale.projection_s", "s", "lower",
     lambda r: r["time"]["martingale.analytic_projection"]),
    ("martingale.s0_s", "s", "lower", lambda r: r["time"]["martingale.s0"]),
    ("martingale.s0_calls", "count", "lower", lambda r: r["calls"]["martingale.s0"]),
    ("martingale.self_s", "s", "lower", lambda r: r["self"]["martingale"]),
    ("carleson.measure_builds", "count", "lower", lambda r: r["calls"]["carleson.measure_build"]),
    ("carleson.measure_build_s", "s", "lower", lambda r: r["time"]["carleson.measure_build"]),
    ("carleson.packing_s", "s", "lower", lambda r: r["time"]["carleson.packing"]),
    ("carleson.balance_s", "s", "lower", lambda r: r["time"]["carleson.balance"]),
    ("carleson.embedding_sum_calls", "count", "lower",
     lambda r: r["calls"]["carleson.embedding_sum"]),
    ("carleson.embedding_sum_s", "s", "lower", lambda r: r["time"]["carleson.embedding_sum"]),
    ("carleson.weighted_s", "s", "lower",
     lambda r: r["time"]["carleson.weighted_embedding_slack"]),
    ("carleson.telescope_s", "s", "lower",
     lambda r: r["time"]["carleson.telescoped_weighted_slack"]),
    ("carleson.chain_s", "s", "lower", lambda r: r["time"]["carleson.bellman_chain_slacks"]),
    ("carleson.self_s", "s", "lower", lambda r: r["self"]["carleson"]),
    ("bellman.step_gap_calls", "count", "lower", lambda r: r["calls"]["bellman.step_gap"]),
    ("bellman.step_gap_s", "s", "lower", lambda r: r["time"]["bellman.step_gap"]),
    ("bellman.verify_psd_s", "s", "lower", lambda r: r["time"]["bellman.verify_sliced_psd"]),
    ("bellman.psd_samples_per_s", "1/s", "higher",
     lambda r: _rate(r["counts"]["bellman.psd_samples"], r["time"]["bellman.verify_sliced_psd"])),
    ("bellman.scan_s", "s", "lower", lambda r: r["time"]["bellman.scan_unsliced"]),
    ("bellman.scan_points", "count", "lower", lambda r: r["counts"]["bellman.scan_points"]),
    ("bellman.self_s", "s", "lower", lambda r: r["self"]["bellman"]),
    ("kernel.testing_constant_s", "s", "lower", lambda r: r["time"]["kernel.testing_constant"]),
    ("kernel.testing_to_packing_s", "s", "lower",
     lambda r: r["time"]["kernel.testing_to_packing"]),
    ("kernel.cache_hits", "count", "higher", lambda r: r["counts"]["kernel.cache_hits"]),
    ("kernel.cache_misses", "count", "lower", lambda r: r["counts"]["kernel.cache_misses"]),
    ("kernel.cache_hit_ratio", "ratio", "higher",
     lambda r: _share(r["counts"]["kernel.cache_hits"],
                      r["counts"]["kernel.cache_hits"] + r["counts"]["kernel.cache_misses"])),
    ("kernel.cache_entries", "count", "lower", lambda r: r["counts"]["kernel.cache_entries"]),
    ("kernel.self_s", "s", "lower", lambda r: r["self"]["kernel"]),
    ("extremal.search_self_s", "s", "lower", lambda r: r["self"]["extremal.search"]),
    ("extremal.build_s", "s", "lower", lambda r: r["time"]["extremal.build"]),
    ("extremal.evaluations", "count", "lower", lambda r: r["counts"]["extremal.evaluations"]),
    ("extremal.self_s", "s", "lower", lambda r: r["self"]["extremal"]),
    ("cli.import_s", "s", "lower", lambda r: r["time"]["cli.import"]),
    ("cli.load_s", "s", "lower", lambda r: r["time"]["cli.load"]),
    ("cli.command_s", "s", "lower", lambda r: r["time"]["cli.command"]),
    ("cli.report_s", "s", "lower", lambda r: r["time"]["cli.report"]),
    ("cli.self_s", "s", "lower", lambda r: r["self"]["cli"]),
)
