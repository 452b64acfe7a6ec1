"""Outside-in tracing of ripplerec's public functions.

The benchmark records spans from its own process: it replaces each
public function named in ``TARGETS`` with a timing wrapper wherever the
package binds it (``from .core import load_params`` in ``cli`` makes a
second binding), runs the workload, and restores the originals.  Nothing
under ``src/`` knows it is being traced.

A span is ``[name, parent index, start, end]``.  A layer's self time is
its spans' durations minus the durations of their direct children; calls
run on one thread, so children never overlap.  Counters come from what
the public functions return (``BatchBags``, ``MetricReport``, ripple
sets) and from a ``logging`` handler on ``ripplerec.kg``.

A target that no longer exists is recorded as absent and the run goes
on, so the benchmark outlives refactors that fold or rename a function.
"""

from __future__ import annotations

import functools
import importlib
import logging
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from ripplerec.kg import NULL_RELATION

# (module, attribute) of every wrapped public function; "Class.method"
# wraps a method on the class.  Span names drop the "ripplerec." prefix.
TARGETS = [
    ("ripplerec.kg", "load_kg"),
    ("ripplerec.interactions", "binarize"),
    ("ripplerec.interactions", "build_dataset"),
    ("ripplerec.cli", "load_prep"),
    ("ripplerec.core", "load_params"),
    ("ripplerec.model", "fit"),
    ("ripplerec.model", "build_ripple_sets"),
    ("ripplerec.model", "assemble_batch"),
    ("ripplerec.model", "sample_item_trees"),
    ("ripplerec.model", "forward_backward"),
    ("ripplerec.model", "forward"),
    ("ripplerec.model", "score_batch"),
    ("ripplerec.core", "ParamStore.adam_step"),
    ("ripplerec.metrics", "evaluate"),
]

# Per-layer metric -> unit; the keys are the ``per_layer`` names of
# BENCHMARK.json.  Counts come with their base: padded edges over
# ``model.tree_nodes``, backfills over ``kg.ripple_hops``, skipped over
# ``metrics.examples``.
LAYER_METRICS = {
    "kg.load_kg_s": "s",
    "interactions.binarize_s": "s",
    "interactions.build_dataset_s": "s",
    "cli.load_prep_s": "s",
    "core.load_params_s": "s",
    "model.build_ripple_sets_s": "s",
    "model.ripple_users": "count",
    "model.sample_item_trees_s": "s",
    "model.tree_nodes": "count",
    "model.assemble_batch_self_s": "s",
    "model.forward_train_s": "s",
    "model.forward_score_s": "s",
    "model.backward_s": "s",
    "model.step_ms_p50": "ms",
    "model.step_ms_p99": "ms",
    "model.steps": "count",
    "core.adam_step_s": "s",
    "metrics.evaluate_self_s": "s",
    "model.fit_self_s": "s",
    "model.padded_edge_share": "share",
    "kg.ripple_backfills": "count",
    "kg.ripple_hops": "count",
    "metrics.skipped": "count",
    "metrics.examples": "count",
    "trace_overhead_share": "share",
}

# span name -> metric, for metrics that are a span's total or self time
_TOTAL = {
    "kg.load_kg": "kg.load_kg_s",
    "interactions.binarize": "interactions.binarize_s",
    "interactions.build_dataset": "interactions.build_dataset_s",
    "cli.load_prep": "cli.load_prep_s",
    "core.load_params": "core.load_params_s",
    "model.build_ripple_sets": "model.build_ripple_sets_s",
    "model.sample_item_trees": "model.sample_item_trees_s",
    "core.ParamStore.adam_step": "core.adam_step_s",
}
_SELF = {
    "model.assemble_batch": "model.assemble_batch_self_s",
    "model.forward_backward": "model.backward_s",
    "metrics.evaluate": "metrics.evaluate_self_s",
    "model.fit": "model.fit_self_s",
}


def _span_name(module, attr):
    return f"{module.removeprefix('ripplerec.')}.{attr}"


class _BackfillCounter(logging.Handler):
    """Counts the ripple builder's "empty frontier" backfill warnings."""

    def __init__(self, counts):
        super().__init__(level=logging.WARNING)
        self.counts = counts

    def emit(self, record):
        if "empty frontier" in record.getMessage():
            self.counts["kg.ripple_backfills"] += 1


class Tracer:
    """Spans and counters recorded around the wrapped public functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        on_result = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, perf_counter(), None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        restore = []
        handler = _BackfillCounter(self.counts)
        kg_logger = logging.getLogger("ripplerec.kg")
        try:
            for module_name, attr in TARGETS:
                name = _span_name(module_name, attr)
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.absent.append(name)
                    continue
                owner_name, _, leaf = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, leaf, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                if owner is not module:  # a method: one binding, on the class
                    bindings = [(owner, leaf)]
                else:
                    bindings = [
                        (mod, key)
                        for mod_name, mod in list(sys.modules.items())
                        if mod_name == "ripplerec" or mod_name.startswith("ripplerec.")
                        for key, value in list(vars(mod).items())
                        if value is original
                    ]
                for holder, key in bindings:
                    setattr(holder, key, wrapper)
                    restore.append((holder, key, original))
            kg_logger.addHandler(handler)
            yield self
        finally:
            kg_logger.removeHandler(handler)
            for holder, key, original in reversed(restore):
                setattr(holder, key, original)

    # -- reduction ------------------------------------------------------------

    def layer_metrics(self, overhead_share):
        """Every per-layer metric as ``{name: (value, unit)}``.

        ``overhead_share`` is (traced - untraced) / untraced wall time of
        the same operation, measured by the caller.
        """
        dur = [end - start for _, _, start, end in self.spans]
        child = [0.0] * len(dur)
        for i, (_, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        values = {name: 0.0 for name in LAYER_METRICS}
        steps = []
        for i, (name, parent, _, _) in enumerate(self.spans):
            if name in _TOTAL:
                values[_TOTAL[name]] += dur[i]
            if name in _SELF:
                values[_SELF[name]] += dur[i] - child[i]
            if name == "model.forward" and parent >= 0:
                caller = self.spans[parent][0]
                if caller == "model.forward_backward":
                    values["model.forward_train_s"] += dur[i]
                elif caller == "model.score_batch":
                    values["model.forward_score_s"] += dur[i]
            if name == "model.forward_backward":
                steps.append(dur[i] * 1e3)
        if steps:
            values["model.step_ms_p50"] = float(np.percentile(steps, 50))
            values["model.step_ms_p99"] = float(np.percentile(steps, 99))
        values["model.steps"] = len(steps)
        for key in ("model.ripple_users", "model.tree_nodes", "kg.ripple_backfills",
                    "kg.ripple_hops", "metrics.skipped", "metrics.examples"):
            values[key] = self.counts[key]
        nodes = self.counts["model.tree_nodes"]
        values["model.padded_edge_share"] = self.counts["model.padded_edges"] / nodes if nodes else 0.0
        values["trace_overhead_share"] = overhead_share
        return {name: (float(values[name]), unit) for name, unit in LAYER_METRICS.items()}


# -- counters read from return values --------------------------------------------


def _count_ripple_sets(counts, ripple_sets):
    counts["model.ripple_users"] += len(ripple_sets)
    counts["kg.ripple_hops"] += sum(len(rs.hops) for rs in ripple_sets.values())


def _count_bags(counts, bags):
    # every drawn tree node hangs off one sampled edge; NULL_RELATION marks
    # the self-loop pad of an entity without neighbors
    for rels in bags.tree_rels[1:]:
        counts["model.tree_nodes"] += rels.size
        counts["model.padded_edges"] += int(np.count_nonzero(rels == NULL_RELATION))


def _count_report(counts, report):
    counts["metrics.skipped"] += report.skipped
    counts["metrics.examples"] += report.n_examples + report.skipped


_HOOKS = {
    "model.build_ripple_sets": _count_ripple_sets,
    "model.assemble_batch": _count_bags,
    "metrics.evaluate": _count_report,
}
