"""Layer tracing for the benchmark: spans and work counters around latmax calls.

A child process installs the wrappers after ``import latmax.cli`` and before
the run (see child.py).  Each wrapper records one span -- name, start, end,
parent span -- in memory; the child writes them out once, when the run ends,
under the id of its one experiment.
Work counters are measured at the same boundaries from the arguments and
results.  Byte counters are computed from array shapes (8 bytes per float64
element), not measured.

Modules bind names at import (``experiments`` binds ``kvee_estimate`` and
``growth_fit``, ``triangular`` binds ``spectral_norm`` and ``pnorm_bounds``),
so a function is replaced in every loaded ``latmax`` module that holds it,
not only in the module that defines it.

The parent process uses only the tables and ``aggregate``; this file imports
nothing from outside the standard library at module level.
"""

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import Counter

# (module, attribute, span name).  "Class.method" wraps a method on the class.
# The span name plus "_s" is the name of its self-time metric.
SPANS = (
    ("latmax.spaces", "LpBlock.norms", "spaces.norms"),
    ("latmax.spaces", "SupBlock.norms", "spaces.norms"),
    ("latmax.spaces", "DirectSum.norms", "spaces.norms"),
    ("latmax.systems", "BiorthogonalSystem.__init__", "systems.build"),
    ("latmax.systems", "coefficients", "systems.coefficients"),
    ("latmax.greedy", "ordered_projection_maximal",
     "greedy.ordered_projection_maximal"),
    ("latmax.greedy", "_ordered_join", "greedy.join"),
    ("latmax.greedy", "kvee_estimate", "greedy.kvee_estimate"),
    ("latmax.estimation", "spectral_norm", "estimation.spectral_norm"),
    ("latmax.estimation", "pnorm_bounds", "estimation.pnorm_bounds"),
    ("latmax.estimation", "sup_search", "estimation.sup_search"),
    ("latmax.estimation", "growth_fit", "estimation.growth_fit"),
    ("latmax.constructions.haar", "haar_system", "constructions.haar.haar_system"),
    ("latmax.constructions.hadamard", "fwht_rows",
     "constructions.hadamard.fwht_rows"),
    ("latmax.constructions.hadamard", "sign_pattern_sweep",
     "constructions.hadamard.sign_pattern_sweep"),
    ("latmax.constructions.hadamard", "hadamard_mixed",
     "constructions.hadamard.hadamard_mixed"),
    ("latmax.constructions.lindenstrauss", "chain_prefix_join",
     "constructions.lindenstrauss.chain_prefix_join"),
    ("latmax.constructions.lindenstrauss", "lindenstrauss_witness",
     "constructions.lindenstrauss.witness"),
    ("latmax.constructions.lorentz", "block_series",
     "constructions.lorentz.block_series"),
    ("latmax.constructions.orlicz", "luxemburg_norm",
     "constructions.orlicz.luxemburg_norm"),
    ("latmax.constructions.rademacher", "rademacher_l1",
     "constructions.rademacher.rademacher_l1"),
    ("latmax.constructions.triangular", "kernel_gauge",
     "constructions.triangular.kernel_gauge"),
    ("latmax.constructions.triangular", "operator_extremes",
     "constructions.triangular.operator_extremes"),
    ("latmax.constructions.typewriter", "typewriter_frame",
     "constructions.typewriter.frame"),
    ("latmax.constructions.typewriter", "pass_profile",
     "constructions.typewriter.pass_profile"),
    ("latmax.experiments", "run", "experiments.run"),
    ("latmax.cli", "main", "cli.main"),
)

# (module, attribute, counter): call counts only, no span, for functions
# called too often for a span each
COUNTERS = (
    ("latmax.spaces", "Element.__init__", "spaces.element.calls"),
    ("latmax.constructions.lorentz", "weight_sum_log2",
     "constructions.lorentz.weight_sum_log2.calls"),
)

# layers whose span count is reported as "<layer>.calls"
LAYERS = ("spaces", "systems", "greedy", "estimation",
          "constructions.haar", "constructions.hadamard",
          "constructions.lindenstrauss", "constructions.lorentz",
          "constructions.orlicz", "constructions.rademacher",
          "constructions.triangular", "constructions.typewriter",
          "experiments", "cli")


def layer_of(span_name):
    for layer in LAYERS:
        if span_name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {span_name!r} belongs to no layer")


# ---------------------------------------------------------------- counters
# Each hook runs after its call returns: hook(rec, parent, args, kwargs,
# result, duration_ns), where parent is the enclosing span's name or None.


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _norms(rec, parent, args, kwargs, result, dur):
    if parent == "spaces.norms":
        return  # a part of a direct sum: counted with the outer call
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    rec.counts["spaces.norms.calls"] += 1
    rec.counts["spaces.norms.rows"] += rows.shape[0]
    rec.counts["spaces.norms.bytes"] += rows.size * 8


def _build(rec, parent, args, kwargs, result, dur):
    self = args[0]
    rec.counts["systems.build.calls"] += 1
    rec.counts["systems.dense_bytes"] += 2 * self.vectors.size * 8


def _coefficients(rec, parent, args, kwargs, result, dur):
    rec.counts["systems.coefficients.calls"] += 1


def _join(rec, parent, args, kwargs, result, dur):
    sysm, _a, perm = args
    rec.counts["greedy.join.rows"] += len(perm)
    rec.counts["greedy.join.bytes"] += len(perm) * sysm.space.dim * 8


def _kvee(rec, parent, args, kwargs, result, dur):
    rec.counts["greedy.kvee.evals"] += result.budget
    rec.counts["greedy.kvee.budget"] += _arg(
        rec.originals["greedy.kvee_estimate"], args, kwargs, "budget")


def _spectral(rec, parent, args, kwargs, result, dur):
    shape = args[0].shape if args else kwargs["M"].shape
    cutoff = sys.modules["latmax.estimation"]._DENSE_SVD_CUTOFF
    arpack = min(shape) > 1 and max(shape) > cutoff
    key = "calls_arpack" if arpack else "calls_dense"
    rec.counts["estimation.spectral_norm." + key] += 1


def _sup_search(rec, parent, args, kwargs, result, dur):
    rec.counts["estimation.sup_search.evals"] += result.evaluations
    rec.counts["estimation.sup_search.budget"] += _arg(
        rec.originals["estimation.sup_search"], args, kwargs, "budget")


def _fwht(rec, parent, args, kwargs, result, dur):
    rows, width = result.shape
    # one butterfly pass over the whole batch per bit of the row length
    rec.counts["constructions.hadamard.fwht.rows"] += rows
    rec.counts["constructions.hadamard.fwht.bytes"] += (
        result.size * 8 * max(1, int(math.log2(width))))


def _chain(rec, parent, args, kwargs, result, dur):
    depth = _arg(rec.originals["constructions.lindenstrauss.chain_prefix_join"],
                 args, kwargs, "depth")
    # the walk visits node 0 and the 2^d nodes of each depth d < depth
    rec.counts["constructions.lindenstrauss.chain.steps"] += 2 ** depth - 1


def _run(rec, parent, args, kwargs, result, dur):
    rec.counts["experiments.write_ns"] += dur - int(result.wall_time * 1e9)
    rec.counts["experiments.artifact_bytes"] += sum(
        os.path.getsize(p) for p in result.files.values())


HOOKS = {
    "spaces.norms": _norms,
    "systems.build": _build,
    "systems.coefficients": _coefficients,
    "greedy.join": _join,
    "greedy.kvee_estimate": _kvee,
    "estimation.spectral_norm": _spectral,
    "estimation.sup_search": _sup_search,
    "constructions.hadamard.fwht_rows": _fwht,
    "constructions.lindenstrauss.chain_prefix_join": _chain,
    "experiments.run": _run,
}


# ---------------------------------------------------------------- recording


class Recorder:
    """Spans and counters of one child run, kept in memory until dump()."""

    def __init__(self, experiment):
        self.experiment = experiment
        self.spans = []          # [name, start_ns, end_ns, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.originals = {}      # span name -> unwrapped function

    def span_wrapper(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, spans[parent][0] if parent >= 0 else None,
                     args, kwargs, result, span[2] - span[1])
            return result

        return wrapper

    def counter_wrapper(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"experiment": self.experiment, "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def _latmax_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "latmax" or name.startswith("latmax."))]


def install(rec):
    """Wrap every function in SPANS and COUNTERS, in every module binding it."""
    modules = _latmax_modules()
    for table, make in ((SPANS, rec.span_wrapper), (COUNTERS, rec.counter_wrapper)):
        for modname, attr, name in table:
            owner = sys.modules[modname]
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[method]
                rec.originals[name] = orig
                setattr(cls, method, make(name, orig))
                continue
            orig = getattr(owner, attr)
            rec.originals[name] = orig
            wrapper = make(name, orig)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapper)


# ---------------------------------------------------------------- aggregation


def aggregate(traces):
    """Sum self times (seconds), span counts and counters over child traces.

    A span's self time is its duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    self_s, calls, counts = Counter(), Counter(), Counter()
    for trace in traces:
        spans = trace["spans"]
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, _parent), covered in zip(spans, child_ns):
            self_s[name] += (end - start - covered) / 1e9
            calls[layer_of(name)] += 1
        counts.update(trace["counts"])
    return self_s, calls, counts
