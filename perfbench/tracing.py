"""Span tracing for the traced benchmark run.

Spans are opened from the benchmark's own code (passes, builds, forward
calls, oracles, generators) and from wrappers patched over public package
callables at every module binding that callers look up. Each span records
its id, parent id, pass id, name, start and end; spans stay in memory and
are written out once at the end of the run.

Every span is assigned a layer when it opens, from its own name and the
layers already open above it. A span that does not start a layer of its
own (a completion step inside a readout, say) inherits its parent's layer,
so its time is counted there. A layer's self time is the time its spans
cover minus the time covered by their child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

FAMILIES = ("dnet", "rwkv", "cm", "sm")
GEN_TASKS = ("conn", "imm_mod", "imm_z")


def _inside_entry(layers):
    # completion vectors are built inside router entries; elsewhere (the
    # final readout) the same helper belongs to the enclosing layer
    return "router.entry" in layers


def _outside_entry(layers):
    return not any(z in layers for z in ("router.entry", "readout", "completion"))


# (module, attribute, layer, condition for the span to start that layer;
# otherwise it inherits its parent's). Functions are patched at every
# package module binding that holds the same object; methods on the class.
SPAN_TARGETS = (
    ("exactrnn.rwkv_gadgets", "window_key", "router.key", None),
    ("exactrnn.rwkv_gadgets", "RouterTable.query", "router.lookup", None),
    ("exactrnn.rwkv_gadgets", "RwkvWfaNet._entry", "router.entry", None),
    ("exactrnn.rwkv_gadgets", "RwkvImmNet._entry", "router.entry", None),
    ("exactrnn.delta_gadgets", "DnetWfaNet._entry", "router.entry", None),
    ("exactrnn.delta_gadgets", "DnetImmNet._entry", "router.entry", None),
    ("exactrnn.delta_gadgets", "apply_matrix_program", "program", None),
    ("exactrnn.rwkv_gadgets", "factor_apply_matrix", "program", None),
    ("exactrnn.delta_gadgets", "DnetImmNet.superblock_product", "program", None),
    ("exactrnn.delta_gadgets", "apply_h_col", "completion", _inside_entry),
    ("exactrnn.rwkv_gadgets", "apply_overwrite_col", "completion", _inside_entry),
    ("exactrnn.delta_gadgets", "apply_h_row", "step", _outside_entry),
    ("exactrnn.rwkv_gadgets", "apply_overwrite_row", "step", _outside_entry),
    ("exactrnn.delta_gadgets", "DnetImmNet.final_readouts", "readout", None),
    ("exactrnn.rwkv_gadgets", "RwkvImmNet.final_readouts", "readout", None),
    ("exactrnn.relu_nets", "ReluMlp.eval_raw", "relu.eval", None),
    ("exactrnn.kernels", "sparse_affine", "kernels.sparse_affine", None),
    ("exactrnn.problems", "record_to_line", "gen.encode", None),
)

# (module, attribute, counter, count only inside a generator span)
COUNT_TARGETS = (
    ("exactrnn.kernels", "vdot", "kernels.vdot", False),
    ("exactrnn.kernels", "radd", "kernels.radd", False),
    ("exactrnn.kernels", "rmul", "kernels.rmul", False),
    ("exactrnn.problems", "mat3_det_mod", "gen.det_calls", True),
    ("exactrnn.problems", "imm_z_oracle", "gen.imm_z_oracle_calls", True),
)


def _per_family(families, metric, unit, better, target, workload, needs):
    return [
        (f"{fam}.{metric}", unit, better, target.replace("<fam>", fam), workload, needs)
        for fam in families
    ]


# Per-layer metrics: (name, unit, better, end-to-end metric it should
# move, workload where it should move it, patched layers or counters it
# needs). A metric whose needs are not all patched is reported absent.
LAYER_METRICS = (
    *_per_family(("dnet", "rwkv"), "router.key.calls", "count", "lower",
                 "<fam>.tokens_per_s", "imm-long", ("router.key",)),
    *_per_family(("dnet", "rwkv"), "router.key.self_s", "s", "lower",
                 "<fam>.tokens_per_s", "imm-long", ("router.key",)),
    *_per_family(("dnet", "rwkv"), "router.lookup.calls", "count", "lower",
                 "<fam>.tokens_per_s, peak_rss_mb", "imm-long", ("router.lookup",)),
    *_per_family(("dnet", "rwkv"), "router.lookup.self_s", "s", "lower",
                 "<fam>.tokens_per_s, peak_rss_mb", "imm-long", ("router.lookup",)),
    *_per_family(("dnet", "rwkv"), "router.entries_built", "count", "lower",
                 "peak_rss_mb", "imm-long", ("router.entry",)),
    *_per_family(("dnet", "rwkv"), "router.hit_ratio", "ratio", "higher",
                 "peak_rss_mb", "imm-long", ("router.entry", "router.lookup")),
    *_per_family(("dnet", "rwkv"), "router.entry.calls", "count", "lower",
                 "<fam>.tokens_per_s, pass_s.*", "wfa-short", ("router.entry",)),
    *_per_family(("dnet", "rwkv"), "router.entry.self_s", "s", "lower",
                 "<fam>.tokens_per_s, pass_s.*", "wfa-short", ("router.entry",)),
    *_per_family(("dnet", "rwkv"), "program.calls", "count", "lower",
                 "<fam>.tokens_per_s", "wfa-short", ("program",)),
    *_per_family(("dnet", "rwkv"), "program.self_s", "s", "lower",
                 "<fam>.tokens_per_s", "wfa-short", ("program",)),
    *_per_family(("dnet", "rwkv"), "completion.calls", "count", "lower",
                 "<fam>.tokens_per_s", "wfa-short", ("completion",)),
    *_per_family(("dnet", "rwkv"), "completion.self_s", "s", "lower",
                 "<fam>.tokens_per_s", "wfa-short", ("completion",)),
    *_per_family(("dnet", "rwkv"), "step.calls", "count", "lower",
                 "<fam>.tokens_per_s", "imm-long", ("step",)),
    *_per_family(("dnet", "rwkv"), "step.self_s", "s", "lower",
                 "<fam>.tokens_per_s", "imm-long", ("step",)),
    *_per_family(("dnet", "rwkv"), "readout.self_s", "s", "lower",
                 "<fam>.tokens_per_s", "imm-long", ("readout",)),
    *_per_family(("cm", "sm"), "relu.eval.calls", "count", "lower",
                 "<fam>.tokens_per_s", "relu-trace", ("relu.eval",)),
    *_per_family(("cm", "sm"), "relu.eval.self_s", "s", "lower",
                 "<fam>.tokens_per_s", "relu-trace", ("relu.eval",)),
    ("relu.compile_s", "s", "lower", "setup_s", "relu-trace", ()),
    ("kernels.sparse_affine.calls", "count", "lower",
     "cm.tokens_per_s, sm.tokens_per_s", "relu-trace", ("kernels.sparse_affine",)),
    ("kernels.sparse_affine.self_s", "s", "lower",
     "cm.tokens_per_s, sm.tokens_per_s", "relu-trace", ("kernels.sparse_affine",)),
    ("kernels.vdot.calls", "count", "lower", "<fam>.tokens_per_s",
     "relu-trace, imm-long", ("kernels.vdot",)),
    ("kernels.radd.calls", "count", "lower", "<fam>.tokens_per_s",
     "relu-trace, imm-long", ("kernels.radd",)),
    ("kernels.rmul.calls", "count", "lower", "<fam>.tokens_per_s",
     "relu-trace, imm-long", ("kernels.rmul",)),
    *_per_family(FAMILIES, "value_bits.max", "bits", "lower",
                 "<fam>.tokens_per_s", "relu-trace, imm-long", ()),
    ("oracle.self_s", "s", "lower", "pass_s.*", "wfa-short, relu-trace", ()),
    *[(f"gen.{t}.self_s", "s", "lower", f"{t}.records_per_s", "datasets", ())
      for t in GEN_TASKS],
    *[(f"gen.{t}.bytes", "bytes", "lower", f"{t}.records_per_s", "datasets", ())
      for t in GEN_TASKS],
    ("gen.encode.self_s", "s", "lower", "<task>.records_per_s", "datasets",
     ("gen.encode",)),
    ("gen.imm_mod.accept_ratio", "ratio", "higher", "imm_mod.records_per_s",
     "datasets", ("gen.det_calls",)),
    ("gen.imm_z.accept_ratio", "ratio", "higher", "imm_z.records_per_s",
     "datasets", ("gen.imm_z_oracle_calls",)),
    ("trace.overhead_frac", "frac", "lower", "none (tracing cost)", "all", ()),
)

# Exact counts: they must repeat exactly between traced runs of the same
# code and seed, because a traced run always does the same fixed passes.
EXACT_SUFFIXES = (".calls", ".entries_built", ".max", ".bytes", ".accept_ratio",
                  ".hit_ratio")


def _resolve(module_name, attr):
    """(owner, leaf name, current value) or None if the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, leaf, None)
    return None if value is None else (owner, leaf, value)


class NullTracer:
    """Stand-in for untraced runs: spans cost one method call."""

    pass_id = 0

    @contextmanager
    def span(self, name, family=None):
        yield


class Tracer:
    def __init__(self):
        self.pass_id = 0
        self.spans = []
        self.names = []
        self._name_ids = {}
        # open spans: [span id, layer, family, child seconds, name id, parent id]
        self._stack = []
        self._next_id = 1
        self.self_s = defaultdict(float)  # (family, layer) -> seconds
        self.calls = defaultdict(int)  # (family, layer) -> spans opening it
        self.counters = defaultdict(int)
        self.patched = set()  # layers and counters whose targets exist
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _open(self, name, layer, starts, family):
        stack = self._stack
        parent = stack[-1] if stack else None
        own = parent is None or starts is None or starts([f[1] for f in stack])
        if not own:
            layer = parent[1]
        if family is None and parent is not None:
            family = parent[2]
        span_id = self._next_id
        self._next_id += 1
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        if own:
            self.calls[(family, layer)] += 1
        frame = [span_id, layer, family, 0.0, name_id, parent[0] if parent else 0]
        stack.append(frame)
        return frame

    def _close(self, frame, start, end):
        self._stack.pop()
        span_id, layer, family, child_s, name_id, parent_id = frame
        duration = end - start
        self.self_s[(family, layer)] += duration - child_s
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((span_id, parent_id, self.pass_id, name_id, start, end))

    @contextmanager
    def span(self, name, family=None):
        frame = self._open(name, name, None, family)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, time.perf_counter())

    def _span_wrapper(self, name, layer, starts, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = self._open(name, layer, starts, None)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, start, clock())

        return traced

    def _count_wrapper(self, counter, only_in_gen, fn):
        counters = self.counters
        stack = self._stack

        def counted(*args, **kwargs):
            if not only_in_gen or any(f[1].startswith("gen.") for f in stack):
                counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------

    def _replace(self, owner, leaf, old, new):
        if isinstance(owner, type):
            self._undo.append((owner, leaf, old))
            setattr(owner, leaf, new)
            return
        # a function: replace it at every package module binding of it
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("exactrnn"):
                continue
            for key, value in list(vars(mod).items()):
                if value is old:
                    self._undo.append((mod, key, old))
                    setattr(mod, key, new)

    def install(self):
        """Patch every target that still exists; missing ones are skipped
        and the metrics that need them are reported as absent."""
        for module_name, attr, layer, starts in SPAN_TARGETS:
            found = _resolve(module_name, attr)
            if found is None:
                continue
            owner, leaf, fn = found
            self._replace(owner, leaf, fn, self._span_wrapper(attr, layer, starts, fn))
            self.patched.add(layer)
        for module_name, attr, counter, only_in_gen in COUNT_TARGETS:
            found = _resolve(module_name, attr)
            if found is None:
                continue
            owner, leaf, fn = found
            self._replace(owner, leaf, fn, self._count_wrapper(counter, only_in_gen, fn))
            self.patched.add(counter)

    def uninstall(self):
        for owner, key, old in reversed(self._undo):
            setattr(owner, key, old)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def layer_self_s(self, layer, family=None):
        return sum((s for (fam, lay), s in self.self_s.items()
                    if lay == layer and (family is None or fam == family)), 0.0)

    def layer_calls(self, layer, family=None):
        return sum(c for (fam, lay), c in self.calls.items()
                   if lay == layer and (family is None or fam == family))

    def write(self, path):
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "pass", "name", "start", "end"],
                    "names": self.names,
                    "spans": self.spans,
                },
                handle,
                separators=(",", ":"),
            )


def layer_metrics(tracer, extra):
    """Per-layer metric values from a finished traced run.

    ``extra`` holds the values the benchmark measures itself (value bits,
    generator bytes, kept matrices and records, compile time, overhead).
    Returns (metrics, absent names).
    """
    metrics = {}
    absent = []
    for name, unit, _better, _target, _workload, needs in LAYER_METRICS:
        if needs and not all(n in tracer.patched for n in needs):
            absent.append(name)
            continue
        metrics[name] = {"value": _layer_value(tracer, name, extra), "unit": unit}
    return metrics, absent


def _layer_value(tracer, name, extra):
    if name in extra:
        return extra[name]
    head, _, rest = name.partition(".")
    family = head if head in FAMILIES else None
    if family is None:
        rest = name
    if rest == "router.entries_built":
        return tracer.layer_calls("router.entry", family)
    if rest == "router.hit_ratio":
        lookups = tracer.layer_calls("router.lookup", family)
        built = tracer.layer_calls("router.entry", family)
        return 1.0 - built / lookups if lookups else 0.0
    if rest in ("kernels.vdot.calls", "kernels.radd.calls", "kernels.rmul.calls"):
        return tracer.counters[rest[: -len(".calls")]]
    if rest == "gen.imm_mod.accept_ratio":
        calls = tracer.counters["gen.det_calls"]
        return extra["gen.imm_mod.kept"] / calls if calls else 0.0
    if rest == "gen.imm_z.accept_ratio":
        calls = tracer.counters["gen.imm_z_oracle_calls"]
        return extra["gen.imm_z.records"] / calls if calls else 0.0
    layer, _, kind = rest.rpartition(".")
    if kind == "calls":
        return tracer.layer_calls(layer, family)
    if kind == "self_s":
        return tracer.layer_self_s(layer, family)
    raise KeyError(name)


def is_exact(name):
    return name.endswith(EXACT_SUFFIXES)
