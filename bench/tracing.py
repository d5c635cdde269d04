"""In-memory span tracer and the wrappers it installs around public
library names.

A wrapper replaces a public name at every place a caller looks it up: the
defining module, each package module that imported the name, and the
package namespace.  Calls through ``lattice_dual.duality.freq`` are traced
as well as calls through ``lattice_dual.poset.freq``.  Private helpers are
never wrapped, so renaming one cannot silently break a counter; where a
layer stops calling a public name, that name's count reads 0.

Closures computed per second and early-reject counts are not visible at any
public boundary.  They wait for the library's stats object (ROADMAP item 5).
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter

LAYERS = ("poset", "duality", "context", "hypotheses", "implications", "reductions", "cli")

# Every public module-level function of a layer is wrapped.  These public
# methods are wrapped too.  Hot accessors such as Poset.leq or
# Poset.down_set are left alone: wrapping them would multiply the traced
# run's cost, and their time counts toward the caller's self time.
METHODS = {
    "poset": {"Poset": ("__init__", "from_pairs", "restrict", "all_downsets")},
    "duality": {"DualityInstance": ("__init__",)},
    "context": {
        "FormalContext": ("__init__", "from_intents", "intent_masks", "close_attributes")
    },
}

# Spans kept for writing out; aggregates cover every span regardless.
SPAN_CAP = 20_000

# Names whose spans make up cli.parse_ms.
PARSE_LABELS = (
    "context.parse_cxt",
    "poset.poset_from_json",
    "poset.family_from_json",
    "hypotheses.training_from_json",
    "reductions.parse_dimacs",
    "implications.implications_from_json",
)


class Tracer:
    """Aggregates spans by label: call count, total time and self time.

    A span's self time is its duration minus the durations of its direct
    child spans.  The first SPAN_CAP spans are also kept as
    (id, label, start, end, parent id) tuples.
    """

    def __init__(self):
        self.calls: dict = {}
        self.total: dict = {}
        self.self_time: dict = {}
        self.counters: dict = {}
        self.spans: list = []
        self._stack: list = []
        self._next_id = 0
        self._keys: set = set()

    def reset(self) -> None:
        for table in (self.calls, self.total, self.self_time, self.counters):
            table.clear()
        self._keys.clear()

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def end_task(self) -> None:
        """Close the per-task set of distinct duality subproblems."""
        self.count("duality.distinct", len(self._keys))
        self._keys.clear()

    def outermost(self, label: str) -> bool:
        return not any(frame[2] == label for frame in self._stack)

    def wrap(self, label: str, fn, hook=None):
        calls, total, self_time = self.calls, self.total, self.self_time
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [0.0, self._next_id, label]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                calls[label] = calls.get(label, 0) + 1
                total[label] = total.get(label, 0.0) + dur
                self_time[label] = self_time.get(label, 0.0) + dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((frame[1], label, start, end, parent))
            if hook is not None:
                hook(self, args, kwargs, result, dur)
            return result

        return traced

    def snapshot(self) -> dict:
        return {
            "spans": {k: [self.calls[k], self.total[k], self.self_time[k]] for k in self.calls},
            "counters": dict(self.counters),
        }


# -- hooks: counters read off arguments and results at public boundaries --


def _nodes(tracer, args, kwargs, result, dur):
    tracer.count("duality.nodes", result[1])


def _subproblem(tracer, args, kwargs, result, dur):
    inst = args[0]
    tracer._keys.add((inst.poset.elements, inst.a, inst.b))


def _intents(tracer, args, kwargs, result, dur):
    tracer.count("context.intents", len(result))


def _minimal(tracer, args, kwargs, result, dur):
    if tracer.outermost("hypotheses.minimal_hypotheses"):
        method = kwargs.get("method", args[2] if len(args) > 2 else "oracle")
        tracer.count(f"hypotheses.{method}_s", dur)
        tracer.count("hypotheses.minimal", len(result))


HOOKS = {
    "duality.test_duality_stats": _nodes,
    "duality.check_star": _subproblem,
    "context.FormalContext.intent_masks": _intents,
    "hypotheses.minimal_hypotheses": _minimal,
}


def install(tracer: Tracer, package) -> None:
    """Wrap the public names of every layer of `package`; call once per process."""
    name = package.__name__
    modules = [package]
    replaced = {}
    for layer in LAYERS:
        __import__(f"{name}.{layer}")
        mod = sys.modules[f"{name}.{layer}"]
        modules.append(mod)
        for attr, obj in list(vars(mod).items()):
            if (
                not attr.startswith("_")
                and isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__
            ):
                label = f"{layer}.{attr}"
                replaced[id(obj)] = (obj, tracer.wrap(label, obj, HOOKS.get(label)))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                raw = cls.__dict__.get(meth)
                if raw is None:
                    continue
                label = f"{layer}.{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(tracer.wrap(label, raw.__func__, HOOKS.get(label)))
                else:
                    wrapped = tracer.wrap(label, raw, HOOKS.get(label))
                setattr(cls, meth, wrapped)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            entry = replaced.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])


def merge(into: dict, snap: dict) -> None:
    """Add one snapshot's spans and counters to an accumulated snapshot."""
    spans = into.setdefault("spans", {})
    for label, row in snap["spans"].items():
        acc = spans.setdefault(label, [0, 0.0, 0.0])
        for i, v in enumerate(row):
            acc[i] += v
    counters = into.setdefault("counters", {})
    for key, v in snap["counters"].items():
        counters[key] = counters.get(key, 0) + v


def layer_metrics(snap: dict) -> dict:
    """Per-layer metrics of one traced pass, from its merged snapshot."""
    spans, counters = snap.get("spans", {}), snap.get("counters", {})

    def calls(*labels):
        return sum(spans[l][0] for l in labels if l in spans)

    def ms(*labels):
        return 1e3 * sum(spans[l][1] for l in labels if l in spans)

    def self_ms(layer):
        return 1e3 * sum(row[2] for l, row in spans.items() if l.split(".", 1)[0] == layer)

    def ratio(num, den):
        return num / den if den else 0.0

    intents = counters.get("context.intents", 0)
    enum_ms = ms("context.FormalContext.intent_masks")
    return {
        "duality.nodes": counters.get("duality.nodes", 0),
        "duality.decompose_calls": calls("duality.decompose"),
        "duality.decompose_ms": ms("duality.decompose"),
        "duality.instance_calls": calls("duality.DualityInstance.__init__"),
        "duality.instance_ms": ms("duality.DualityInstance.__init__"),
        "duality.repeat_ratio": ratio(
            calls("duality.check_star"), counters.get("duality.distinct", 0)
        ),
        "duality.self_ms": self_ms("duality"),
        "poset.construct_calls": calls("poset.Poset.__init__"),
        "poset.construct_ms": ms("poset.Poset.__init__"),
        "poset.restrict_calls": calls("poset.Poset.restrict"),
        "poset.restrict_ms": ms("poset.Poset.restrict"),
        "poset.from_pairs_ms": ms("poset.Poset.from_pairs"),
        "poset.freq_calls": calls("poset.freq", "poset.freq_complement"),
        "poset.freq_ms": ms("poset.freq", "poset.freq_complement"),
        "poset.antichain_ms": ms("poset.minimal_members", "poset.maximal_members", "poset.is_antichain"),
        "poset.self_ms": self_ms("poset"),
        "context.intents": intents,
        "context.enum_ms": enum_ms,
        "context.intents_per_s": ratio(intents, enum_ms / 1e3),
        "context.self_ms": self_ms("context"),
        "hypotheses.oracle_ms": 1e3 * counters.get("hypotheses.oracle_s", 0.0),
        "hypotheses.iterate_ms": 1e3 * counters.get("hypotheses.iterate_s", 0.0),
        "hypotheses.decide_amh_calls": calls("hypotheses.decide_amh"),
        "hypotheses.enumerations_per_minimal": ratio(
            calls("hypotheses.enumerate_hypotheses"), counters.get("hypotheses.minimal", 0)
        ),
        "hypotheses.self_ms": self_ms("hypotheses"),
        "implications.is_base_ms": ms("implications.is_base"),
        "implications.imp_closure_calls": calls("implications.imp_closure"),
        "implications.self_ms": self_ms("implications"),
        "reductions.self_ms": self_ms("reductions"),
        "cli.parse_ms": ms(*PARSE_LABELS),
        "cli.self_ms": self_ms("cli"),
    }
