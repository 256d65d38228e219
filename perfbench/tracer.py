"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install` replaces the public functions of each mapdelta module with
timing wrappers, at every module that binds them (`formats` and `rebuild`
import `validate_map` by name, `cli` imports `verify_map` by name, and the
package re-exports most of them), and `Tracer.remove` puts the originals
back.  A span is [name, start, end, parent span index, op id]; spans stay in
memory until the run writes them out.  A layer's self time is its spans'
durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from math import comb

# (module, attribute) of every wrapped function; a dotted attribute is a
# method.  The span name is "<module>.<attribute>".
TARGETS = (
    ("maps", "validate_map"),
    ("maps", "from_rotation_system"),
    ("maps", "CombinatorialMap.underlying_graph"),
    ("maps", "CombinatorialMap.dual_graph"),
    ("kernel", "survey_selections"),
    ("selections", "enumerate_feasible_gamma"),
    ("selections", "enumerate_feasible_k"),
    ("selections", "find_hamiltonian"),
    ("selections", "is_fully_black_hamiltonian"),
    ("families", "SetFamily.of"),
    ("families", "SetFamily.complement"),
    ("families", "SetFamily.restrict_to_cardinality"),
    ("families", "SetFamily.__contains__"),
    ("families", "SetFamily.is_subfamily_of"),
    ("matroids", "check_symmetric_exchange"),
    ("matroids", "check_basis_exchange"),
    ("matroids", "lower_matroid"),
    ("matroids", "upper_matroid"),
    ("matroids", "rank_gap_check"),
    ("matroids", "spanning_tree_bases"),
    ("matroids", "cotree_bases"),
    ("rebuild", "recover_rotations"),
    ("rebuild", "build_map"),
    ("formats", "parse_map"),
    ("formats", "parse_graph"),
    ("formats", "parse_family"),
    ("formats", "emit_map"),
    ("formats", "emit_family"),
    ("report", "verify_map"),
    ("report", "Report.render"),
)
# Called once per mask: timed into the enclosing span's child time and a
# per-name total, with no span of its own, so the span list stays small.
FOLDED = (
    ("selections", "Selection.from_mask"),
)

FAMILY_BUILDERS = ("families.SetFamily.of", "families.SetFamily.complement",
                   "families.SetFamily.restrict_to_cardinality")
TREE_ORACLES = ("matroids.spanning_tree_bases", "matroids.cotree_bases")
PARSERS = ("formats.parse_map", "formats.parse_graph", "formats.parse_family")
EMITTERS = ("formats.emit_map", "formats.emit_family")


def _count(tracer, name, args, result):
    """Counters measured at the layer boundary, from the call's own input."""
    c = tracer.counters
    if name == "kernel.survey_selections":
        c["masks"] += 1 << args[1]
    elif name in ("selections.enumerate_feasible_gamma", "selections.enumerate_feasible_k"):
        c["feasible_sets"] += len(result)
    elif name == "matroids.check_symmetric_exchange":
        family = args[0]
        c["sym_pairs"] += len(family) ** 2
        key = (family.ground, family.members)
        if key in tracer.checked:
            c["sym_repeats"] += 1
        tracer.checked.add(key)
    elif name == "matroids.spanning_tree_bases":
        graph = args[0]
        c["tree_subsets"] += comb(len(graph.edges), len(graph.vertices) - 1)
    elif name == "maps.validate_map":
        c["flags_validated"] += len(args[1])
    elif name in PARSERS:
        c["bytes"] += len(args[0])
    elif name in EMITTERS:
        c["bytes"] += len(result)


class Tracer:
    def __init__(self, modules):
        self.modules = modules  # short name -> imported mapdelta module
        self.spans = []
        self.counters = defaultdict(int)
        self.checked = set()  # families already exchange-checked in this op
        self.op = "setup"
        self.folded = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self._folded_child = defaultdict(float)  # span index -> folded seconds inside it
        self._stack = []
        self._undo = []

    def start_op(self, op_id):
        self.op = op_id
        self.checked = set()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            _count(self, name, args, result)
            return result

        return traced

    def _wrap_folded(self, name, fn):
        stack, clock, total, child = self._stack, time.perf_counter, self.folded[name], self._folded_child

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                total[0] += 1
                total[1] += dt
                if stack:
                    child[stack[-1]] += dt

        return traced

    def install(self):
        loaded = [m for n, m in sys.modules.items() if n == "mapdelta" or n.startswith("mapdelta.")]
        for module, attr in TARGETS + FOLDED:
            name = "%s.%s" % (module, attr)
            wrap = self._wrap_folded if (module, attr) in FOLDED else self._wrap
            owner = self.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrap(name, raw.__func__))
                else:
                    wrapped = wrap(name, raw)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = wrap(name, original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def remove(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []

    def span_records(self):
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "folded": {name: {"calls": c, "seconds": t} for name, (c, t) in self.folded.items()},
        }

    def layer_metrics(self, overhead_ratio):
        """The per-layer metrics over every recorded span."""
        spans = self.spans
        child_time = [self._folded_child.get(i, 0.0) for i in range(len(spans))]
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]

        def outermost(i, names):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] in names:
                    return False
                p = spans[p][3]
            return True

        total = defaultdict(float)  # span name -> summed duration (outermost only)
        self_time = defaultdict(float)  # span name -> summed self time
        calls = defaultdict(int)
        for i, (name, t0, t1, _parent, _op) in enumerate(spans):
            calls[name] += 1
            self_time[name] += t1 - t0 - child_time[i]
            group = next((g for g in (FAMILY_BUILDERS, TREE_ORACLES) if name in g), (name,))
            if outermost(i, group):
                total[name] += t1 - t0
        for name, (n, t) in self.folded.items():
            calls[name] += n
            self_time[name] += t

        def layer_self(layer):
            return sum((v for k, v in self_time.items() if k.startswith(layer + ".")), 0.0)

        c = self.counters
        scan_s = total["kernel.survey_selections"]
        sym_calls = calls["matroids.check_symmetric_exchange"]
        metrics = {
            "kernel.scan_s": (scan_s, "s"),
            "kernel.scan_calls": (calls["kernel.survey_selections"], "count"),
            "kernel.masks": (c["masks"], "count"),
            "kernel.masks_per_s": (c["masks"] / scan_s if scan_s else 0.0, "1/s"),
            "kernel.useful_ratio": (c["feasible_sets"] / c["masks"] if c["masks"] else 0.0, "ratio"),
            "selections.gamma_s": (total["selections.enumerate_feasible_gamma"], "s"),
            "selections.k_s": (total["selections.enumerate_feasible_k"], "s"),
            "selections.self_s": (layer_self("selections"), "s"),
            "selections.swap_search_s": (total["selections.find_hamiltonian"], "s"),
            "selections.feasible_sets": (c["feasible_sets"], "count"),
            "families.build_s": (sum(total[n] for n in FAMILY_BUILDERS), "s"),
            "families.contains_calls": (calls["families.SetFamily.__contains__"], "count"),
            "families.contains_s": (total["families.SetFamily.__contains__"], "s"),
            "matroids.sym_exchange_s": (total["matroids.check_symmetric_exchange"], "s"),
            "matroids.sym_exchange_calls": (sym_calls, "count"),
            "matroids.sym_exchange_repeat_ratio": (c["sym_repeats"] / sym_calls if sym_calls else 0.0, "ratio"),
            "matroids.sym_exchange_pairs": (c["sym_pairs"], "count"),
            "matroids.basis_exchange_s": (total["matroids.check_basis_exchange"], "s"),
            "matroids.tree_oracle_s": (sum(total[n] for n in TREE_ORACLES), "s"),
            "matroids.tree_subsets": (c["tree_subsets"], "count"),
            "maps.validate_s": (total["maps.validate_map"], "s"),
            "maps.validate_calls": (calls["maps.validate_map"], "count"),
            "maps.flags_validated": (c["flags_validated"], "count"),
            "maps.build_s": (self_time["maps.from_rotation_system"], "s"),
            "maps.graph_dual_s": (total["maps.CombinatorialMap.underlying_graph"]
                                  + total["maps.CombinatorialMap.dual_graph"], "s"),
            "rebuild.recover_rotations_s": (total["rebuild.recover_rotations"], "s"),
            "rebuild.build_map_self_s": (self_time["rebuild.build_map"], "s"),
            "formats.parse_s": (sum(self_time[n] for n in PARSERS), "s"),
            "formats.emit_s": (sum(total[n] for n in EMITTERS), "s"),
            "formats.bytes": (c["bytes"], "count"),
            "report.verify_self_s": (self_time["report.verify_map"], "s"),
            "report.render_s": (total["report.Report.render"], "s"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
        layers = sorted({name.split(".")[0] for name in self_time})
        self_by_layer = {layer: layer_self(layer) for layer in layers}
        return metrics, self_by_layer
