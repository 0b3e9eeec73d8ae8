"""Runtime span tracing of cmgraph's layers, installed from the benchmark.

The program's source is left untouched.  :meth:`Tracer.install` replaces each
traced function at every binding inside the ``cmgraph`` package (the
defining module and every module that imported it by name), and
:func:`Tracer.uninstall` puts the originals back.  Spans are aggregated
in memory as they close, keyed by the metric name they feed: calls,
inclusive time and self time (inclusive time minus the time of child
spans).  Nothing is written until the run ends.
"""

from __future__ import annotations

import sys
import weakref
from math import comb
from time import perf_counter

# (span name, module, attribute).  One span name may cover several functions.
SPANS = [
    ("kernel.separated", "cmgraph.kernel", "separated"),
    ("kernel.all_pair", "cmgraph.kernel", "all_pair_separations"),
    ("kernel.exists_separator", "cmgraph.kernel", "exists_separator"),
    ("separation.c_separated", "cmgraph.separation", "c_separated"),
    ("separation.require_cmg", "cmgraph.separation", "_require_cmg"),
    ("separation.mask_tables", "cmgraph.separation", "_mask_tables"),
    ("separation.witness", "cmgraph.separation", "c_connecting_witness"),
    ("separation.pairwise_model", "cmgraph.separation", "pairwise_model"),
    ("separation.is_maximal", "cmgraph.separation", "is_maximal"),
    ("separation.non_maximality_witness", "cmgraph.separation", "non_maximality_witness"),
    ("graph.cycle_check", "cmgraph.graph", "has_semidirected_cycle_with_arrow"),
    ("graph.classify", "cmgraph.graph", "classify"),
    ("graph.anteriors", "cmgraph.graph", "anteriors"),
    ("transform.marginalize.flank", "cmgraph.transform", "_marginalize_flank_stage"),
    ("transform.marginalize.tripath", "cmgraph.transform", "_marginalize_tripath_stage"),
    ("transform.condition.arc_flank", "cmgraph.transform", "_condition_arc_flank_stage"),
    ("transform.condition.collider", "cmgraph.transform", "_condition_collider_stage"),
    ("transform.condition.strip", "cmgraph.transform", "_condition_strip_heads"),
    ("transform.anterialize.generate", "cmgraph.transform", "_ang_generate"),
    ("transform.anterialize.resolve", "cmgraph.transform", "_ang_resolve_arcs"),
    ("transform.require_cmg", "cmgraph.transform", "_require_cmg"),
    ("transform.oracles", "cmgraph.transform", "marginal_edge_oracle"),
    ("transform.oracles", "cmgraph.transform", "conditional_edge_oracle"),
    ("transform.oracles", "cmgraph.transform", "subprimitive_walk_exists"),
    ("transform.projection_class", "cmgraph.transform", "in_cg_projection_class"),
    ("transform.projection_class", "cmgraph.transform", "in_ang_projection_class"),
    ("propcheck.generate", "cmgraph.propcheck", "_instance"),
    ("propcheck.generate", "cmgraph.propcheck", "_random_subsets"),
    ("propcheck.shrink", "cmgraph.propcheck", "shrink_instance"),
    ("graphio.parse", "cmgraph.graphio", "parse"),
]

# Methods of the rule engines' edge store, wrapped on the class.
METHOD_SPANS = [
    ("transform.work.build", "__init__"),
    ("transform.work.to_graph", "to_graph"),
]

# Counted but not timed: called too often for a span to be cheap.
COUNTED_METHODS = [("transform.line_reach", "line_reach")]


class Tracer:
    """Span aggregation plus the per-call counters some metrics need."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self._stack: list[list] = []  # [name, start, child time]
        self.all_pair_queries = 0
        self._cycle_graphs: dict[int, weakref.ref] = {}
        self.cycle_distinct = 0
        self._restore: list[tuple[object, str, object]] = []
        self._mask_cache = None
        self._mask_cache_before = None

    def _span(self, name: str, fn, on_call=None):
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time
        calls.setdefault(name, 0)
        total.setdefault(name, 0.0)
        self_time.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += dur
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[2]

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_all_pair(self, args) -> None:
        n = args[0]
        self.all_pair_queries += comb(n, 2) * 2 ** (n - 2)

    def _note_cycle_graph(self, args) -> None:
        g = args[0]
        ref = self._cycle_graphs.get(id(g))
        if ref is None or ref() is not g:
            self._cycle_graphs[id(g)] = weakref.ref(g)
            self.cycle_distinct += 1

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        self._mask_cache = sys.modules["cmgraph.separation"]._mask_tables
        hooks = {
            "kernel.all_pair": self._count_all_pair,
            "graph.cycle_check": self._note_cycle_graph,
        }
        package = [m for k, m in sys.modules.items() if k == "cmgraph" or k.startswith("cmgraph.")]
        for name, module, attr in SPANS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._span(name, original, hooks.get(name))
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)
        work = sys.modules["cmgraph.transform"]._Work
        for name, attr in METHOD_SPANS:
            self._replace(work, attr, self._span(name, getattr(work, attr)))
        for name, attr in COUNTED_METHODS:
            self._replace(work, attr, self._counter(name, getattr(work, attr)))
        self._mask_cache_before = self._mask_cache.cache_info()

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics this trace measured, by name, with units."""
        def s(name):
            return self.total.get(name, 0.0)

        def self_s(name):
            return self.self_time.get(name, 0.0)

        def calls(name):
            return self.calls.get(name, 0)

        info = self._mask_cache.cache_info()
        hits = info.hits - self._mask_cache_before.hits
        misses = info.misses - self._mask_cache_before.misses
        all_pair_s = self_s("kernel.all_pair")
        out = {
            "kernel.separated.calls": (calls("kernel.separated"), "count"),
            "kernel.separated.self_s": (self_s("kernel.separated"), "s"),
            "kernel.all_pair.self_s": (all_pair_s, "s"),
            "kernel.all_pair.queries_per_s": (
                self.all_pair_queries / all_pair_s if all_pair_s else 0.0,
                "1/s",
            ),
            "kernel.exists_separator.self_s": (self_s("kernel.exists_separator"), "s"),
            "separation.c_separated.calls": (calls("separation.c_separated"), "count"),
            "separation.c_separated.self_s": (self_s("separation.c_separated"), "s"),
            "separation.require_cmg.s": (s("separation.require_cmg"), "s"),
            "separation.mask_tables.s": (s("separation.mask_tables"), "s"),
            "separation.mask_tables.hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0,
                "1",
            ),
            "separation.witness.s": (s("separation.witness"), "s"),
            "separation.pairwise_model.self_s": (self_s("separation.pairwise_model"), "s"),
            "separation.is_maximal.s": (s("separation.is_maximal"), "s"),
            "separation.non_maximality_witness.s": (
                s("separation.non_maximality_witness"),
                "s",
            ),
            "graph.cycle_check.calls": (calls("graph.cycle_check"), "count"),
            "graph.cycle_check.s": (s("graph.cycle_check"), "s"),
            "graph.cycle_check.distinct_ratio": (
                self.cycle_distinct / calls("graph.cycle_check")
                if calls("graph.cycle_check")
                else 0.0,
                "1",
            ),
            "graph.classify.self_s": (self_s("graph.classify"), "s"),
            "graph.anteriors.calls": (calls("graph.anteriors"), "count"),
            "graph.anteriors.s": (s("graph.anteriors"), "s"),
        }
        for stage in (
            "marginalize.flank",
            "marginalize.tripath",
            "condition.arc_flank",
            "condition.collider",
            "condition.strip",
            "anterialize.generate",
            "anterialize.resolve",
            "work.build",
            "work.to_graph",
            "require_cmg",
            "oracles",
            "projection_class",
        ):
            out[f"transform.{stage}.s"] = (s(f"transform.{stage}"), "s")
        out["transform.line_reach.calls"] = (calls("transform.line_reach"), "count")
        out["propcheck.generate.s"] = (s("propcheck.generate"), "s")
        out["propcheck.shrink.s"] = (s("propcheck.shrink"), "s")
        out["graphio.parse.s"] = (s("graphio.parse"), "s")
        return out
