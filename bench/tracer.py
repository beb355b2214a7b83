"""Spans around the public functions of each spcheck module.

The tracer wraps functions from outside, under every name a module
looks them up by (``spkey`` imports ``build_extension_graph`` by name,
for example), so nothing in the package changes. A span records its
name, start, end and parent span; a few spans also record a count read
from the call's arguments or return value. Spans stay in memory until
the run ends. A layer's time is its self time: the span's
duration minus the time its child spans cover, including the tracer's
own bookkeeping inside them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "spcheck"

# (module, attribute, span name); "IncompleteTable.x" names a method.
TARGETS = [
    ("cli", "load_csv", "cli.load_csv"),
    ("cli", "run", "cli.run"),
    ("table", "IncompleteTable.with_rows_removed", "table.with_rows_removed"),
    ("table", "IncompleteTable.with_rows_added", "table.with_rows_added"),
    ("matching", "build_extension_graph", "matching.build_extension_graph"),
    ("matching", "max_matching", "matching.max_matching"),
    ("matching", "hopcroft_karp", "matching.hopcroft_karp"),
    ("matching", "hall_components", "matching.hall_components"),
    ("spkey", "check_spkey", "spkey.check"),
    ("spkey", "g3_spkey", "spkey.g3"),
    ("spkey", "g4_spkey", "spkey.g4"),
    ("spkey", "g5_spkey", "spkey.g5"),
    ("spfd", "check_spfd", "spfd.check"),
    ("spfd", "g3_spfd", "spfd.g3"),
    ("spfd", "g5_spfd", "spfd.g5"),
    ("tuplegen", "check_spmvd", "tuplegen.check"),
    ("tuplegen", "check_spcj_general", "tuplegen.check"),
    ("tuplegen", "check_spcj_singular", "tuplegen.check"),
    ("tuplegen", "check_nmvd", "tuplegen.check"),
    ("tuplegen", "g3_spmvd", "tuplegen.g3"),
    ("tuplegen", "g3_spcj", "tuplegen.g3"),
    ("tuplegen", "g5_spmvd", "tuplegen.g5"),
    ("tuplegen", "g5_spcj", "tuplegen.g5"),
    ("oracle", "oracle_check", "oracle.check"),
    ("oracle", "oracle_g3", "oracle.g3"),
    ("oracle", "oracle_g5", "oracle.g5"),
]

# Per-layer time metrics -> the span names whose self times they add up.
SELF_MS = {
    "cli.load_csv_ms": ["cli.load_csv"],
    "cli.report_ms": ["request"],
    "matching.graph_build_ms": ["matching.build_extension_graph"],
    "matching.matching_ms": ["matching.max_matching", "matching.hopcroft_karp"],
    "matching.hall_ms": ["matching.hall_components"],
    "spkey.check_ms": ["spkey.check"],
    "spkey.g3_ms": ["spkey.g3"],
    "spkey.g4_ms": ["spkey.g4"],
    "spkey.g5_ms": ["spkey.g5"],
    "spfd.check_ms": ["spfd.check"],
    "spfd.g3_ms": ["spfd.g3"],
    "spfd.g5_ms": ["spfd.g5"],
    "tuplegen.check_ms": ["tuplegen.check"],
    "tuplegen.g3_ms": ["tuplegen.g3"],
    "tuplegen.g5_ms": ["tuplegen.g5"],
    "oracle.check_ms": ["oracle.check"],
    "oracle.g3_ms": ["oracle.g3"],
    "oracle.g5_ms": ["oracle.g5"],
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "covered", "count", "error")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.covered = 0.0  # child durations plus tracer time spent in them
        self.count = 0
        self.error = None

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.covered


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.report_bytes = 0
        self.key_constraints = 0

    # -- recording ------------------------------------------------------------

    def call(self, name, fn, args, kwargs, counter=None):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, parent, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:
            span.error = type(err).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
            if parent is not None:
                parent.covered += span.end - span.start
        if counter is not None:
            span.count = counter(args, result)
            if parent is not None:
                parent.covered += time.perf_counter() - span.end
        return result

    def install(self) -> None:
        """Replace each target under every name that refers to it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        oracle = sys.modules[PACKAGE + ".oracle"]
        counters = {
            "matching.build_extension_graph": _graph_counts,
            "oracle.check": lambda args, _: oracle.world_count(args[0]),
        }
        for module_name, attr, name in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            owner, _, attr = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            original = getattr(holder, attr)
            wrapper = self._wrap(name, original, counters.get(name))
            if owner:
                setattr(holder, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, counter)

        return wrapper

    # -- metrics --------------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics for one pass over the request list."""
        self_ms: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for span in self.spans:
            self_ms[span.name] += span.self_time * 1000.0
            calls[span.name] += 1
        out = {}
        for metric, names in SELF_MS.items():
            out[metric] = (sum(self_ms[n] for n in names) / rounds, "ms")
        builds = [s for s in self.spans
                  if s.name == "matching.build_extension_graph" and s.error is None]
        edges = sum(s.count[0] for s in builds)
        high = sum(s.count[1] for s in builds)
        graph_rows = sum(s.count[2] for s in builds)
        parent_is = lambda s, names: s.parent is not None and s.parent.name in names
        out.update({
            "cli.report_mb": (self.report_bytes / 1e6 / rounds, "MB"),
            "table.derived_tables": ((calls["table.with_rows_removed"]
                                      + calls["table.with_rows_added"]) / rounds, "count"),
            "matching.graph_builds": (len(builds) / rounds, "count"),
            "matching.builds_per_key": (len(builds) / self.key_constraints
                                        if self.key_constraints else 0.0, "ratio"),
            "matching.edges": (edges / rounds, "count"),
            "matching.high_degree_rows": (high / graph_rows if graph_rows else 0.0, "ratio"),
            "spkey.g5_rounds": (sum(1 for s in self.spans if s.name == "spkey.check"
                                    and parent_is(s, ("spkey.g5",))) / rounds, "count"),
            "spfd.check_calls": (calls["spfd.check"] / rounds, "count"),
            "tuplegen.check_calls": (sum(1 for s in self.spans if s.name == "tuplegen.check"
                                         and parent_is(s, ("tuplegen.g3", "tuplegen.g5")))
                                     / rounds, "count"),
            "oracle.check_calls": (calls["oracle.check"] / rounds, "count"),
            "oracle.world_space": (sum(s.count for s in self.spans
                                       if s.name == "oracle.check") / rounds, "count"),
            "oracle.budget_skips": (sum(1 for s in self.spans
                                        if s.name in ("oracle.g3", "oracle.g5")
                                        and s.error == "BudgetExceededError"
                                        and parent_is(s, ("cli.run",))) / rounds, "count"),
        })
        return out


def _graph_counts(args, graph) -> tuple:
    edges = sum(len(v) for v in graph.adjacency.values())
    return edges, len(graph.high_degree_left), graph.table.row_count
