"""Spans around the calls into hamsquare's modules, recorded from outside.

`Tracer.install` replaces each traced public function with a wrapper that
records a span: layer name, start, end (CPU time of the thread, in ns),
parent span and the id of the graph being worked on. Modules import each
other's functions by name (`from .decomposition import decompose`), so the
wrapper is bound in every hamsquare module that holds the function, not
only in the one defining it. Spans stay in memory until the run ends.

A span's self time is its duration minus the part of it that its child spans
cover; on one thread children never overlap, so that part is the sum of the
children's durations.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, layer). `cycle_with` and `path_with` share the layer
# `oracle.search`: both are one exhaustive search of a square.
TRACED = (
    ("graph", "parse_edge_list", "graph.parse_edge_list"),
    ("graph", "Graph.square", "graph.square"),
    ("graph", "is_ham_cycle", "graph.is_ham_cycle"),
    ("graph", "is_ham_path", "graph.is_ham_path"),
    ("decomposition", "decompose", "decomposition.decompose"),
    ("decomposition", "compute_P0", "decomposition.compute_P0"),
    ("caterpillars", "caterpillar_cycle", "caterpillars.caterpillar_cycle"),
    ("caterpillars", "replace_edge_with", "caterpillars.replace_edge_with"),
    ("labelling", "decide_hamiltonicity", "labelling.decide_hamiltonicity"),
    ("labelling", "check_conditions", "labelling.check_conditions"),
    ("hamconn", "decide_hamiltonian_connectedness",
     "hamconn.decide_hamiltonian_connectedness"),
    ("oracle", "cycle_with", "oracle.search"),
    ("oracle", "path_with", "oracle.search"),
    ("construct", "construct_ham_cycle", "construct.construct_ham_cycle"),
    ("construct", "construct_ham_path", "construct.construct_ham_path"),
    ("cli", "run", "cli.run"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TRACED))
SEARCH = "oracle.search"


class Tracer:
    def __init__(self):
        # (layer, start_ns, end_ns, parent index or -1, graph id, phase,
        #  found) with found set only for oracle searches
        self.spans: list = []
        self._stack: list[int] = []
        self.gid = None
        self.phase = None

    def _wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.thread_time_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            res = None
            start = clock()
            try:
                res = fn(*args, **kwargs)
                return res
            finally:
                end = clock()
                stack.pop()
                found = (res is not None) if layer == SEARCH else None
                spans[idx] = (layer, start, end, parent, self.gid,
                              self.phase, found)

        return traced

    def install(self, package: str = "hamsquare") -> None:
        mods = [m for name, m in list(sys.modules.items())
                if name == package or name.startswith(package + ".")]
        for mod_name, attr, layer in TRACED:
            home = sys.modules[f"{package}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self._wrap(layer, getattr(cls, meth)))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(layer, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    def self_times(self) -> list[int]:
        """Self time in ns of every span, in span order."""
        child = [0] * len(self.spans)
        for layer, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, *_), c
                in zip(self.spans, child)]

    def layer_table(self, passes: int, scale: float = 1.0) -> dict:
        """Per layer: calls and self time of one timed pass (the mean over
        the run's passes), plus those of the set-up parse of the inputs,
        which runs once. Warm-up spans are left out. Self times are
        multiplied by `scale`."""
        once = defaultdict(lambda: [0, 0])
        timed = defaultdict(lambda: [0, 0])
        found = 0
        for span, own in zip(self.spans, self.self_times()):
            layer, phase = span[0], span[5]
            if phase == "warmup":
                continue
            acc = once if phase == "parse" else timed
            acc[layer][0] += 1
            acc[layer][1] += own
            found += bool(span[6])
        table = {}
        for layer in LAYERS:
            calls, ns = timed[layer]
            table[layer] = {
                "calls": once[layer][0] + calls // passes,
                "self_ms": (once[layer][1] + ns / passes) * scale / 1e6}
        searches = timed[SEARCH][0]
        table[SEARCH]["found_ratio"] = found / searches if searches else 0.0
        return table
