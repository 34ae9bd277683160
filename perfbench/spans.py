"""Spans and counters recorded around arccover's module boundaries.

The tracer runs inside a traced job process. It replaces each boundary
function under every name an arccover module looks it up by (for example
`arccover.report.build_coset_graph`), and wraps a few class methods with
plain counters. Spans (name, start, end, parent, ru_maxrss before and after)
are kept in memory and written out once, with the job's run id, when the job
ends. Nothing under the program's source tree is changed. A target that no
longer exists is skipped, so its metrics read 0.

The arithmetic half (self time, coverage) is plain functions over the
written records, used by run.py and by the self-tests.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from collections import Counter
from typing import Callable, Optional

# (span name, module, attribute) of each function to wrap; the three k4
# criteria share one span name, so their time adds up under one entry
SPAN_FUNCTIONS = (
    ("report.run_job", "arccover.report", "run_job"),
    ("wreath.build_cover_group", "arccover.wreath", "build_cover_group"),
    ("groups.closure", "arccover.groups", "closure"),
    ("groups.conj_intersection", "arccover.groups", "conj_intersection"),
    ("groups.schreier_kernel_generators", "arccover.groups", "schreier_kernel_generators"),
    ("subdirect.subdirect_decompose", "arccover.subdirect", "subdirect_decompose"),
    ("subdirect.k4_criteria", "arccover.subdirect", "k4_block_count"),
    ("subdirect.k4_criteria", "arccover.subdirect", "inverting_automorphism"),
    ("subdirect.k4_criteria", "arccover.subdirect", "cross_automorphism"),
    ("cosetgraph.build_coset_graph", "arccover.cosetgraph", "build_coset_graph"),
    ("cosetgraph.verify_connected", "arccover.cosetgraph", "verify_connected"),
    ("cosetgraph.graph_invariants", "arccover.cosetgraph", "graph_invariants"),
    ("cosetgraph.quotient_graph", "arccover.cosetgraph", "quotient_graph"),
    ("cosetgraph.centralizer_elements", "arccover.cosetgraph", "centralizer_elements"),
    ("cosetgraph.export_graph", "arccover.cosetgraph", "export_graph"),
)

# span name -> (module, class) whose constructor is wrapped
SPAN_CONSTRUCTORS = {
    "groups.TableGroup": ("arccover.groups", "TableGroup"),
    "groups.StabilizerChain": ("arccover.groups", "StabilizerChain"),
}

# counter -> (module, class, method) counted per call
CALL_COUNTERS = {
    "perm.constructions": ("arccover.perm", "Permutation", "__init__"),
    "perm.products": ("arccover.perm", "Permutation", "__mul__"),
    "wreath.products": ("arccover.wreath", "WreathElement", "__mul__"),
}

# canonical coset keys, counted in total and inside build_coset_graph
CANONICAL_KEY = ("arccover.cosetgraph", "_Canonicalizer", "key")

# calls that attempt a link between two components, counted only when made
# from inside subdirect_decompose
LINK_ATTEMPTS = ("extend_to_automorphism", "conjugating_permutations")

def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans and counters for one job process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, rss0, rss1]
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.counters: Counter = Counter()

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, _rss_mb(), None])
        self.stack.append(idx)
        self.active[name] += 1
        return idx

    def close(self, idx: int) -> None:
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        rec[5] = _rss_mb()
        self.stack.pop()
        self.active[rec[0]] -= 1

    def wrap(self, fn: Callable, name: str, on_result: Optional[Callable] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                try:
                    on_result(args, result)
                except (AttributeError, TypeError, IndexError):
                    pass  # the program changed shape: the counter stays put
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, fn: Callable, counter: str) -> Callable:
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Patch every boundary of the already imported arccover package."""
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "arccover" or name.startswith("arccover."))
        }
        on_result = self._result_hooks()
        for span, mod_name, attr in SPAN_FUNCTIONS:
            fn = getattr(modules.get(mod_name), attr, None)
            if fn is not None:
                _rebind(modules, fn, self.wrap(fn, span, on_result.get(attr)))
        for span, (mod_name, cls_name) in SPAN_CONSTRUCTORS.items():
            cls = getattr(modules.get(mod_name), cls_name, None)
            if cls is not None:
                cls.__init__ = self.wrap(cls.__init__, span)
        for counter, (mod_name, cls_name, method) in CALL_COUNTERS.items():
            cls = getattr(modules.get(mod_name), cls_name, None)
            fn = getattr(cls, method, None)
            if fn is not None:
                setattr(cls, method, self.count(fn, counter))
        mod_name, cls_name, method = CANONICAL_KEY
        cls = getattr(modules.get(mod_name), cls_name, None)
        fn = getattr(cls, method, None)
        if fn is not None:
            setattr(cls, method, self._count_keys(fn))
        subdirect = modules.get("arccover.subdirect")
        for attr in LINK_ATTEMPTS:
            fn = getattr(subdirect, attr, None)
            if fn is not None:
                setattr(subdirect, attr, self._count_links(fn))

    def _count_keys(self, fn: Callable) -> Callable:
        counters, active = self.counters, self.active

        def key(*args, **kwargs):
            counters["cosetgraph.key_lookups"] += 1
            if active["cosetgraph.build_coset_graph"]:
                counters["cosetgraph.bfs_key_lookups"] += 1
            return fn(*args, **kwargs)

        return key

    def _count_links(self, fn: Callable) -> Callable:
        counters, active = self.counters, self.active

        def attempt(*args, **kwargs):
            if active["subdirect.subdirect_decompose"]:
                counters["subdirect.link_attempts"] += 1
            return fn(*args, **kwargs)

        return attempt

    def _result_hooks(self) -> dict[str, Callable]:
        c = self.counters

        def vertices(args, graph):
            c["cosetgraph.vertices"] += graph.order

        def export_bytes(args, data):
            c["cosetgraph.export_bytes"] += len(data)

        def closure_elements(args, elements):
            c["groups.closure.elements"] += len(elements)

        def schreier_rows(args, rows):
            # BFS over the n! images of the top projection tries every
            # (representative, generator) pair; n! - 1 of them find a new
            # representative instead of a kernel row
            gens, project, identity = args[0], args[1], args[2]
            images = math.factorial(project(identity).degree)
            c["groups.schreier.rows_kept"] += len(rows)
            c["groups.schreier.rows_attempted"] += images * len(gens) - images + 1

        def links(args, structure):
            c["subdirect.links_accepted"] += sum(1 for link in structure.links if link is not None)

        return {
            "build_coset_graph": vertices,
            "export_graph": export_bytes,
            "closure": closure_elements,
            "schreier_kernel_generators": schreier_rows,
            "subdirect_decompose": links,
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counters": dict(self.counters)}, fh)


def _rebind(modules: dict, fn: Callable, replacement: Callable) -> None:
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, replacement)


# ---------------------------------------------------------------------------
# arithmetic over recorded spans
# ---------------------------------------------------------------------------


def self_times(spans: list) -> dict[str, float]:
    """Per name, the summed span time not covered by the span's children.

    Children of one span run one after another on one thread, so subtracting
    their durations removes exactly the part of the interval they cover.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, *_) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
    return out


def rss_growth_mb(spans: list) -> dict[str, float]:
    """Per name, the summed rise of the process's peak RSS across its spans."""
    out: dict[str, float] = {}
    for name, _, _, _, rss0, rss1 in spans:
        out[name] = out.get(name, 0.0) + (rss1 - rss0)
    return out


def covered_time(spans: list) -> float:
    """Time covered by top-level spans (which never overlap one another)."""
    return sum(end - start for _, start, end, parent, *_ in spans if parent < 0)
