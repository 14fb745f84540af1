"""Span recording from outside the program.

`Tracer.install` replaces functions of `dyncount` with timing wrappers,
and `Tracer.uninstall` puts the originals back. The wrappers go where the
calling code looks the names up: `engine.py` imports `make_key` from
`cache`, so the engine's searches call `dyncount.engine.make_key`, and
wrapping `dyncount.cache.make_key` would record nothing. Methods are looked up on their class, and the benchmark
itself calls `dimacs.parse_dimacs`, `formula.primal_graph` and the like
through their modules, so wrapping those module attributes records its
own calls as well.

Spans are kept in flat arrays in memory and written out once at the end.
The program is single-threaded and the benchmark drives it from one
thread, so spans nest strictly and no layer ever waits on another: a
layer's time is busy time, and there is no wait time to report.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array

# (object the call site looks the name up on, attribute, span name).
# The span name is "<defining module>.<function>", which is also the
# prefix of the per-layer metrics that read it.
CALL_SITES = (
    ("dyncount.engine", "count", "engine.count"),
    ("dyncount.engine", "unit_propagate", "engine.unit_propagate"),
    ("dyncount.engine", "make_key", "cache.make_key"),
    ("dyncount.engine", "decompose_components", "formula.decompose_components"),
    ("dyncount.engine", "vars_of", "formula.vars_of"),
    ("dyncount.engine", "select_branch_variable", "heuristics.select_branch_variable"),
    ("dyncount.cache:ComponentCache", "lookup", "cache.lookup"),
    ("dyncount.cache:ComponentCache", "store", "cache.store"),
    ("dyncount.session:Session", "apply_op", "session.apply_op"),
    ("dyncount.session:Session", "apply_batch", "session.apply_batch"),
    ("dyncount.session:Session", "checkpoint_count", "session.checkpoint_count"),
    ("dyncount.session", "primal_graph", "formula.primal_graph"),
    ("dyncount.session", "compute_tree_decomposition",
     "heuristics.compute_tree_decomposition"),
    ("dyncount.argumentation", "perturb", "argumentation.perturb"),
    ("dyncount.argumentation", "encode_complete", "argumentation.encode_complete"),
    ("dyncount.argumentation", "dynamic_sequence", "argumentation.dynamic_sequence"),
    ("dyncount.formula", "primal_graph", "formula.primal_graph"),
    ("dyncount.heuristics", "compute_tree_decomposition",
     "heuristics.compute_tree_decomposition"),
    ("dyncount.dimacs", "parse_dimacs", "dimacs.parse_dimacs"),
)

NO_PARENT = -1


def _resolve(where):
    module_name, _, class_name = where.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    if class_name:
        owner = getattr(owner, class_name, None)
    return owner


class Tracer:
    """Records (name, start, end, parent span, op id) for every wrapped call."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = NO_PARENT      # set by OpTimer; -1 outside ops
        self._stack = [NO_PARENT]
        self.missing = []           # call sites that no longer exist
        self._sites = []            # (owner, attribute, original, wrapper)
        for where, attr, span_name in CALL_SITES:
            owner = _resolve(where)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append("%s.%s" % (where.replace(":", "."), attr))
            else:
                self._sites.append((owner, attr, fn, self.wrap(fn, span_name)))

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, span_name):
        nid = self._name_id(span_name)
        names, starts, ends = self.name, self.start, self.end
        parents, ops, stack = self.parent, self.op, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        """Put the wrappers in place at every call site that exists."""
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        """Put the original functions back."""
        for owner, attr, fn, _ in self._sites:
            setattr(owner, attr, fn)

    def layer_totals(self, ops_only=False):
        """{span name: (self seconds, calls)} over the recorded spans.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so children never overlap. With
        `ops_only`, spans recorded outside any op (set-up) are left out.
        """
        n = len(self.start)
        duration = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * n
        for i, p in enumerate(self.parent):
            if p != NO_PARENT:
                covered[p] += duration[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i, nid in enumerate(self.name):
            if ops_only and self.op[i] == NO_PARENT:
                continue
            self_s[nid] += duration[i] - covered[i]
            calls[nid] += 1
        return {name: (self_s[nid], calls[nid]) for nid, name in enumerate(self.names)}

    def write(self, path, header):
        """Write all spans as gzipped JSON columns; times are relative seconds.

        Columns are written in chunks, so writing never holds a second copy
        of every span in memory.
        """
        origin = self.start[0] if len(self.start) else 0.0
        doc = dict(header, names=self.names, missing_call_sites=self.missing)
        columns = {
            "name": (self.name, str),
            "start": (self.start, lambda t: "%.9f" % (t - origin)),
            "end": (self.end, lambda t: "%.9f" % (t - origin)),
            "parent": (self.parent, str),
            "op": (self.op, str),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(doc)[:-1] + ', "spans": {')
            for k, (name, (values, fmt)) in enumerate(columns.items()):
                fh.write('%s"%s": [' % (", " if k else "", name))
                for i in range(0, len(values), 65536):
                    if i:
                        fh.write(",")
                    fh.write(",".join(map(fmt, values[i:i + 65536])))
                fh.write("]")
            fh.write("}}")
