"""Span and counter recorder for the traced benchmark run.

The recorder lives outside the package: it replaces public functions of the
codedpir modules with timing wrappers. Most calls inside the package go
through `from .x import y` aliases, so installing a wrapper also rebinds every
module attribute that still points at the original function; without that,
layers such as `fields.mat_rank` called from `codes` would read zero.

Each span keeps its name, start, end, parent span and operation id in memory
(compact arrays); self time is derived from the spans when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name); attributes with a dot are class methods.
# Scalar field arithmetic (FiniteField.add/mul) is deliberately absent: it runs
# tens of millions of times per pass and a wrapper would swamp the trace.
TARGETS = [
    ("fields", "mat_rank", "fields.mat_rank"),
    ("fields", "mat_rref", "fields.mat_rref"),
    ("fields", "mat_mul", "fields.mat_mul"),
    ("fields", "mat_solve", "fields.mat_solve"),
    ("fields", "FiniteField.extension", "fields.FiniteField.extension"),
    ("codes", "LinearCode.erasure_correctable", "codes.erasure_correctable"),
    ("codes", "LinearCode.min_distance", "codes.min_distance"),
    ("codes", "LinearCode.encode", "codes.encode"),
    ("codes", "LinearCode.decode_erasures", "codes.decode_erasures"),
    ("codes", "LinearCode.message_from_information_set",
     "codes.message_from_information_set"),
    ("optimizer", "compute_erasure_pattern_list",
     "optimizer.compute_erasure_pattern_list"),
    ("optimizer", "compute_matrix", "optimizer.compute_matrix"),
    ("ratematrix", "validate_rate_matrix", "ratematrix.validate_rate_matrix"),
    ("ratematrix", "interference_matrices", "ratematrix.interference_matrices"),
    ("protocol1", "p1_plan", "protocol1.p1_plan"),
    ("protocol1", "p1_symmetry_audit", "protocol1.p1_symmetry_audit"),
    ("protocol1", "p1_answer", "protocol1.p1_answer"),
    ("protocol1", "p1_decode", "protocol1.p1_decode"),
    ("protocol2", "p2_queries", "protocol2.p2_queries"),
    ("protocol2", "p2_respond", "protocol2.p2_respond"),
    ("protocol2", "p2_decode", "protocol2.p2_decode"),
    ("protocol3", "p3_queries", "protocol3.p3_queries"),
    ("protocol3", "p3_respond", "protocol3.p3_respond"),
    ("protocol3", "p3_decode", "protocol3.p3_decode"),
    ("dss", "Dss.__init__", "dss.Dss"),
    ("dss", "Dss.node_content", "dss.Dss.node_content"),
    ("dss", "run", "dss.run"),
    ("rng", "rng_for", "rng.rng_for"),
]

# counters fed from return values: span name -> (counter name, value of result)
COUNTERS = {
    "codes.erasure_correctable": ("hits", lambda r: 1 if r else 0),
    "optimizer.compute_erasure_pattern_list": ("patterns", len),
    "optimizer.compute_matrix": ("feasible", lambda r: 0 if r is None else 1),
}


def _row_name(prefix):
    """Span name of a table row: the layer plus the fixture's name."""
    return lambda args, kwargs: f"{prefix}.{(args[0] if args else kwargs['fixture'])['name']}"


# wrapped with one span name per fixture
NAMED_TARGETS = [
    ("reports", "noncolluding_row", _row_name("reports.noncolluding_row")),
    ("reports", "colluding_row", _row_name("reports.colluding_row")),
]


class Recorder:
    """In-memory spans plus result counters for the wrapped functions."""

    def __init__(self, clock):
        self.clock = clock   # timestamps for spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self.counters: dict[tuple[str, str], int] = {}
        self.op = 0
        self._stack: list[int] = []

    def clear(self) -> None:
        """Drop every span and counter (names are kept)."""
        for arr in (self.name_ids, self.starts, self.ends, self.parents, self.ops):
            del arr[:]
        self.counters.clear()

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> int:
        idx = len(self.starts)
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open(name)
        self.starts[idx] = self.clock()
        try:
            yield
        finally:
            self.ends[idx] = self.clock()
            self._stack.pop()

    def wrap(self, fn, name_of, counter=None):
        """Timing wrapper for fn; name_of(args, kwargs) gives the span name."""
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            idx = self._open(name)
            self.starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._stack.pop()
            if counter is not None:
                key = (name, counter[0])
                self.counters[key] = self.counters.get(key, 0) + counter[1](result)
            return result

        return wrapper

    @contextmanager
    def installed(self, package):
        """Wrap every target in `package` (and rebind its aliases) for the block."""
        undo = []
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        try:
            for mod_name, attr, name in TARGETS:
                counter = COUNTERS.get(name)
                self._install(package, mod_name, attr,
                              lambda a, k, _n=name: _n, counter, modules, undo)
            for mod_name, attr, name_of in NAMED_TARGETS:
                self._install(package, mod_name, attr, name_of, None, modules, undo)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _install(self, package, mod_name, attr, name_of, counter, modules, undo):
        module = getattr(package, mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, self.wrap(original, name_of, counter))
            return
        original = getattr(module, attr)
        wrapper = self.wrap(original, name_of, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def summary(self, scale=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (wall) seconds and self seconds, each
        span's times multiplied by scale(start, end) when given."""
        n = len(self.starts)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            name = self.names[self.name_ids[i]]
            stat = out.get(name)
            if stat is None:
                stat = out[name] = {"calls": 0, "wall_s": 0.0, "self_s": 0.0}
            dur = ends[i] - starts[i]
            k = scale(starts[i], ends[i]) if scale else 1.0
            stat["calls"] += 1
            stat["wall_s"] += dur * k
            stat["self_s"] += (dur - child[i]) * k
        for (name, counter), value in self.counters.items():
            out.setdefault(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0})[counter] = value
        return out

    def write(self, path: Path) -> None:
        """All spans as gzip'd tab-separated lines: op, name, parent, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("op\tname\tparent\tstart\tend\n")
            names = self.names
            for i in range(len(self.starts)):
                out.write(f"{self.ops[i]}\t{names[self.name_ids[i]]}\t{self.parents[i]}"
                          f"\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")
