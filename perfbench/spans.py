"""Per-layer span tracing, installed from outside the library.

The layers are the modules of the `quasiadj` package.  `Tracer.install`
wraps every public module-level function of every layer, in every module
namespace that bound it (`from .ratgeom import lp_maximize` binds the same
function in `quasiadjunction` too), and `uninstall` puts the originals
back, so an untraced run executes the library exactly as shipped.

Each call records a span (name, start, end, parent, query id) in flat
arrays kept in memory; `write` saves them when the run ends.  Methods of
classes are not wrapped: their time counts towards the function that
called them.  A generator function gets one span per resumption, so the
work done while producing each item is charged to its own layer.
"""

from __future__ import annotations

import inspect
import json
import time
import types
from array import array
from collections import defaultdict

LAYERS = ("cli", "resolution", "quasiadjunction", "ratgeom", "charvariety", "covers", "koszul", "cyclotomic")


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(getattr(obj, "__wrapped__", None), types.FunctionType)


def _matrix_entries(args, kwargs, result) -> int:
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    return len(rows) * len(rows[0]) if rows else 0


# counters read from call arguments or return values: span name -> (counter, probe)
PROBES = {
    "quasiadjunction.faces_of_quasiadjunction": ("quasiadjunction.faces", lambda a, k, res: len(res)),
    "cyclotomic.matrix_rank": ("cyclotomic.rank_entries", _matrix_entries),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.qids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.qid = -1
        self.counters: dict[str, int] = defaultdict(int)
        self.wrappers: dict[int, object] = {}

    # -- installation -------------------------------------------------------

    def install(self, package, modules: dict) -> callable:
        """Wrap the public functions of `modules` (layer name -> module) in
        every namespace of `package` and its layers; return the undo."""
        homes = {mod.__name__: layer for layer, mod in modules.items()}
        wrappers = self.wrappers
        restore = []
        for namespace in [package, *modules.values()]:
            for name, obj in list(vars(namespace).items()):
                if name.startswith("_") or not _is_function(obj):
                    continue
                layer = homes.get(getattr(obj, "__module__", None))
                if layer is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap("%s.%s" % (layer, obj.__name__), obj)
                restore.append((namespace, name, obj))
                setattr(namespace, name, wrappers[id(obj)])

        def uninstall():
            for namespace, name, obj in restore:
                setattr(namespace, name, obj)

        return uninstall

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter, probe = PROBES.get(name, (None, None))
        counters = self.counters
        name_ids, parents, qids = self.name_ids, self.parents, self.qids
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter

        def open_span() -> int:
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            qids.append(self.qid)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def close_span(idx: int) -> None:
            ends[idx] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                idx = open_span()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span(idx)
                if probe is not None:
                    counters[counter] += probe(args, kwargs, result)
                return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts and inclusive seconds, per-layer self
        seconds, and per-query root durations and self-time sums."""
        count = len(self.starts)
        child = [0.0] * count
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(count):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        root_s: dict[int, float] = defaultdict(float)
        roots: dict[int, int] = defaultdict(int)
        query_self_s: dict[int, float] = defaultdict(float)
        for i in range(count):
            name = self.names[self.name_ids[i]]
            dur = ends[i] - starts[i]
            calls[name] += 1
            if not self._nested_in_same(i):
                inclusive[name] += dur
            own = dur - child[i]
            self_s[name.split(".", 1)[0]] += own
            query_self_s[self.qids[i]] += own
            if parents[i] < 0:
                root_s[self.qids[i]] += dur
                roots[self.qids[i]] += 1
        return {
            "spans": count,
            "calls": calls,
            "inclusive_s": inclusive,
            "self_s": self_s,
            "root_s": root_s,
            "roots": roots,
            "query_self_s": query_self_s,
        }

    def _nested_in_same(self, i: int) -> bool:
        """Whether span i runs inside another span of the same function
        (recursion), so that its time is already in the outer one."""
        name_id = self.name_ids[i]
        p = self.parents[i]
        while p >= 0:
            if self.name_ids[p] == name_id:
                return True
            p = self.parents[p]
        return False

    def write(self, path, header: dict) -> None:
        """Save the spans as JSON: a name table plus one column per field."""
        doc = dict(header)
        doc["names"] = self.names
        doc["columns"] = {
            "name": self.name_ids.tolist(),
            "start": self.starts.tolist(),
            "end": self.ends.tolist(),
            "parent": self.parents.tolist(),
            "query": self.qids.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
