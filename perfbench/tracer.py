"""In-memory spans around PerfTrack's layer boundaries, for traced runs.

Untraced runs never import this module's wrappers into the program.  A
traced run calls :meth:`Tracer.install`, which replaces public functions
and methods of ``repro.ptdf``, ``repro.core``, ``repro.dbapi`` and
``repro.minidb`` with timing wrappers *from the outside* (every module
binding of a function is swapped, so ``from x import f`` call sites are
covered too), and :meth:`Tracer.uninstall` puts the originals back.

Each benchmark operation opens an ``op.<kind>`` span; layer spans nest
under it.  A span's self time is its duration minus the time its child
spans cover; a layer's busy time in an operation is the time of its
outermost spans.  ``Backend.query``, ``query_one`` and ``scalar`` are
``dbapi.query`` spans, so the rows they fetch after ``execute`` returns
count as backend time.  Row-by-row cursor reads (``Backend.stream``) are
timed as unpersisted ``dbapi.stream`` spans so that they count as backend
time without storing one span per row.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from collections import Counter, defaultdict

#: Spans kept in memory for the trace file; beyond this only the
#: aggregates are kept (the count of dropped spans is written out).
MAX_SPANS = 200_000


class OpStats:
    """Aggregates over every traced operation of one kind."""

    def __init__(self) -> None:
        self.n = 0
        self.seconds = 0.0
        #: span name, or "layer:<prefix>", -> time of its outermost spans
        self.total = Counter()
        self.self_time = Counter()  # span name -> self time
        self.calls = Counter()  # span name or counter -> count


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.dropped = 0
        self.ops: dict = defaultdict(OpStats)
        self.absent: list = []
        self.gc_pauses: list = []
        self._stack: list = []  # [name, start, covered, span index]
        self._depth = Counter()  # name -> open spans of that name
        self._cur = None
        self._op_id = 0
        self._patched: list = []
        self._gc_start = None

    # -- spans ------------------------------------------------------------------

    def enter(self, name: str, persist: bool = True) -> None:
        idx = -1
        if persist:
            if len(self.spans) < MAX_SPANS:
                parent = self._stack[-1][3] if self._stack else -1
                idx = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent, self._op_id])
            else:
                self.dropped += 1
        self._depth[name] += 1
        self._depth["layer:" + name.split(".", 1)[0]] += 1
        self._stack.append([name, time.perf_counter(), 0.0, idx])

    def exit(self) -> float:
        end = time.perf_counter()
        name, start, covered, idx = self._stack.pop()
        dur = end - start
        if idx >= 0:
            self.spans[idx][1:3] = [start, end]
        if self._stack:
            self._stack[-1][2] += dur
        layer = "layer:" + name.split(".", 1)[0]
        self._depth[name] -= 1
        self._depth[layer] -= 1
        cur = self._cur
        if cur is not None:
            cur.self_time[name] += dur - covered
            if self._depth[name] == 0:
                cur.total[name] += dur
            if self._depth[layer] == 0:
                cur.total[layer] += dur
            cur.calls[name] += 1
        return dur

    def begin_op(self, kind: str) -> None:
        self._op_id += 1
        self._cur = self.ops[kind]
        self.enter("op." + kind)

    def end_op(self) -> None:
        cur = self._cur
        cur.seconds += self.exit()
        cur.n += 1
        self._cur = None

    def count(self, name: str, n: int = 1) -> None:
        if self._cur is not None:
            self._cur.calls[name] += n

    def snapshot(self) -> dict:
        """Per-kind (operation count, call counts) as they stand now."""
        return {k: (v.n, Counter(v.calls)) for k, v in self.ops.items()}

    def inside(self, name: str) -> bool:
        return self._depth[name] > 0

    # -- wrappers -----------------------------------------------------------------

    def _wrap(self, span: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._cur is None:
                return fn(*args, **kwargs)
            tracer.enter(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _swap(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_function(self, module: str, name: str, span: str, after=None) -> None:
        """Wrap ``module.name`` and every other ``repro`` binding of it."""
        mod = sys.modules.get(module)
        fn = getattr(mod, name, None) if mod is not None else None
        if fn is None:
            self.absent.append(f"{module}.{name}")
            return
        self._swap_everywhere(fn, self._wrap(span, fn, after))

    def _swap_everywhere(self, fn, wrapper) -> None:
        for mname, m in list(sys.modules.items()):
            if m is None or not (mname == "repro" or mname.startswith("repro.")):
                continue
            for attr, value in list(vars(m).items()):
                if value is fn:
                    self._swap(m, attr, wrapper)

    def patch_method(self, cls, name: str, span: str, after=None, wrap=None) -> None:
        """Wrap ``cls.name`` with a span, or with ``wrap(original)`` if given."""
        fn = cls.__dict__.get(name)
        if fn is None:
            self.absent.append(f"{cls.__name__}.{name}")
            return
        self._swap(cls, name, wrap(fn) if wrap else self._wrap(span, fn, after))

    def patch_counter(self, module: str, name: str, counter: str) -> None:
        """Count calls of a module function (no span: it runs per line)."""
        mod = sys.modules.get(module)
        fn = getattr(mod, name, None) if mod is not None else None
        if fn is None:
            self.absent.append(f"{module}.{name}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            cur = tracer._cur
            if cur is not None:
                cur.calls[counter] += 1
            return fn(*args, **kwargs)

        self._swap_everywhere(fn, wrapper)

    def _wrap_stream(self, fn):
        tracer = self

        def stream(*args, **kwargs):
            if tracer._cur is None:
                yield from fn(*args, **kwargs)
                return
            gen = fn(*args, **kwargs)
            try:
                while True:
                    tracer.enter("dbapi.stream", persist=False)
                    try:
                        row = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    yield row
            finally:
                gen.close()

        return stream

    def _wrap_execute(self, span: str, fn):
        tracer = self

        def execute(backend, sql, params=(), *rest):
            if tracer._cur is None:
                return fn(backend, sql, params, *rest)
            if span == "dbapi.execute":
                tracer._cur.calls["dbapi.params"] += len(params)
            if tracer.inside("bulkload.load"):
                tracer._cur.calls["bulkload.write_calls"] += 1
            tracer.enter(span)
            try:
                return fn(backend, sql, params, *rest)
            finally:
                tracer.exit()

        return execute

    def install(self) -> None:
        """Wrap the layer boundaries the per-layer metrics are read from."""
        import repro.cli  # noqa: F401 - make sure every binding is loaded
        import repro.ptdf.lint  # noqa: F401
        from repro.core.bulkload import BulkLoader
        from repro.core.datastore import PTDataStore
        from repro.core.query import QueryEngine
        from repro.dbapi.backends import Backend
        from repro.minidb.index import Index
        from repro.ptdf.lint import Linter

        def snapshot_bytes(args, kwargs, out):
            path = args[1] if len(args) > 1 else kwargs.get("path")
            if path and os.path.exists(path):
                self.count("wal.snapshot_bytes", os.path.getsize(path))

        self.patch_counter("repro.ptdf.parser", "split_fields", "ptdf.split_fields")
        self.patch_function("repro.ptdf.parser", "parse_file", "ptdf.parse")
        self.patch_method(Linter, "lint_lines", "ptdf.lint")
        self.patch_method(BulkLoader, "load", "bulkload.load")
        for name in ("execute", "executemany"):
            self.patch_method(Backend, name, "dbapi." + name,
                              wrap=lambda fn, span="dbapi." + name: self._wrap_execute(span, fn))
        self.patch_method(Backend, "stream", "dbapi.stream", wrap=self._wrap_stream)
        # These fetch rows after their execute span has closed (cursors are
        # lazy), so the row production is timed as backend time here.
        for name in ("query", "query_one", "scalar"):
            self.patch_method(Backend, name, "dbapi.query")
        self.patch_method(Backend, "commit", "dbapi.commit")
        self.patch_method(Backend, "close", "dbapi.close")
        self.patch_method(PTDataStore, "resolve_filter", "query.resolve")
        self.patch_method(QueryEngine, "result_ids", "query.evaluate")
        self.patch_method(QueryEngine, "count_for_family", "query.evaluate")
        self.patch_method(QueryEngine, "fetch_results", "query.fetch")
        self.patch_method(QueryEngine, "free_resources", "query.columns")
        self.patch_method(QueryEngine, "resource_names_of_type_for_result", "query.columns")
        self.patch_function("repro.minidb.wal", "load_snapshot", "wal.load_snapshot")
        self.patch_function("repro.minidb.wal", "write_snapshot", "wal.write_snapshot",
                            after=snapshot_bytes)
        self.patch_method(Index, "rebuild", "wal.index_rebuild")
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def _gc_callback(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pauses.append(time.perf_counter() - self._gc_start)
            self._gc_start = None

    def write(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = dict(extra)
        doc["spans_dropped"] = self.dropped
        doc["absent"] = sorted(set(self.absent))
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "op"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
