"""Workloads: PerfTrack's public entry points, in process, one client.

Loads go through ``repro.cli.main(["load", ...])`` and cold queries through
``main(["query", "--count-only", ...])``; the GUI's open-store path is
``PTDataStore`` + ``QueryEngine``.  Every timed operation is checked
against :mod:`perfbench.oracle` after its clock stops.

A run is a sequence of rounds (BG/L) or passes (the case study).  Each
runs every operation type, the queries in a seeded interleaving, so a slow
phase of the host hits every metric alike; each timed operation is also
scaled by the host's speed around it (see :mod:`perfbench.speed`).  In a
traced run, rounds alternate untraced and traced: per-layer numbers come
from the traced rounds, and the ratio of traced to untraced medians is
the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import random
import re
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict

from . import corpus as corpus_mod
from .oracle import Mismatch, Model, check_rows
from .speed import SpeedProbe

#: (name, unit, better) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("load_records_per_s", "records/s", "higher"),
    ("open_query_s", "s", "lower"),
    ("point_p50_ms", "ms", "lower"),
    ("point_p95_ms", "ms", "lower"),
    ("family_p50_ms", "ms", "lower"),
    ("family_p95_ms", "ms", "lower"),
    ("meet_p50_ms", "ms", "lower"),
    ("meet_p95_ms", "ms", "lower"),
    ("fetch_rows_per_s", "rows/s", "higher"),
    ("queries_per_s", "ops/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("store_bytes_per_record", "B/record", "lower"),
    ("ops_ok_share", "ratio", "higher"),
)

QUERY_KINDS = ("point", "family", "meet", "fetch")


def _cli(argv: list) -> str:
    """Run ``ptrack`` in process; returns its standard output."""
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"ptrack {argv[0]} exited {rc}: {err.getvalue().strip()[-500:]}")
    return out.getvalue()


def _prfilter(specs: tuple):
    from repro.core import (
        AttributeClause, ByAttributes, ByName, Expansion, PrFilter,
    )

    prf = PrFilter()
    for spec in specs:
        if spec[0] == "name":
            prf.add(ByName(spec[1], Expansion(spec[2])))
        else:
            prf.add(ByAttributes((AttributeClause(spec[1], "=", spec[2]),)))
    return prf


def _whole_filter_count(text: str) -> int:
    m = re.search(r"^# whole filter: (\d+) results", text, re.M)
    if m is None:
        raise Mismatch(f"ptrack query printed no whole-filter count: {text[-200:]!r}")
    return int(m.group(1))


def dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


_ROW_SQL = {
    "performance_result":
        "SELECT id, execution_id, metric_id, performance_tool_id, value "
        "FROM performance_result",
    "performance_result_has_focus":
        "SELECT performance_result_id, focus_id FROM performance_result_has_focus",
    "focus_has_resource": "SELECT focus_id, resource_id FROM focus_has_resource",
}
_NAME_TABLES = ("resource_item", "execution", "metric", "performance_tool")


class PlainTarget:
    """An on-disk store (minidb or sqlite3) driven through the CLI and the GUI path."""

    def __init__(self, backend: str) -> None:
        self.backend = backend

    def store_path(self, directory: str) -> str:
        os.makedirs(directory, exist_ok=True)
        return os.path.join(directory, "perftrack.db")

    def init(self, path: str) -> None:
        _cli(["init", "--backend", self.backend, "--db", path])

    def load(self, path: str, files: list) -> None:
        _cli(["load", "--backend", self.backend, "--db", path, "--quiet", *files])

    def open_query(self, path: str, spec: tuple) -> int:
        argv = ["query", "--backend", self.backend, "--db", path, "--count-only"]
        if spec[0] == "name":
            argv += ["--name", spec[1], "--relatives", spec[2]]
        else:
            argv += ["--attr", f"{spec[1]}={spec[2]}"]
        return _whole_filter_count(_cli(argv))

    def open(self, path: str):
        from repro.core import PTDataStore
        from repro.core.query import QueryEngine

        store = PTDataStore(backend_kind=self.backend, database=path, initialize=False)
        return store, QueryEngine(store)

    def resolve(self, store, prf):
        return store.resolve_prfilter(prf)

    def rows(self, store) -> dict:
        return _read_rows(store.backend)


def _read_rows(backend) -> dict:
    rows = {table: [tuple(r) for r in backend.query(sql)] for table, sql in _ROW_SQL.items()}
    for table in _NAME_TABLES:
        rows[table] = [tuple(r) for r in backend.query(f"SELECT id, name FROM {table}")]
    return rows


def percentile(values: list, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of a non-empty list."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Run:
    """One benchmark process: a workload, a seed, a time budget."""

    def __init__(self, seed: int, seconds: float, trace: bool, workdir: str,
                 log=sys.stderr) -> None:
        self.seconds = seconds
        self.workdir = workdir
        #: a traced run needs one untraced and one traced round
        self.min_rounds = 2 if trace else 1
        self.log = log
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.mismatches: list = []
        #: (start, seconds) of every timed operation, in order
        self.timings: list = []
        #: samples[traced][name] -> (amount, power, operation indices), one
        #: list per end-to-end input; see :meth:`sample`
        self.samples = {False: defaultdict(list), True: defaultdict(list)}
        self.digest = hashlib.sha256()
        self.tracer = None
        self.traced_now = False
        #: tracer counts at the end of the first traced round: these depend
        #: on the seed only, so two traced runs must agree on them exactly
        self.first_traced = None
        if trace:
            from .tracer import Tracer

            self.tracer = Tracer()
        self.speed = SpeedProbe()
        self._store_n = 0
        self._orders: dict = {}
        #: peak-RSS growth while the oracle was built (see building_oracle)
        self.oracle_kb = 0

    # -- plumbing -------------------------------------------------------------

    def fresh_dir(self) -> str:
        self._store_n += 1
        path = os.path.join(self.workdir, f"s{self._store_n:04d}")
        os.makedirs(path)
        return path

    def note_failure(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if isinstance(exc, Mismatch):
            self.mismatches.append(f"{what}: {exc}")
        if self.failed <= 20:
            print(f"perfbench: {what} failed: {type(exc).__name__}: {exc}", file=self.log)

    def op(self, kind: str, fn, check=None, cold: bool = False):
        """Time one operation, then check its answer.

        Returns ``(index, out)``, where ``index`` is the operation's entry
        in ``timings``, or None when the operation failed.

        A ``cold`` operation stands for a fresh ``ptrack`` process, so it
        starts from a collected heap instead of inheriting the collector's
        debt from earlier operations (which made its time depend on them).
        """
        self.attempted += 1
        self.speed.tick()
        if cold:
            gc.collect()
            self.speed.burst()
        tracer = self.tracer if self.traced_now else None
        if tracer is not None:
            before = self.minidb_counters()
            tracer.begin_op(kind)
        try:
            t0 = time.perf_counter()
            try:
                out = fn()
            finally:
                self.timings.append((t0, time.perf_counter() - t0))
                if tracer is not None:
                    tracer.end_op()
                    self._counter_delta(kind, before)
                if cold:
                    self.speed.burst()
            if check is not None:
                check(out)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            self.note_failure(kind, exc)
            return None
        return len(self.timings) - 1, out

    def pick(self, kind: str, items: list):
        """Next item of a seeded permutation of ``items``, reshuffled when used up.

        Cycling (rather than drawing independently) makes every round see
        the catalogue's sizes in equal measure, whatever the seed.
        """
        key = (kind, id(items))
        order = self._orders.get(key)
        if not order:
            order = list(range(len(items)))
            self.rng.shuffle(order)
            self._orders[key] = order
        return items[order.pop()]

    def sample(self, name: str, amount: float, power: int = 0, ops: tuple = ()) -> None:
        """Record ``amount * (summed time of ops) ** power``, or ``amount`` if power is 0.

        So a time is ``sample(name, 1.0, 1, (i,))`` and a rate of ``n``
        items ``sample(name, n, -1, (i,))``.  :meth:`values` computes the
        values, as measured or scaled by the host's speed.
        """
        self.samples[self.traced_now][name].append((amount, power, tuple(ops)))

    def values(self, traced: bool, scaled: bool = True) -> dict:
        """name -> sample values of one side; with ``scaled``, each operation's
        time is scaled by the host's speed around it (see :mod:`perfbench.speed`)."""
        out = {}
        for name, entries in self.samples[traced].items():
            xs = out[name] = []
            for amount, power, ops in entries:
                if not power:
                    xs.append(amount)
                    continue
                total = 0.0
                for t0, dt in (self.timings[i] for i in ops):
                    total += dt * self.speed.factor(t0, dt) if scaled else dt
                xs.append(amount * total ** power)
        return out

    def answer(self, kind: str, ids) -> None:
        self.digest.update(f"{kind}:{sorted(ids)}".encode())

    def _set_traced(self, on: bool) -> None:
        if self.tracer is None or on == self.traced_now:
            return
        import repro.obs as obs

        if on:
            self.tracer.install()
            obs.metrics.enable()
        else:
            self.tracer.uninstall()
            obs.metrics.disable()
        self.traced_now = on

    def minidb_counters(self) -> dict:
        import repro.obs as obs

        out = {}
        for name in ("minidb.rows.scanned", "minidb.vector.rows",
                     "minidb.statement_cache.hits", "minidb.statement_cache.misses",
                     "minidb.plan_cache.hits", "minidb.plan_cache.misses",
                     "minidb.wal.bytes"):
            inst = obs.metrics.get(name)
            out[name] = inst.value if inst is not None else None
        return out

    def _counter_delta(self, kind: str, before: dict) -> None:
        calls = self.tracer.ops[kind].calls
        for name, value in self.minidb_counters().items():
            if value is None or before[name] is None:
                calls["absent:" + name] = 1
            else:
                calls[name] += value - before[name]

    def count(self, kind: str, name: str, n: int) -> None:
        if self.traced_now:
            self.tracer.ops[kind].calls[name] += n

    def loop(self, body) -> int:
        """Call ``body(round)`` while another round fits in the time budget.

        A round starts only if the mean round so far would still end
        within ``seconds``, so a run lasts about ``seconds`` and never
        less than ``min_rounds`` rounds.
        """
        start = time.perf_counter()
        r = 0
        while True:
            elapsed = time.perf_counter() - start
            if r >= self.min_rounds and elapsed + elapsed / r > self.seconds:
                break
            self._set_traced(self.tracer is not None and r % 2 == 1)
            try:
                body(r)
            finally:
                if self.traced_now and self.first_traced is None:
                    self.first_traced = self.tracer.snapshot()
            r += 1
        self._set_traced(False)
        return r

    # -- query checks -----------------------------------------------------------

    def check_ids(self, model, idmap, specs):
        want = idmap.expected_ids(model.expected_keys(specs))

        def check(got):
            got = set(got)
            if got != want:
                raise Mismatch(
                    f"{specs}: {len(got)} ids, expected {len(want)} "
                    f"({len(got - want)} unexpected, {len(want - got)} missing)"
                )
        return check

    def check_fetch(self, model, idmap, ids, names_by_id):
        def check(out):
            results, column = out
            if sorted(r.id for r in results) != list(ids):
                raise Mismatch(f"fetch returned {len(results)} results for {len(ids)} ids")
            keys = []
            for r in results:
                ctx = frozenset(
                    frozenset(names_by_id[i] for i in c.resource_ids) for c in r.contexts
                )
                key = (r.execution, r.metric, r.tool, float(r.value), ctx)
                if key != idmap.key_of[r.id]:
                    raise Mismatch(f"fetched result {r.id} differs from its record")
                keys.append(key)
            if column is None:
                return
            columns, type_path, cells = column
            if columns != model.columns(keys):
                raise Mismatch("free_resources columns differ from the records")
            for key, cell in zip(keys, cells):
                if sorted(cell) != model.names_of_type(key, type_path):
                    raise Mismatch(f"{type_path} column cell differs from the record")
        return check


# -- BG/L workloads -----------------------------------------------------------------

#: Operations per round.  Rounds repeat until the time budget is spent.
#: The query counts set how many samples each percentile gets (a run
#: has at least ten beyond each p95); they are not a traffic mix
#: (``queries_per_s`` weighs every kind alike).
BGL_ROUND = dict(open_query=2, point=288, family=60, meet=60, fetch=12)
#: ``ptrack init`` calls per BG/L round, run before its loads.
BGL_SETUPS = 6
#: Timed loads of the corpus per round, each into a fresh store.
BGL_LOADS = 2


def _bgl_catalogue(c) -> dict:
    points = [("name", p, "N") for p in c.processes] + [("name", n, "N") for n in c.nodes]
    families = [("name", p, "D") for p in c.partitions] + [
        ("name", e, "D") for e in c.executions
    ]
    span = corpus_mod.BGL_NODES_PER_PARTITION
    meets, fetches = [], []
    for e, ex in enumerate(c.executions):
        first = e * corpus_mod.BGL_NODE_STRIDE
        covered = {((first + p) % len(c.nodes)) // span for p in range(corpus_mod.BGL_PROCS)}
        for part in sorted(covered):
            lo = part * span
            whole = all(((n - first) % len(c.nodes)) < corpus_mod.BGL_PROCS
                        for n in range(lo, lo + span))
            pair = (("name", ex, "D"), ("name", c.partitions[part], "D"))
            meets.append(pair)
            if whole:
                fetches.append(pair)
    return dict(point=points, family=families, meet=meets, fetch=fetches)


def _maxrss_kb() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@contextlib.contextmanager
def building_oracle(run: Run):
    """Build the oracle inside this block, before any timed operation.

    A ``ptrack`` process does not hold the oracle's model of the corpus.
    So its growth of the peak RSS is recorded and left out of
    ``peak_rss_mb``, and its objects are moved out of the cyclic collector:
    otherwise every full collection during a timed operation would also
    traverse them and charge the program for the benchmark's memory.
    """
    gc.collect()
    before = _maxrss_kb()
    yield
    gc.collect()
    gc.freeze()
    run.oracle_kb = _maxrss_kb() - before


def run_bgl(run: Run, target) -> None:
    corpus = corpus_mod.bgl_corpus(os.path.join(run.workdir, "corpus"))
    with building_oracle(run):
        model = Model()
        for f in corpus.files:
            model.add_file(f)
        cat = _bgl_catalogue(corpus)
    _bgl_warmup(run, target, corpus, cat)

    def one_round(r: int) -> None:
        setup_block(run, target, BGL_SETUPS)
        directories = []
        for _ in range(BGL_LOADS):
            directory = run.fresh_dir()
            path = target.store_path(directory)
            directories.append(directory)
            got = run.op("load", lambda path=path: target.load(path, corpus.files), cold=True)
            if got is None:
                return
            run.sample("load_records_per_s", model.records, -1, (got[0],))
            run.sample("store_bytes_per_record", dir_bytes(directory) / model.records)
            run.count("load", "records", model.records)
        # The cold queries run on the first store, the GUI path on the last.
        path = target.store_path(directories[0])
        for _ in range(BGL_ROUND["open_query"]):
            spec = run.pick("open_query", cat["family"])
            want = sum(model.expected_keys((spec,)).values())

            def check(n, want=want, spec=spec):
                if n != want:
                    raise Mismatch(f"ptrack query {spec}: {n} results, expected {want}")
            got = run.op("open_query", lambda spec=spec: target.open_query(path, spec), check,
                         cold=True)
            if got is not None:
                run.sample("open_query_s", 1.0, 1, (got[0],))
        query_block(run, target, target.store_path(directories[-1]), model, cat, BGL_ROUND)
        for directory in directories:
            shutil.rmtree(directory, ignore_errors=True)

    run.loop(one_round)


def _bgl_warmup(run: Run, target, corpus, cat) -> None:
    """Untimed: first-call costs (lazy imports, caches) before the clock runs."""
    directory = os.path.join(run.workdir, "warmup")
    path = target.store_path(directory)
    target.init(target.store_path(os.path.join(directory, "init")))
    target.load(path, corpus.files[:2])
    target.open_query(path, cat["family"][0])
    store, engine = target.open(path)
    try:
        for specs in ((cat["point"][0],), (cat["family"][0],), cat["meet"][0]):
            engine.result_ids(target.resolve(store, _prfilter(specs)))
    finally:
        store.close()
    shutil.rmtree(directory, ignore_errors=True)


def query_block(run: Run, target, path: str, model, cat: dict, counts: dict,
                column: bool = False) -> None:
    """Open the store as the GUI does, then run a shuffled operation mix."""
    try:
        store, engine = target.open(path)
    except Exception as exc:  # noqa: BLE001
        run.attempted += 1
        run.note_failure("open", exc)
        return
    try:
        run.attempted += 1
        try:
            rows = target.rows(store)
            idmap = check_rows(model, rows)
        except Exception as exc:  # noqa: BLE001
            run.note_failure("rows-loaded check", exc)
            return
        names_by_id = dict(rows["resource_item"])
        del rows
        # Untimed probes, one per filter kind: they pay the first-query
        # costs after an open (statement and plan caches), which
        # open_query_s already charges.  In the mix, the first operation
        # of each kind per block would be a slow class of about one in
        # twenty, right at the p95.
        for kind in ("point", "family", "meet"):
            if cat[kind]:
                first = cat[kind][0]
                specs = tuple(first) if kind == "meet" else (first,)
                engine.result_ids(target.resolve(store, _prfilter(specs)))

        plan = []
        for kind in QUERY_KINDS:
            n, size = counts.get(kind, 0), len(cat[kind])
            if 0 < size <= n:
                # Whole cycles through a small catalogue: the same filters
                # in every block, whatever the seed.
                n = max(1, round(n / size)) * size
            plan += [kind] * (n if size else 0)
        run.rng.shuffle(plan)
        for kind in plan:
            item = run.pick(kind, cat[kind])
            specs = tuple(item) if kind in ("meet", "fetch") else (item,)
            if kind == "fetch":
                ids = sorted(idmap.expected_ids(model.expected_keys(specs)))
                got = run.op(
                    "fetch",
                    lambda ids=ids: _fetch(engine, ids, column),
                    run.check_fetch(model, idmap, ids, names_by_id),
                )
                if got is not None:
                    run.sample("fetch_ms", 1000.0, 1, (got[0],))
                    run.sample("fetch_rows_per_s", len(ids), -1, (got[0],))
                    run.answer(kind, ids)
                    run.count("fetch", "results", len(ids))
                continue
            prf = _prfilter(specs)
            got = run.op(
                kind,
                lambda prf=prf: engine.result_ids(target.resolve(store, prf)),
                run.check_ids(model, idmap, specs),
            )
            if got is not None:
                i, ids = got
                run.sample(f"{kind}_ms", 1000.0, 1, (i,))
                run.answer(kind, ids)
                run.count(kind, "results", len(ids))
    finally:
        store.close()


def setup_block(run: Run, target, n: int) -> None:
    """``n`` timed ``ptrack init`` calls, each into a fresh directory."""
    for _ in range(n):
        directory = run.fresh_dir()
        path = target.store_path(os.path.join(directory, "init"))
        got = run.op("setup", lambda p=path: target.init(p), cold=True)
        if got is not None:
            run.sample("setup_s", 1.0, 1, (got[0],))
        shutil.rmtree(directory, ignore_errors=True)


def _fetch(engine, ids: list, column: bool):
    """Materialise results; with ``column``, also add one GUI column."""
    results = engine.fetch_results(ids)
    if not column:
        return results, None
    columns = engine.free_resources(results)
    type_path = min(columns) if columns else None
    cells = [engine.resource_names_of_type_for_result(r, type_path)
             for r in results] if type_path else []
    return results, (columns, type_path, cells)


# -- case-study workload --------------------------------------------------------------

#: Filters per kind in the catalogue of each corpus prefix.
STUDY_CATALOGUE = dict(point=6, family=6, meet=6, fetch=2)
#: Operations after each append, besides the one ``ptrack query --count-only``.
#: Points run the catalogue six times and families twice, for more samples
#: in their p95; every meet runs STUDY_MEET_REPEAT times (see run_study).
STUDY_MIX = dict(point=36, family=12, fetch=2)
STUDY_MEET_REPEAT = 3
#: ``ptrack init`` calls after each append's queries.
STUDY_SETUPS = 2
#: Attribute clauses the meet draws from: the execution's process count
#: (Purple sweep) and a process's node (Paradyn); at most this many values each.
STUDY_ATTRS = ("number of processes", "machine node")
STUDY_ATTR_VALUES = 4


def _study_catalogue(model: Model) -> dict:
    """Filters over a corpus prefix that select something.

    Families are modules, executions and machines.  Each kind keeps at
    most ``STUDY_CATALOGUE`` filters, chosen evenly by
    result count (smallest and largest included).  The choice does not
    depend on the seed, which only orders them, so every pass runs the
    same filters and the percentiles do not move with the seed.
    """
    functions = sorted(n for n, t in model.types.items() if t.endswith("module/function"))
    modules = sorted(n for n, t in model.types.items() if t.endswith("/module"))
    wholes = sorted(n for n, t in model.types.items() if t in ("execution", "grid/machine"))
    clauses = []
    for attr in STUDY_ATTRS:
        values = sorted({v for _, a, v in model.attributes if a == attr})
        clauses += [("attr", attr, v) for v in values[:STUDY_ATTR_VALUES]]

    def by_size(kind, candidates):
        sized = sorted((sum(model.expected_keys(c).values()), c) for c in candidates)
        items = [c for size, c in sized if size]
        n = min(STUDY_CATALOGUE[kind], len(items))
        if n < 2:
            return items[:n]
        return [items[round(i * (len(items) - 1) / (n - 1))] for i in range(n)]

    return dict(
        point=[p[0] for p in by_size("point", [(("name", f, "N"),) for f in functions])],
        family=[f[0] for f in by_size("family", [(("name", n, "D"),) for n in modules + wholes])],
        meet=by_size("meet", [(c, ("name", m, "D")) for c in clauses for m in modules]),
        fetch=by_size("fetch", [(("name", f, "N"),) for f in functions]),
    )


def run_study(run: Run, target) -> None:
    files = corpus_mod.study_corpus(os.path.join(run.workdir, "corpus"))
    models, cats = [], []  # the oracle and catalogue after each append
    with building_oracle(run):
        for i in range(len(files)):
            model = Model()
            for f in files[: i + 1]:
                model.add_file(f)
            models.append(model)
            cats.append(_study_catalogue(model))
    _study_warmup(run, target, files, cats[-1])

    def one_pass(r: int) -> None:
        directory = run.fresh_dir()
        path = target.store_path(directory)
        loads, opens, records = [], [], 0
        for i, f in enumerate(files):
            model, cat = models[i], cats[i]
            n = model.records - (models[i - 1].records if i else 0)
            got = run.op("load", lambda f=f: target.load(path, [f]), cold=True)
            if got is None:
                return
            loads.append(got[0])
            records += n
            run.count("load", "records", n)
            spec = run.pick("open_query", cat["family"] or cats[-1]["family"])
            want = sum(model.expected_keys((spec,)).values())

            def check(got_n, want=want, spec=spec):
                if got_n != want:
                    raise Mismatch(f"ptrack query {spec}: {got_n} results, expected {want}")
            got = run.op("open_query", lambda spec=spec: target.open_query(path, spec), check,
                         cold=True)
            if got is not None:
                opens.append(got[0])
            # Every meet of the catalogue runs the same number of times.
            # Repeating the single large meet of the first IRS appends as
            # often as the five small meets of later appends, as the other
            # kinds repeat small catalogues, would make a pass half large
            # and half small meets and put the median in the gap between them.
            mix = dict(STUDY_MIX, meet=STUDY_MEET_REPEAT * len(cat["meet"]))
            query_block(run, target, path, model, cat, mix, column=True)
            setup_block(run, target, STUDY_SETUPS)
        run.sample("load_records_per_s", records, -1, loads)
        if opens:
            run.sample("open_query_s", 1.0 / len(opens), 1, opens)
        run.sample("store_bytes_per_record", dir_bytes(directory) / records)
        shutil.rmtree(directory, ignore_errors=True)

    run.loop(one_pass)


def _study_warmup(run: Run, target, files, cat) -> None:
    directory = os.path.join(run.workdir, "warmup")
    path = target.store_path(directory)
    for f in files[:3]:
        target.load(path, [f])
    target.open_query(path, cat["family"][0])
    store, engine = target.open(path)
    try:
        results = engine.fetch_results(
            engine.result_ids(target.resolve(store, _prfilter(cat["fetch"][0]))))
        engine.free_resources(results)
    finally:
        store.close()
    shutil.rmtree(directory, ignore_errors=True)


WORKLOADS = {
    "bgl_minidb": lambda run: run_bgl(run, PlainTarget("minidb")),
    "bgl_sqlite": lambda run: run_bgl(run, PlainTarget("sqlite")),
    "study_incremental": lambda run: run_study(run, PlainTarget("minidb")),
}


# -- summaries ----------------------------------------------------------------------------

def end_to_end(run: Run, samples: dict) -> dict:
    """Every end-to-end metric from one side's samples (None when unmeasured)."""
    def med(name):
        xs = samples.get(name)
        return statistics.median(xs) if xs else None

    def pct(name, q):
        xs = samples.get(name)
        return percentile(xs, q) if xs else None

    out = {
        "setup_s": med("setup_s"),
        "load_records_per_s": med("load_records_per_s"),
        "open_query_s": med("open_query_s"),
    }
    for kind in ("point", "family", "meet"):
        out[f"{kind}_p50_ms"] = pct(f"{kind}_ms", 50)
        out[f"{kind}_p95_ms"] = pct(f"{kind}_ms", 95)
    out["fetch_rows_per_s"] = med("fetch_rows_per_s")
    # Throughput of a closed-loop client that runs every kind equally often:
    # the kinds' mean times, not the mix's sample counts, set it.
    means = [statistics.fmean(samples[f"{k}_ms"]) for k in QUERY_KINDS if samples.get(f"{k}_ms")]
    out["queries_per_s"] = 1000.0 * len(means) / sum(means) \
        if len(means) == len(QUERY_KINDS) else None
    out["peak_rss_mb"] = (_maxrss_kb() - run.oracle_kb) / 1024.0
    out["store_bytes_per_record"] = med("store_bytes_per_record")
    out["ops_ok_share"] = 1.0 - run.failed / max(1, run.attempted)
    return out


#: Time-based end-to-end metrics whose traced/untraced ratio is reported.
OVERHEAD_OF = (
    "setup_s", "load_records_per_s", "open_query_s", "point_p50_ms", "point_p95_ms",
    "family_p50_ms", "family_p95_ms", "meet_p50_ms", "meet_p95_ms",
    "fetch_rows_per_s", "queries_per_s",
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(run: Run) -> dict:
    """Per-layer metrics (name -> (value, unit)) from the traced rounds."""
    tr = run.tracer
    ops = tr.ops
    first = run.first_traced or {}

    def first_round(kind):
        return first.get(kind, (0, Counter()))

    load, oq = ops["load"], ops["open_query"]
    krec = load.calls["records"] / 1000.0
    f_load = first_round("load")[1]
    f_rec = f_load["records"]
    queries = [ops[k] for k in QUERY_KINDS]
    q_calls = lambda name: sum(o.calls[name] for o in queries)  # noqa: E731
    results = q_calls("results")
    m = {}
    m["ptdf.parse_s_per_krec"] = (_ratio(load.total["ptdf.parse"], krec), "s/krec")
    m["ptdf.lint_s_per_krec"] = (_ratio(load.total["ptdf.lint"], krec), "s/krec")
    m["ptdf.tokenize_per_record"] = (
        _ratio(f_load["ptdf.split_fields"], f_rec), "calls/record")
    m["bulkload.self_s_per_krec"] = (_ratio(load.self_time["bulkload.load"], krec), "s/krec")
    m["bulkload.write_calls_per_krec"] = (
        _ratio(f_load["bulkload.write_calls"], f_rec / 1000.0), "calls/krec")
    m["dbapi.load_busy_s_per_krec"] = (_ratio(load.total["layer:dbapi"], krec), "s/krec")
    for kind in QUERY_KINDS:
        n, calls = first_round(kind)
        m[f"dbapi.calls_per_{kind}"] = (
            _ratio(calls["dbapi.execute"] + calls["dbapi.executemany"], n), "calls/op")
    m["dbapi.query_busy_share"] = (
        _ratio(sum(o.total["layer:dbapi"] for o in queries), sum(o.seconds for o in queries)),
        "ratio")
    for kind in ("point", "family", "meet"):
        o = ops[kind]
        m[f"query.resolve_ms.{kind}"] = (_ratio(o.total["query.resolve"] * 1e3, o.n), "ms")
        m[f"query.evaluate_self_ms.{kind}"] = (
            _ratio(o.self_time["query.evaluate"] * 1e3, o.n), "ms")
    fetch = ops["fetch"]
    m["query.fetch_self_ms"] = (_ratio(fetch.self_time["query.fetch"] * 1e3, fetch.n), "ms")
    f_params = sum(first_round(k)[1]["dbapi.params"] for k in QUERY_KINDS)
    f_results = sum(first_round(k)[1]["results"] for k in QUERY_KINDS)
    m["query.ids_shipped_per_result"] = (_ratio(f_params, f_results), "params/result")
    scanned = q_calls("minidb.rows.scanned")
    m["minidb.rows_scanned_per_result"] = (_ratio(scanned, results), "rows/result")
    for short, name in (("statement_cache", "minidb.statement_cache"),
                        ("plan_cache", "minidb.plan_cache")):
        hits = q_calls(name + ".hits")
        m[f"minidb.{short}_hit_ratio"] = (_ratio(hits, hits + q_calls(name + ".misses")),
                                          "ratio")
    m["minidb.vector_rows_share"] = (_ratio(q_calls("minidb.vector.rows"), scanned), "ratio")
    m["wal.load_snapshot_s_per_open"] = (_ratio(oq.total["wal.load_snapshot"], oq.n), "s/open")
    f_oq_n, f_oq = first_round("open_query")
    m["wal.index_rebuilds_per_open"] = (_ratio(f_oq["wal.index_rebuild"], f_oq_n), "calls/open")
    m["wal.write_snapshot_s_per_close"] = (
        _ratio(load.total["wal.write_snapshot"], load.n), "s/close")
    m["wal.readonly_checkpoints"] = (
        _ratio(oq.calls["wal.write_snapshot"], oq.n), "count/session")
    written = f_load["wal.snapshot_bytes"] + f_load["minidb.wal.bytes"]
    m["wal.bytes_written_per_record"] = (_ratio(written, f_rec), "B/record")
    m["wal.load_path_share"] = (
        _ratio(load.total["wal.load_snapshot"] + load.total["wal.write_snapshot"],
               load.seconds), "ratio")
    m["python.gc_pause_ms_total"] = (sum(tr.gc_pauses) * 1e3, "ms")
    m["python.gc_pause_ms_max"] = (max(tr.gc_pauses, default=0.0) * 1e3, "ms")
    m["host.kernel_ms"] = (statistics.median(run.speed.samples) * 1e3 if run.speed.samples
                           else 0.0, "ms")
    m["ops_failed_share"] = (run.failed / max(1, run.attempted), "ratio")
    untraced = end_to_end(run, run.values(False))
    traced = end_to_end(run, run.values(True))
    for name in OVERHEAD_OF:
        a, b = traced[name], untraced[name]
        m[f"overhead.{name}"] = (_ratio(a, b) if a is not None and b else 0.0, "ratio")
    return m


#: The per-layer counts that must repeat exactly between traced runs of a seed.
EXACT_COUNTS = (
    "ptdf.tokenize_per_record", "dbapi.calls_per_point", "dbapi.calls_per_family",
    "dbapi.calls_per_meet", "dbapi.calls_per_fetch", "query.ids_shipped_per_result",
    "wal.index_rebuilds_per_open", "wal.bytes_written_per_record",
)
