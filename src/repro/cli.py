"""``ptrack`` — PerfTrack's script interface as a command-line tool.

The paper's script-based interface (Section 3.3) offered data collection,
loading and querying from Python; this CLI packages the same operations:

* ``ptrack init``      create a data store (minidb or sqlite file)
* ``ptrack load``      load PTdf files (lint-gated; ``--force`` overrides)
* ``ptrack lint``      statically validate PTdf files (also ``pt-lint``)
* ``ptrack gen``       run PTdfGen over a directory of raw tool output
* ``ptrack ls``        list applications / executions / metrics / tools /
                       resource types / resources of a type
* ``ptrack report``    the simple reports (summary, application, execution)
* ``ptrack query``     evaluate a pr-filter and print/export the results
* ``ptrack attrs``     show a resource's attributes (the GUI's viewer)
* ``ptrack compare``   align two executions and report regressions
* ``ptrack stats``     self-instrumentation: run a workload with the
                       metrics registry enabled and print the snapshot
                       (text, ``--json`` or Prometheus ``--prom``)
* ``ptrack profile``   statement profiler: run a workload with the
                       profiler enabled and print per-statement stats,
                       recorded plans (``--flight``) and planner drift
* ``ptrack serve``     serve a minidb database to concurrent sessions
                       over a JSON-lines socket protocol

Exit code 0 on success, 2 on usage errors, 1 on operational failures.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import obs
from .core import (
    AttributeClause,
    ByAttributes,
    ByName,
    ByType,
    Expansion,
    PrFilter,
    PTDataStore,
    load_files,
)
from .core.comparison import compare_executions
from .core.query import QueryEngine
from .core.reports import application_report, execution_report, store_summary
from .gui.mainwindow import MainWindow
from .minidb.errors import Error as DbError
from .ptdf.ptdfgen import PTdfGen
from .tools import ALL_CONVERTERS


def _open_store(args, initialize: bool = False) -> PTDataStore:
    return PTDataStore(
        backend_kind=args.backend,
        database=args.db,
        initialize=initialize or args.db == ":memory:",
    )


def _add_db_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--db", default=":memory:", help="database file (default in-memory)")
    p.add_argument(
        "--backend",
        default="minidb",
        choices=("minidb", "sqlite"),
        help="DBMS backend (default minidb)",
    )


def cmd_init(args) -> int:
    store = PTDataStore(backend_kind=args.backend, database=args.db, initialize=True)
    store.commit()
    store.close()
    print(f"initialised {args.backend} data store at {args.db}")
    return 0


def cmd_load(args) -> int:
    from .ptdf.lint import PTdfLintError

    # Per-file progress (records/s): on by default when stderr is a
    # terminal, forced by --progress, silenced by --quiet.
    show_progress = args.progress or (sys.stderr.isatty() and not args.quiet)

    def on_file(path, stats, records, seconds):
        if not args.quiet:
            print(
                f"{path}: {stats.results} results, {stats.resources} resources, "
                f"{stats.executions} executions"
            )
        if show_progress:
            rate = records / seconds if seconds > 0 else 0.0
            print(
                f"{path}: {records} records in {seconds:.2f}s ({rate:,.0f} records/s)",
                file=sys.stderr,
            )

    if args.trace:
        obs.trace.enable()
    store = _open_store(args, initialize=True)
    try:
        try:
            _stats, warnings = load_files(
                store, args.files, lint=not args.force, on_file=on_file
            )
        except PTdfLintError as exc:
            for diag in exc.diagnostics:
                print(diag, file=sys.stderr)
            print(
                "load refused: the files above have lint errors "
                "(use --force to load anyway)",
                file=sys.stderr,
            )
            return 1
        for diag in warnings:
            print(diag, file=sys.stderr)
        store.commit()
    finally:
        store.close()
        if args.trace:
            spans = obs.trace.save(args.trace)
            obs.trace.disable()
            print(f"# wrote {spans} spans to {args.trace}", file=sys.stderr)
    return 0


def cmd_lint(args) -> int:
    from .ptdf.lint import Linter, context_from_store, has_errors

    context = None
    if args.db != ":memory:":
        store = _open_store(args)
        context = context_from_store(store)
        store.close()
    linter = Linter(context)
    errors = warnings = 0
    for path in args.files:
        for diag in linter.lint_file(path):
            if diag.severity == "error":
                errors += 1
            else:
                warnings += 1
            if diag.severity == "error" or not args.quiet:
                print(diag)
    print(f"# {errors} error(s), {warnings} warning(s)", file=sys.stderr)
    if errors or (warnings and args.strict):
        return 1
    return 0


def pt_lint_main(argv: Optional[Sequence[str]] = None) -> int:
    """``pt-lint`` — standalone PTdf linter (no database needed)."""
    parser = argparse.ArgumentParser(
        prog="pt-lint", description="statically validate PTdf files"
    )
    _add_db_options(parser)
    parser.add_argument("files", nargs="+", help="PTdf files to check")
    parser.add_argument(
        "--strict", action="store_true", help="exit 1 on warnings too"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="report errors only"
    )
    args = parser.parse_args(argv)
    try:
        return cmd_lint(args)
    except DbError as exc:
        print(f"database error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cmd_gen(args) -> int:
    gen = PTdfGen(ALL_CONVERTERS)
    reports = gen.generate(args.directory, args.index, out_dir=args.out)
    for rep in reports:
        print(
            f"{rep.execution}: {len(rep.files)} files -> {rep.records} records "
            f"({rep.results} results) -> {rep.output_path}"
        )
        for skipped in rep.skipped:
            print(f"  skipped (no converter): {skipped}")
    return 0


def cmd_ls(args) -> int:
    store = _open_store(args)
    kind = args.what
    if kind == "applications":
        rows = store.applications()
    elif kind == "executions":
        rows = store.executions(args.application)
    elif kind == "metrics":
        rows = store.metrics()
    elif kind == "tools":
        rows = store.tools()
    elif kind == "types":
        rows = [t.name for t in store.resource_types()]
    elif kind == "resources":
        if not args.type:
            print("ls resources requires --type", file=sys.stderr)
            return 2
        rows = [r.name for r in store.resources_of_type(args.type)]
    else:  # pragma: no cover - argparse restricts choices
        return 2
    for row in rows:
        print(row)
    store.close()
    return 0


def cmd_report(args) -> int:
    store = _open_store(args)
    if args.kind == "summary":
        print(store_summary(store))
    elif args.kind == "application":
        if not args.name:
            print("report application requires NAME", file=sys.stderr)
            return 2
        print(application_report(store, args.name))
    else:
        if not args.name:
            print("report execution requires NAME", file=sys.stderr)
            return 2
        print(execution_report(store, args.name))
    store.close()
    return 0


def _parse_attr_clause(text: str) -> AttributeClause:
    for op in ("<=", ">=", "!=", "=", "<", ">", "~"):
        if op in text:
            name, _, value = text.partition(op)
            comparator = "contains" if op == "~" else op
            return AttributeClause(name.strip(), comparator, value.strip())
    raise ValueError(f"cannot parse attribute clause {text!r}")


def cmd_query(args) -> int:
    if args.trace:
        obs.trace.enable()
    try:
        return _cmd_query_inner(args)
    finally:
        if args.trace:
            spans = obs.trace.save(args.trace)
            obs.trace.disable()
            print(f"# wrote {spans} spans to {args.trace}", file=sys.stderr)


def _cmd_query_inner(args) -> int:
    store = _open_store(args)
    engine = QueryEngine(store)
    prf = PrFilter()
    expansion = Expansion(args.relatives)
    for name in args.name or ():
        prf.add(ByName(name, expansion))
    for type_path in args.type or ():
        prf.add(ByType(type_path, Expansion.NONE))
    for clause_text in args.attr or ():
        clause = _parse_attr_clause(clause_text)
        prf.add(ByAttributes((clause,), expansion=Expansion.NONE))
    families = store.resolve_prfilter(prf)
    counts, ids = engine.live_counts(families)
    for f, count in zip(prf.filters, counts):
        print(f"# family {f.describe()}: {count} match alone")
    print(f"# whole filter: {len(ids)} results")
    if args.count_only:
        store.close()
        return 0
    results = engine.fetch_results(ids)
    window = MainWindow(engine)
    window.show_results(results)
    for column in args.column or ():
        window.add_column(column)
    if args.sort:
        window.sort(args.sort, descending=args.desc)
    if args.limit:
        window.rows = window.rows[: args.limit]
    if args.csv:
        window.save_csv(args.csv)
        print(f"# wrote {len(window.rows)} rows to {args.csv}")
    else:
        print("\t".join(window.columns))
        for row in window.as_table():
            print("\t".join(str(c) for c in row))
    store.close()
    return 0


def cmd_attrs(args) -> int:
    store = _open_store(args)
    res = store.resource_by_name(args.resource)
    if res is None:
        print(f"no such resource: {args.resource}", file=sys.stderr)
        return 1
    print(f"{res.name}  (type {res.type_name})")
    for a in store.attributes_of(res.id):
        print(f"  {a.name} = {a.value}")
    for c in store.constraints_of(res.id):
        print(f"  -> constraint: {c.name}")
    store.close()
    return 0


def cmd_compare(args) -> int:
    store = _open_store(args)
    cmp = compare_executions(store, args.left, args.right, metric=args.metric)
    print(
        f"{args.left} vs {args.right}: {len(cmp.common)} common, "
        f"{len(cmp.only_left)} only-left, {len(cmp.only_right)} only-right"
    )
    for pair in cmp.regressions(args.threshold):
        sig = next(iter(pair.signature), "")
        print(f"  REGRESSION {pair.metric} {sig}: "
              f"{pair.left:.6g} -> {pair.right:.6g} (x{pair.ratio:.2f})")
    store.close()
    return 0


def cmd_chart(args) -> int:
    """The Figure-5 chart from the command line: min/max of one metric
    family across executions, as ASCII, CSV or SVG."""
    from .gui.barchart import min_max_chart
    from .gui.svg import barchart_to_svg, save_svg

    store = _open_store(args)
    engine = QueryEngine(store)
    executions = args.executions or store.executions(args.application)
    categories, minima, maxima = [], [], []
    for execution in executions:
        prf = PrFilter([ByName(f"/{execution}", Expansion.DESCENDANTS)])
        if args.name:
            prf.add(ByName(args.name, Expansion.NONE))
        by_metric = {
            r.metric: r.value
            for r in engine.fetch(prf)
            if r.metric in (f"{args.metric} (min)", f"{args.metric} (max)")
        }
        lo = by_metric.get(f"{args.metric} (min)")
        hi = by_metric.get(f"{args.metric} (max)")
        if lo is not None and hi is not None:
            categories.append(execution)
            minima.append(lo)
            maxima.append(hi)
    if not categories:
        print("no min/max data matched", file=sys.stderr)
        store.close()
        return 1
    title = f"{args.name or args.metric} min/max"
    chart = min_max_chart(title, categories, minima, maxima, value_label=args.metric)
    if args.svg:
        save_svg(barchart_to_svg(chart), args.svg)
        print(f"wrote {args.svg}")
    elif args.csv:
        chart.save_csv(args.csv)
        print(f"wrote {args.csv}")
    else:
        print(chart.render_ascii())
    store.close()
    return 0


def cmd_predict(args) -> int:
    """Fit a scaling model to measured executions, report predicted vs
    actual, and optionally store extrapolations (Section-6 extension)."""
    from .core.predictions import (
        compare_predictions,
        fit_model_to_history,
        store_predictions,
    )

    store = _open_store(args)
    executions = args.executions or store.executions(args.application)
    try:
        model, points = fit_model_to_history(store, executions, args.metric)
    except ValueError as exc:
        print(f"cannot fit model: {exc}", file=sys.stderr)
        store.close()
        return 1
    print(model.describe())
    print(f"{'execution':<28}{'nproc':>6}{'actual':>12}{'predicted':>12}{'rel err':>9}")
    for row in compare_predictions(store, model, executions, args.metric):
        print(
            f"{row.execution:<28}{row.processes:>6}{row.actual:>12.4g}"
            f"{row.predicted:>12.4g}{row.relative_error:>9.1%}"
        )
    if args.extrapolate:
        created = store_predictions(
            store, model, args.application or "unknown", args.metric,
            args.extrapolate,
        )
        for execution, p in zip(created, args.extrapolate):
            print(f"stored {execution}: predicted {model.predict(p):.4g}")
    store.close()
    return 0


def _run_workload(args) -> None:
    """The ``ptrack stats``/``profile`` workload: load ``args.files``
    unlinted, then count, resolve, evaluate and fetch once.

    The per-family counts before the whole-filter evaluation mirror the
    GUI's live match counts (Figure 3) and re-probe the same SQL.
    """
    store = _open_store(args, initialize=True)
    load_files(store, args.files, lint=False)
    store.commit()
    engine = QueryEngine(store)
    engine.count_for_filter([])
    for execution in store.executions()[:1]:
        prf = PrFilter([ByName(f"/{execution}", Expansion.DESCENDANTS)])
        families = store.resolve_prfilter(prf)
        for fam in families:
            engine.count_for_family(fam)
        engine.fetch_results(engine.result_ids(families))
    store.close()


def cmd_stats(args) -> int:
    """Run a small workload with the metrics registry on and report it.

    Loads the given PTdf files (if any), exercises the query layer once,
    then prints the registry snapshot as text, JSON (``--json``) or
    Prometheus exposition (``--prom``).  ``--ptdf FILE`` additionally
    renders the snapshot as PTdf performance results — PerfTrack
    describing itself in its own data format.
    """
    was_enabled = obs.metrics.enabled
    obs.metrics.enable()
    obs.metrics.reset()
    if args.trace:
        obs.trace.enable()
    try:
        _run_workload(args)
        snapshot = obs.metrics.snapshot()
        if args.json:
            print(obs.render_json(snapshot))
        elif args.prom:
            print(obs.render_prometheus(snapshot), end="")
        else:
            print(obs.render_text(snapshot))
        if args.ptdf:
            text = obs.to_ptdf(args.execution, snapshot=snapshot)
            with open(args.ptdf, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"# wrote telemetry PTdf to {args.ptdf}", file=sys.stderr)
    finally:
        if args.trace:
            spans = obs.trace.save(args.trace)
            obs.trace.disable()
            print(f"# wrote {spans} spans to {args.trace}", file=sys.stderr)
        if not was_enabled:
            obs.metrics.disable()
    return 0


def cmd_profile(args) -> int:
    """Run a workload with the statement profiler on and report it.

    Runs the same workload as ``ptrack stats`` with the profiler
    aggregating per-fingerprint statement statistics and flight-recording
    plans that run for at least ``--slow-ms`` (or every ``--sample``-th
    statement).  Prints the top statements by ``--sort``, the recorded
    plans with per-operator estimate-vs-actual rows (``--flight``), or
    JSON (``--json``).  ``--ptdf FILE`` additionally writes the profile
    as PTdf so it can be loaded back into a store and compared across
    runs.
    """
    was_enabled = obs.profiler.enabled
    obs.profiler.enable(
        slow_seconds=args.slow_ms / 1000.0, sample_every=args.sample
    )
    obs.profiler.reset()
    try:
        _run_workload(args)
        profile = obs.profiler.snapshot()
        if args.json:
            print(obs.render_profile_json(profile, top=args.top, sort=args.sort))
        elif args.flight:
            print(obs.render_flight_text(profile))
        else:
            print(obs.render_profile_text(profile, top=args.top, sort=args.sort))
        if args.ptdf:
            text = obs.profile_to_ptdf(args.execution, profile=profile)
            with open(args.ptdf, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"# wrote profile PTdf to {args.ptdf}", file=sys.stderr)
    finally:
        if not was_enabled:
            obs.profiler.disable()
    return 0


def cmd_serve(args) -> int:
    """Serve a minidb database to concurrent sessions.

    Runs the JSON-lines line-protocol server (``repro.minidb.server``)
    over one shared engine: each client socket gets its own session with
    snapshot-isolated reads and per-table writer locks.  ``--port 0``
    picks an ephemeral port and prints it, which is how the load
    generator and tests attach.
    """
    from .minidb.connection import Engine
    from .minidb.server import MiniDbServer

    engine = Engine(args.db)
    server = MiniDbServer(engine, host=args.host, port=args.port)
    print(f"minidb serving {args.db} on {server.host}:{server.port}")
    sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        engine.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptrack", description="PerfTrack experiment management CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a data store")
    _add_db_options(p)
    p.set_defaults(fn=cmd_init)

    p = sub.add_parser("load", help="load PTdf files")
    _add_db_options(p)
    p.add_argument("files", nargs="+", help="PTdf files")
    p.add_argument(
        "--force",
        action="store_true",
        help="load even when the files have lint errors",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress per-file summaries and progress"
    )
    p.add_argument(
        "--progress",
        action="store_true",
        help="force per-file records/s progress lines (default when stderr is a TTY)",
    )
    p.add_argument("--trace", help="write a Chrome-trace JSON of the load to FILE")
    p.set_defaults(fn=cmd_load)

    p = sub.add_parser("lint", help="statically validate PTdf files (pt-lint)")
    _add_db_options(p)
    p.add_argument("files", nargs="+", help="PTdf files to check")
    p.add_argument("--strict", action="store_true", help="exit 1 on warnings too")
    p.add_argument("--quiet", action="store_true", help="report errors only")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("gen", help="PTdfGen: raw tool output -> PTdf")
    p.add_argument("directory", help="directory of raw tool output")
    p.add_argument("index", help="index file (one execution per line)")
    p.add_argument("--out", required=True, help="output directory for .ptdf files")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("ls", help="list store contents")
    _add_db_options(p)
    p.add_argument(
        "what",
        choices=("applications", "executions", "metrics", "tools", "types", "resources"),
    )
    p.add_argument("--application", help="restrict executions to one application")
    p.add_argument("--type", help="resource type for 'ls resources'")
    p.set_defaults(fn=cmd_ls)

    p = sub.add_parser("report", help="simple text reports")
    _add_db_options(p)
    p.add_argument("kind", choices=("summary", "application", "execution"))
    p.add_argument("name", nargs="?", help="application or execution name")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("query", help="evaluate a pr-filter")
    _add_db_options(p)
    p.add_argument("--name", action="append", help="resource family by name (repeatable)")
    p.add_argument("--type", action="append", help="resource family by type (repeatable)")
    p.add_argument(
        "--attr",
        action="append",
        help="attribute clause, e.g. 'clock MHz>1000' or 'vendor~IBM' (contains)",
    )
    p.add_argument(
        "--relatives",
        default="D",
        choices=("N", "A", "D", "B"),
        help="A/D/B/N expansion for --name families (default D)",
    )
    p.add_argument("--column", action="append", help="free-resource type to add as a column")
    p.add_argument("--sort", help="column to sort by")
    p.add_argument("--desc", action="store_true", help="sort descending")
    p.add_argument("--limit", type=int, help="show at most N rows")
    p.add_argument("--csv", help="write the table to a CSV file")
    p.add_argument("--count-only", action="store_true", help="print counts and stop")
    p.add_argument("--trace", help="write a Chrome-trace JSON of the query to FILE")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("attrs", help="show a resource's attributes")
    _add_db_options(p)
    p.add_argument("resource", help="full resource name")
    p.set_defaults(fn=cmd_attrs)

    p = sub.add_parser("chart", help="min/max bar chart across executions (Fig. 5)")
    _add_db_options(p)
    p.add_argument("--metric", required=True, help="metric family, e.g. 'CPU time'")
    p.add_argument("--name", help="restrict to one resource (e.g. a function)")
    p.add_argument("--application", help="chart all executions of an application")
    p.add_argument("executions", nargs="*", help="executions to chart")
    p.add_argument("--svg", help="write an SVG file instead of ASCII")
    p.add_argument("--csv", help="write a CSV file instead of ASCII")
    p.set_defaults(fn=cmd_chart)

    p = sub.add_parser("predict", help="fit + compare a scaling model (Section 6)")
    _add_db_options(p)
    p.add_argument("--metric", required=True)
    p.add_argument("--application", help="fit over all executions of an application")
    p.add_argument("executions", nargs="*", help="executions to fit over")
    p.add_argument(
        "--extrapolate", type=int, nargs="+", metavar="NPROC",
        help="store predictions at these process counts",
    )
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("compare", help="align two executions")
    _add_db_options(p)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--metric", help="restrict to one metric")
    p.add_argument("--threshold", type=float, default=1.10, help="regression ratio")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser(
        "stats", help="self-instrumentation: run a workload and print engine metrics"
    )
    _add_db_options(p)
    p.add_argument("files", nargs="*", help="PTdf files to load as the workload")
    p.add_argument("--json", action="store_true", help="print the snapshot as JSON")
    p.add_argument(
        "--prom", action="store_true", help="print Prometheus exposition format"
    )
    p.add_argument("--ptdf", help="also write the snapshot as PTdf to FILE")
    p.add_argument(
        "--execution",
        default="ptrack-telemetry",
        help="execution name for --ptdf output (default ptrack-telemetry)",
    )
    p.add_argument("--trace", help="write a Chrome-trace JSON of the workload to FILE")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "profile",
        help="statement profiler: run a workload and print per-statement stats",
    )
    _add_db_options(p)
    p.add_argument("files", nargs="*", help="PTdf files to load as the workload")
    p.add_argument(
        "--top", type=int, default=10, help="show the N hottest statements (default 10)"
    )
    p.add_argument(
        "--sort",
        default="time",
        choices=("time", "calls", "mean", "rows"),
        help="statement ranking (default total time)",
    )
    p.add_argument("--json", action="store_true", help="print the profile as JSON")
    p.add_argument(
        "--flight",
        action="store_true",
        help="print recorded plans with per-operator estimate vs actual rows",
    )
    p.add_argument(
        "--slow-ms",
        type=float,
        default=10.0,
        help="flight-record statements at least this slow (default 10 ms)",
    )
    p.add_argument(
        "--sample",
        type=int,
        default=0,
        help="also flight-record every Nth statement (default off)",
    )
    p.add_argument("--ptdf", help="also write the profile as PTdf to FILE")
    p.add_argument(
        "--execution",
        default="ptrack-profile",
        help="execution name for --ptdf output (default ptrack-profile)",
    )
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "serve", help="serve a minidb database to concurrent sessions"
    )
    p.add_argument("--db", default=":memory:", help="database file (default in-memory)")
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=7474,
        help="TCP port (0 = pick an ephemeral port; default 7474)",
    )
    p.set_defaults(fn=cmd_serve)

    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        help="diagnostic logging level (also $PTRACK_LOG; default warning)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    obs.configure_logging(args.log_level)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0  # e.g. `ptrack ls | head`
    except DbError as exc:
        print(f"database error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
