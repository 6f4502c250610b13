"""Parallel PTdf file loading: parse and lint in worker processes.

Loading a BlueGene/L-scale study means tens of large PTdf files; parsing
and schema-linting them dominates wall-clock time well before the
database does.  This module fans both out over a ``multiprocessing``
worker pool while keeping the database work — id assignment and ordered
``executemany`` flushes — in the parent, in file order, so the loaded
store is **bit-identical** to a serial load (PR 1's byte-identical
contents guarantee is the oracle; the differential test asserts it).

Pipeline
--------

1. **Parse** (parallel): each worker parses one file into a
   :class:`~repro.ptdf.parser.ParsedDocument`, collecting parse errors.
2. **Context fold** (parent, cheap): :func:`repro.ptdf.lint.fold_declarations`
   accumulates each file's declarations, producing for every file the
   exact :class:`LintContext` a sequential ``lint_files`` run would have
   reached before it.
3. **Lint** (parallel): each worker lints one parsed document against
   its folded context.  Cross-file *reference* checks (PT001/PT006) and
   cross-file PT004 type changes behave exactly as in sequential
   linting; the only divergence is that cross-file *stateful* warnings
   (PT005 duplicate attributes, PT008 unit mismatches spanning two
   files) are reported per file only.
4. **Load** (parent, serial): records apply in file order through the
   store's bulk loader — serial or sharded — so ids are deterministic.

The serial path (``workers <= 1``) runs the same steps in process: every
file is parsed once, the lint gate checks the parsed documents, and the
loader applies those same records.  Either way, nothing is written until
every file has parsed (and, with linting on, passed the gate).

Any worker failure surfaces as a structured :class:`ParallelLoadError`
naming the phase and file; a crashed worker process (killed, OOM) maps
the pool's ``BrokenProcessPool`` to the same error type.  ``workers <= 1``
or a missing ``fork`` start method falls back to the serial path.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional, Sequence

from ..obs.clock import now as _now
from ..obs.logsetup import get_logger
from ..obs.metrics import metrics as _M
from ..obs.tracing import trace as _trace
from ..ptdf.lint import (
    Diagnostic,
    LintContext,
    Linter,
    PTdfLintError,
    context_from_store,
    fold_declarations,
    has_errors,
    load_gate,
)
from ..ptdf.parser import ParsedDocument, parse_document_file
from .datastore import LoadStats

_log = get_logger("pload")

#: Environment variable consulted when ``workers`` is not given.
WORKERS_ENV = "PTRACK_WORKERS"

# Worker-pool metrics (see docs/observability.md).
_PARALLEL_LOADS = _M.counter("pload.parallel_loads")
_FILES_PARSED = _M.counter("pload.files_parsed", unit="files")
_FILES_LINTED = _M.counter("pload.files_linted", unit="files")
_WORKER_FAILURES = _M.counter("pload.worker_failures")
_PARSE_SECONDS = _M.histogram("pload.parse_seconds")
_LINT_SECONDS = _M.histogram("pload.lint_seconds")


class ParallelLoadError(RuntimeError):
    """A worker-side failure during a parallel load, with provenance.

    ``phase`` is ``"parse"`` or ``"lint"``; ``source`` the file the
    failing worker was handling (``None`` when the pool itself died and
    the file cannot be attributed).
    """

    def __init__(self, phase: str, source: Optional[str], cause: str) -> None:
        self.phase = phase
        self.source = source
        self.cause = cause
        where = f" while processing {source!r}" if source else ""
        super().__init__(f"parallel load failed in {phase} phase{where}: {cause}")


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count: argument, else $PTRACK_WORKERS, else 0.

    0 (and 1) mean serial in-process loading — the default, so nothing
    changes for existing callers unless parallelism is asked for.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 0
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}"
            ) from None
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def _parse_task(path: str) -> ParsedDocument:
    return parse_document_file(path)


def _lint_task(doc: ParsedDocument, context: LintContext) -> list[Diagnostic]:
    return Linter(context).lint_document(doc)


def load_files(
    store,
    paths: Sequence[str],
    workers: Optional[int] = None,
    lint: bool = True,
    on_file: Optional[Callable[[str, LoadStats], None]] = None,
) -> LoadStats:
    """Load PTdf files into *store* (plain or sharded), optionally parallel.

    With ``workers >= 2``, parsing and linting fan out across processes
    (see module docstring); the parent applies records in file order.
    ``on_file`` is called after each file's records are applied (CLI
    progress).  Lint errors raise :class:`PTdfLintError` before any row
    is written, exactly like the serial gate.
    """
    paths = list(paths)
    workers = resolve_workers(workers)
    if workers >= 2:
        try:
            mp_context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            _log.warning("fork start method unavailable; loading serially")
            workers = 0
    if workers < 2:
        return _load_serial(store, paths, lint, on_file)

    if _M.enabled:
        _PARALLEL_LOADS.inc()
    with _trace.span(
        "pload.load", cat="core", files=len(paths), workers=workers
    ):
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=mp_context
        ) as pool:
            docs = _run_phase(
                pool, "parse", _FILES_PARSED, _PARSE_SECONDS,
                [(path, (path,)) for path in paths], _parse_task,
            )
            if lint:
                ctx = context_from_store(store)
                tasks = []
                for path, doc in zip(paths, docs):
                    tasks.append((path, (doc, ctx.copy())))
                    fold_declarations(ctx, doc)
                diagnostics: list[Diagnostic] = []
                for file_diags in _run_phase(
                    pool, "lint", _FILES_LINTED, _LINT_SECONDS, tasks,
                    _lint_task,
                ):
                    diagnostics.extend(file_diags)
                if has_errors(diagnostics):
                    raise PTdfLintError(diagnostics)
            else:
                for path, doc in zip(paths, docs):
                    if doc.errors:
                        raise ParallelLoadError("parse", path, str(doc.errors[0]))
        return _apply(store, paths, docs, on_file)


def _apply(
    store,
    paths: Sequence[str],
    docs: list,
    on_file: Optional[Callable[[str, LoadStats], None]],
) -> LoadStats:
    """Load gated documents in file order, dropping each once applied."""
    total = LoadStats()
    for i, path in enumerate(paths):
        doc, docs[i] = docs[i], None
        stats = store.load_records(doc.records)
        total += stats
        if on_file is not None:
            on_file(path, stats)
    return total


def _run_phase(
    pool: ProcessPoolExecutor,
    phase: str,
    counter,
    histogram,
    tasks: Sequence[tuple[str, tuple]],
    fn: Callable,
) -> list:
    """Submit one task per file and gather results in submission order."""
    t0 = _now()
    futures = [(path, pool.submit(fn, *args)) for path, args in tasks]
    out = []
    for path, future in futures:
        try:
            out.append(future.result())
        except BrokenProcessPool as exc:
            if _M.enabled:
                _WORKER_FAILURES.inc()
            raise ParallelLoadError(
                phase, path, f"worker process died: {exc}"
            ) from exc
        except PTdfLintError:
            raise
        except Exception as exc:
            if _M.enabled:
                _WORKER_FAILURES.inc()
            raise ParallelLoadError(phase, path, str(exc)) from exc
    if _M.enabled:
        counter.add(len(tasks))
        histogram.observe(_now() - t0)
    return out


def _load_serial(
    store,
    paths: Sequence[str],
    lint: bool,
    on_file: Optional[Callable[[str, LoadStats], None]],
) -> LoadStats:
    docs = [parse_document_file(path) for path in paths]
    load_gate(docs, store, lint)
    return _apply(store, paths, docs, on_file)
