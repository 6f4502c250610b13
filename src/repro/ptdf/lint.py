"""Schema-aware static validation of PTdf files — no database required.

``pt-lint`` (and ``ptrack lint``) run these checks before a file ever
touches a data store, catching the classes of mistake that otherwise load
silently (a typo'd resource type quietly grows the focus framework; a
mistyped units string splits one metric family in two) or fail halfway
through a load with the transaction already warm.

Rule catalogue
--------------

========  ========  =====================================================
code      severity  meaning
========  ========  =====================================================
PT000     error     line does not parse (tokeniser or record error)
PT001     error     dangling resource reference: a ResourceAttribute,
                    ResourceConstraint, resource-valued attribute or
                    PerfResult focus names a resource never declared
PT002     error     undefined resource type: a Resource's type is neither
                    a base type (paper Figure 2) nor declared by a
                    ResourceType record — the loader would silently
                    extend the focus framework
PT003     error     type-depth mismatch: a Resource's name depth differs
                    from its type-path depth (the loader refuses this)
PT004     error/    duplicate resource or execution definition; an error
          warning   when re-declared with a *different* type (the loader
                    silently keeps the first), also across the files of
                    one lint run; a warning when identical within one
                    file.  A context seeded from a store knows names
                    only, so a type change against stored data passes
PT005     warning   duplicate (resource, attribute) definition
PT006     error     unknown execution: a Resource binding or PerfResult
                    names an execution never declared
PT007     warning   unknown application: an Execution names an
                    application with no Application record (the loader
                    auto-creates it)
PT008     warning   unit mismatch: one metric reported with two different
                    units strings, splitting the metric family
PT009     error     invalid resource name (must be ``/``-rooted)
========  ========  =====================================================

Reference checks are sequential, exactly like the loader (it resolves
resource/execution ids while streaming the file), so a
use-before-declare that would abort a load is reported — with a pointer
to the later declaration line.  Type and application references are
order-free because the loader auto-creates both on first use.  A parse
error on one line does not stop the remaining lines from being checked.
Linting a
sequence of files threads one :class:`LintContext` through all of them,
so later files may reference resources declared by earlier ones — exactly
how ``ptrack load a.ptdf b.ptdf`` behaves.  Seed the context from an
existing store with :func:`context_from_store` to lint an incremental
load against data already in the database.

The linter works on :class:`~repro.ptdf.parser.ParsedDocument` objects,
so a load parses each file once: :func:`load_gate` lints the documents
the loader then applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from difflib import get_close_matches
from typing import Any, Iterable, Optional, Sequence

from .basetypes import all_base_type_paths
from .format import (
    ApplicationRec,
    ExecutionRec,
    PerfResultRec,
    PerfResultSeriesRec,
    ResourceAttributeRec,
    ResourceConstraintRec,
    ResourceRec,
    ResourceTypeRec,
    split_name,
)
from .parser import ParsedDocument, PTdfParseError, parse_document, parse_document_file

SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding, pinned to a file and line."""

    source: str
    line: int
    severity: str  # "error" | "warning"
    code: str  # "PT000".."PT009"
    message: str
    suggestion: Optional[str] = None

    def __str__(self) -> str:
        text = f"{self.source}:{self.line}: {self.severity} {self.code}: {self.message}"
        if self.suggestion is not None:
            text = f"{text}; did you mean {self.suggestion!r}?"
        return text


class PTdfLintError(ValueError):
    """Raised by ``PTDataStore.load_*(..., lint=True)`` on lint errors."""

    def __init__(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics = list(diagnostics)
        errors = [d for d in self.diagnostics if d.severity == "error"]
        shown = "; ".join(str(d) for d in errors[:3])
        more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
        super().__init__(f"PTdf lint failed: {shown}{more}")


@dataclass
class LintContext:
    """Declarations visible to the linter before the file under check.

    A fresh context knows the base resource types (every store is
    initialised with them); everything else starts empty.  Linting a file
    folds its declarations back into the context, so one context threaded
    through several files models a sequential multi-file load.
    ``resource_types`` maps each explicitly declared resource to its first
    ``(type, source, line)`` so PT004 catches a type change in a later
    file; contexts seeded from a store leave it empty.
    """

    types: set[str] = field(default_factory=lambda: set(all_base_type_paths()))
    resources: set[str] = field(default_factory=set)
    executions: set[str] = field(default_factory=set)
    applications: set[str] = field(default_factory=set)
    resource_types: dict[str, tuple[str, str, int]] = field(default_factory=dict)


def context_from_store(store: Any) -> LintContext:
    """Seed a :class:`LintContext` from an open ``PTDataStore``."""
    return LintContext(
        types=set(store._type_ids),
        resources=set(store._resource_ids),
        executions=set(store._exec_ids),
        applications=set(store._app_ids),
    )


def _closest(name: str, candidates: Iterable[str]) -> Optional[str]:
    """Best did-you-mean candidate for *name*, or None."""
    pool: dict[str, str] = {}
    for cand in candidates:
        pool.setdefault(cand.lower(), cand)
    matches = get_close_matches(name.lower(), list(pool), n=1, cutoff=0.6)
    return pool[matches[0]] if matches else None


def _type_prefixes(type_path: str) -> list[str]:
    """Every prefix of a type path (``a/b/c`` -> ``a``, ``a/b``, ``a/b/c``)."""
    segments = [s for s in type_path.split("/") if s]
    return ["/".join(segments[: d + 1]) for d in range(len(segments))]


def _ancestors(name: str) -> list[str]:
    """The resource name and every ancestor (``/a/b`` -> ``/a``, ``/a/b``)."""
    try:
        parts = split_name(name)
    except ValueError:
        return [name]
    return ["/" + "/".join(parts[: d + 1]) for d in range(len(parts))]


class Linter:
    """Lint PTdf documents against one (mutating) :class:`LintContext`."""

    def __init__(self, context: Optional[LintContext] = None) -> None:
        self.context = context if context is not None else LintContext()
        #: units seen per metric name: metric -> (units, source, line)
        self._metric_units: dict[str, tuple[str, str, int]] = {}
        #: "resource\x00attribute" -> line first set
        self._seen_attr: dict[str, int] = {}
        # per-file working state (reset by _check)
        self._resources: set[str] = set()
        self._executions: set[str] = set()
        self._all_resources: dict[str, int] = {}
        self._all_executions: dict[str, int] = {}

    # ------------------------------------------------------------------ front ends

    def lint_document(self, doc: ParsedDocument) -> list[Diagnostic]:
        """Diagnostics for a parsed document: its parse errors as PT000,
        then the checks over the records that did parse, in line order."""
        diagnostics = [self._parse_error(err) for err in doc.errors]
        diagnostics.extend(self._check(doc))
        diagnostics.sort(key=lambda d: d.line)
        return diagnostics

    def lint_lines(
        self, lines: Iterable[str], source: str = "<string>"
    ) -> list[Diagnostic]:
        return self.lint_document(parse_document(lines, source))

    def lint_string(self, text: str, source: str = "<string>") -> list[Diagnostic]:
        return self.lint_lines(text.split("\n"), source)

    def lint_file(self, path: str) -> list[Diagnostic]:
        return self.lint_document(parse_document_file(path))

    # ------------------------------------------------------------------ internals

    @staticmethod
    def _parse_error(err: PTdfParseError) -> Diagnostic:
        message = err.message
        if err.field is not None:
            message = f"{message} (field {err.field})"
        return Diagnostic(err.source, err.lineno, "error", "PT000", message)

    def _check(self, doc: ParsedDocument) -> list[Diagnostic]:
        ctx = self.context
        source = doc.source
        out: list[Diagnostic] = []

        # Pass 1: collect whole-file declarations.  Types and applications
        # are order-free (the loader auto-creates both on first use), and
        # the full resource/execution maps let sequential-order misses say
        # "declared later at line N" instead of just "undeclared".
        decl_types = set(ctx.types)
        decl_applications = set(ctx.applications)
        explicit_apps = set(ctx.applications)
        all_resources: dict[str, int] = {}  # name (incl. ancestors) -> line
        all_executions: dict[str, int] = {}
        for lineno, rec in zip(doc.linenos, doc.records):
            if isinstance(rec, ApplicationRec):
                decl_applications.add(rec.name)
                explicit_apps.add(rec.name)
            elif isinstance(rec, ResourceTypeRec):
                decl_types.update(_type_prefixes(rec.name))
            elif isinstance(rec, ExecutionRec):
                all_executions.setdefault(rec.name, lineno)
                decl_applications.add(rec.application)
            elif isinstance(rec, ResourceRec):
                # the loader creates every missing ancestor alongside
                for name in _ancestors(rec.name):
                    all_resources.setdefault(name, lineno)

        # Pass 2: per-record checks, in line order.  Resource and execution
        # references must already be declared: the loader resolves them
        # while streaming the file.
        self._resources = set(ctx.resources)
        self._executions = set(ctx.executions)
        self._all_resources = all_resources
        self._all_executions = all_executions
        first_resource: dict[str, tuple[int, str]] = {}  # name -> (line, type)
        first_execution: dict[str, int] = {}
        for lineno, rec in zip(doc.linenos, doc.records):
            if isinstance(rec, ResourceTypeRec):
                continue
            if isinstance(rec, ExecutionRec):
                prev = first_execution.get(rec.name)
                if prev is not None:
                    out.append(
                        Diagnostic(
                            source, lineno, "warning", "PT004",
                            f"duplicate Execution {rec.name!r} "
                            f"(first declared at line {prev})",
                        )
                    )
                else:
                    first_execution[rec.name] = lineno
                self._executions.add(rec.name)
                if rec.application not in explicit_apps:
                    out.append(
                        Diagnostic(
                            source, lineno, "warning", "PT007",
                            f"Execution {rec.name!r} names application "
                            f"{rec.application!r} with no Application record",
                            suggestion=_closest(rec.application, explicit_apps),
                        )
                    )
            elif isinstance(rec, ResourceRec):
                out.extend(
                    self._check_resource(
                        rec, source, lineno, decl_types, first_resource
                    )
                )
                self._resources.update(_ancestors(rec.name))
            elif isinstance(rec, ResourceAttributeRec):
                out.extend(
                    self._ref(rec.resource, "ResourceAttribute", source, lineno)
                )
                if rec.attr_type == "resource":
                    out.extend(
                        self._ref(rec.value, "resource-valued attribute", source,
                                  lineno)
                    )
                key = f"{rec.resource}\x00{rec.attribute}"
                prev_line = self._seen_attr.get(key)
                if prev_line is not None:
                    out.append(
                        Diagnostic(
                            source, lineno, "warning", "PT005",
                            f"duplicate attribute {rec.attribute!r} on "
                            f"{rec.resource!r} (first set at line {prev_line})",
                        )
                    )
                else:
                    self._seen_attr[key] = lineno
            elif isinstance(rec, ResourceConstraintRec):
                out.extend(
                    self._ref(rec.resource1, "ResourceConstraint", source, lineno)
                )
                out.extend(
                    self._ref(rec.resource2, "ResourceConstraint", source, lineno)
                )
            elif isinstance(rec, (PerfResultRec, PerfResultSeriesRec)):
                if rec.execution not in self._executions:
                    later = self._all_executions.get(rec.execution)
                    message = f"PerfResult for unknown execution {rec.execution!r}"
                    if later is not None:
                        message = (
                            f"PerfResult uses execution {rec.execution!r} "
                            f"declared later at line {later} (PTdf loads "
                            f"sequentially)"
                        )
                    out.append(
                        Diagnostic(
                            source, lineno, "error", "PT006", message,
                            suggestion=None if later is not None else _closest(
                                rec.execution, self._executions
                            ),
                        )
                    )
                for rset in rec.resource_sets:
                    for name in rset.names:
                        out.extend(
                            self._ref(name, f"{rset.set_type} focus", source,
                                      lineno)
                        )
                seen = self._metric_units.get(rec.metric)
                if seen is not None and seen[0] != rec.units:
                    out.append(
                        Diagnostic(
                            source, lineno, "warning", "PT008",
                            f"metric {rec.metric!r} reported in {rec.units!r} "
                            f"but {seen[0]!r} at {seen[1]}:{seen[2]} — this "
                            f"splits the metric family",
                        )
                    )
                elif seen is None:
                    self._metric_units[rec.metric] = (rec.units, source, lineno)

        decl_resources = self._resources
        decl_executions = self._executions
        # Fold this file's declarations into the context for the next file.
        ctx.types = decl_types
        ctx.resources = decl_resources
        ctx.executions = decl_executions
        ctx.applications = decl_applications
        for name, (line, type_path) in first_resource.items():
            ctx.resource_types.setdefault(name, (type_path, source, line))
        return out

    def _check_resource(
        self,
        rec: ResourceRec,
        source: str,
        lineno: int,
        decl_types: set[str],
        first_resource: dict[str, tuple[int, str]],
    ) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        try:
            depth = len(split_name(rec.name))
        except ValueError as exc:
            out.append(Diagnostic(source, lineno, "error", "PT009", str(exc)))
            depth = None
        if rec.type not in decl_types:
            out.append(
                Diagnostic(
                    source, lineno, "error", "PT002",
                    f"Resource {rec.name!r} has undefined type {rec.type!r}",
                    suggestion=_closest(rec.type, decl_types),
                )
            )
        elif depth is not None:
            type_depth = len([s for s in rec.type.split("/") if s])
            if type_depth != depth:
                out.append(
                    Diagnostic(
                        source, lineno, "error", "PT003",
                        f"Resource {rec.name!r} has depth {depth} but type "
                        f"{rec.type!r} has depth {type_depth}",
                    )
                )
        if rec.execution is not None and rec.execution not in self._executions:
            later = self._all_executions.get(rec.execution)
            if later is not None:
                message = (
                    f"Resource {rec.name!r} uses execution {rec.execution!r} "
                    f"declared later at line {later} (PTdf loads sequentially)"
                )
                suggestion = None
            else:
                message = (
                    f"Resource {rec.name!r} bound to unknown execution "
                    f"{rec.execution!r}"
                )
                suggestion = _closest(rec.execution, self._executions)
            out.append(
                Diagnostic(source, lineno, "error", "PT006", message,
                           suggestion=suggestion)
            )
        prev = first_resource.get(rec.name)
        if prev is not None:
            prev_line, prev_type = prev
            if prev_type != rec.type:
                out.append(
                    Diagnostic(
                        source, lineno, "error", "PT004",
                        f"resource {rec.name!r} re-declared with type "
                        f"{rec.type!r}; line {prev_line} declared it as "
                        f"{prev_type!r} (the loader keeps the first)",
                    )
                )
            else:
                out.append(
                    Diagnostic(
                        source, lineno, "warning", "PT004",
                        f"duplicate Resource {rec.name!r} "
                        f"(first declared at line {prev_line})",
                    )
                )
        else:
            first_resource[rec.name] = (lineno, rec.type)
            earlier = self.context.resource_types.get(rec.name)
            if earlier is not None and earlier[0] != rec.type:
                prev_type, prev_source, prev_line = earlier
                out.append(
                    Diagnostic(
                        source, lineno, "error", "PT004",
                        f"resource {rec.name!r} re-declared with type "
                        f"{rec.type!r}; {prev_source}:{prev_line} declared "
                        f"it as {prev_type!r} (the loader keeps the first)",
                    )
                )
        return out

    def _ref(
        self, name: str, what: str, source: str, lineno: int
    ) -> list[Diagnostic]:
        if name in self._resources:
            return []
        later = self._all_resources.get(name)
        if later is not None:
            return [
                Diagnostic(
                    source, lineno, "error", "PT001",
                    f"{what} references resource {name!r} declared later at "
                    f"line {later} (PTdf loads sequentially)",
                )
            ]
        return [
            Diagnostic(
                source, lineno, "error", "PT001",
                f"{what} references undeclared resource {name!r}",
                suggestion=_closest(name, self._resources),
            )
        ]


# -------------------------------------------------------------------- module API


def lint_string(
    text: str, source: str = "<string>", context: Optional[LintContext] = None
) -> list[Diagnostic]:
    """Lint a PTdf document held in a string."""
    return Linter(context).lint_string(text, source)


def lint_file(path: str, context: Optional[LintContext] = None) -> list[Diagnostic]:
    """Lint one PTdf file from disk."""
    return Linter(context).lint_file(path)


def lint_documents(
    docs: Iterable[ParsedDocument], context: Optional[LintContext] = None
) -> list[Diagnostic]:
    """Lint several documents as one sequential load (shared declarations)."""
    linter = Linter(context)
    out: list[Diagnostic] = []
    for doc in docs:
        out.extend(linter.lint_document(doc))
    return out


def lint_files(
    paths: Iterable[str], context: Optional[LintContext] = None
) -> list[Diagnostic]:
    """Lint several files as one sequential load (shared declarations)."""
    return lint_documents((parse_document_file(p) for p in paths), context)


def load_gate(
    docs: Sequence[ParsedDocument], store: Any, lint: bool
) -> list[Diagnostic]:
    """Check a load's parsed documents before anything is written.

    With *lint*, lint them as one sequential load against *store*'s
    declarations and raise
    :class:`PTdfLintError` on any error, parse errors included as PT000;
    otherwise return the diagnostics (warnings only).  Without *lint*,
    raise the first parse error, so even a forced load writes nothing
    unless every document parsed.
    """
    if not lint:
        for doc in docs:
            if doc.errors:
                raise doc.errors[0]
        return []
    diagnostics = lint_documents(docs, context_from_store(store))
    if has_errors(diagnostics):
        raise PTdfLintError(diagnostics)
    return diagnostics


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    """True when any diagnostic is a hard error (not a warning)."""
    return any(d.severity == "error" for d in diagnostics)
