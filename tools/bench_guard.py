"""Benchmark regression guard: compare a fresh bench report to a baseline.

``python -m tools.bench_guard baseline.json candidate.json`` exits 1 when
a guarded metric in the candidate regresses more than the allowed
fraction from the baseline.  CI's ``bench-regression`` job runs the
scalability benchmark on the base commit (a worktree of the pull
request's base, or of the commit before a push) for the baseline, then
on the commit itself, on the same runner, then runs this guard so a PR
cannot silently regress the bulk-load or query-execution paths.  (The
``load-generator-smoke`` job still compares against the committed
``BENCH_scalability.json``.)

Guarded keys are dotted paths into the report.  Direction is inferred
from the key name: keys ending in ``_seconds`` are latencies (lower is
better, the guard fails when the candidate rises above
``base * (1 + threshold)``); everything else is a rate (higher is
better, failing below ``base * (1 - threshold)``).  A key missing from
the *baseline* is skipped (new metrics need one PR to seed a baseline);
a key missing from the *candidate* fails (the bench stopped reporting
something it should).  Whole-section absences are reported as such
("missing baseline section ..." / "missing section ... in candidate")
so a dropped benchmark reads differently from a renamed leaf metric.
Unreadable or malformed report files exit 2 with a clear error instead
of a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional

#: dotted report paths guarded by default; ``*_seconds`` keys are
#: latencies (lower = better), the rest are rates (higher = better)
DEFAULT_KEYS = (
    "load.bulk_rows_per_s",
    "query_path.stream_full_drain_seconds",
    "query_path.stream_first_row_seconds",
    "vectorized.drain_seconds",
    "vectorized.first_row_seconds",
    "observability.profiler_enabled_drain_seconds",
    "concurrency.throughput_ops_per_s",
    "concurrency.p95_seconds",
)

DEFAULT_THRESHOLD = 0.10


def _lookup(report: dict, dotted: str) -> Optional[Any]:
    node: Any = report
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _section(dotted: str) -> str:
    """The top-level report section a dotted key lives in."""
    return dotted.split(".", 1)[0]


def _has_section(report: dict, dotted: str) -> bool:
    return isinstance(report, dict) and _section(dotted) in report


def _lower_is_better(key: str) -> bool:
    return key.rsplit(".", 1)[-1].endswith("_seconds")


def compare(
    baseline: dict,
    candidate: dict,
    keys: tuple[str, ...] = DEFAULT_KEYS,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[str]:
    """Problems found comparing *candidate* to *baseline* (empty = pass)."""
    problems = []
    for key in keys:
        base = _lookup(baseline, key)
        cand = _lookup(candidate, key)
        if base is None:
            # Distinguish a whole section never seeded (fine: new metrics
            # need one PR to land a baseline) from a present section that
            # lost one leaf — both skip, but say which happened.
            if not _has_section(baseline, key):
                print(
                    f"bench_guard: missing baseline section "
                    f"{_section(key)!r} for {key}; skipping (new sections "
                    f"need one PR to seed a baseline)"
                )
            else:
                print(f"bench_guard: {key}: no baseline value, skipping")
            continue
        if cand is None:
            if not _has_section(candidate, key):
                problems.append(
                    f"{key}: missing section {_section(key)!r} in candidate "
                    f"report — did the benchmark that produces it fail to run?"
                )
            else:
                problems.append(f"{key}: missing from candidate report")
            continue
        if _lower_is_better(key):
            bound = base * (1.0 + threshold)
            ok = cand <= bound
            verdict = "OK" if ok else "REGRESSION"
            print(
                f"bench_guard: {key}: baseline={base:.6g} candidate={cand:.6g} "
                f"ceiling={bound:.6g} [{verdict}]"
            )
            if not ok:
                problems.append(
                    f"{key}: {cand:.6g} is more than {threshold:.0%} above "
                    f"baseline {base:.6g}"
                )
        else:
            bound = base * (1.0 - threshold)
            ok = cand >= bound
            verdict = "OK" if ok else "REGRESSION"
            print(
                f"bench_guard: {key}: baseline={base:.6g} candidate={cand:.6g} "
                f"floor={bound:.6g} [{verdict}]"
            )
            if not ok:
                problems.append(
                    f"{key}: {cand:.6g} is more than {threshold:.0%} below "
                    f"baseline {base:.6g}"
                )
    return problems


class _ReportError(Exception):
    """A report file could not be read or parsed."""


def _load_report(path: str, role: str) -> dict:
    """Load one report, translating failures into actionable messages."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except OSError as exc:
        raise _ReportError(f"cannot read {role} report {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _ReportError(
            f"{role} report {path!r} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(report, dict):
        raise _ReportError(
            f"{role} report {path!r} must be a JSON object of sections, "
            f"got {type(report).__name__}"
        )
    return report


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tools.bench_guard")
    parser.add_argument("baseline", help="committed baseline report (JSON)")
    parser.add_argument("candidate", help="freshly generated report (JSON)")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional regression before failing (default: 0.10)",
    )
    parser.add_argument(
        "--key",
        action="append",
        dest="keys",
        help=f"dotted metric path to guard (default: {', '.join(DEFAULT_KEYS)})",
    )
    args = parser.parse_args(argv)
    try:
        baseline = _load_report(args.baseline, "baseline")
        candidate = _load_report(args.candidate, "candidate")
    except _ReportError as exc:
        print(f"bench_guard: ERROR: {exc}", file=sys.stderr)
        return 2
    keys = tuple(args.keys) if args.keys else DEFAULT_KEYS
    problems = compare(baseline, candidate, keys, args.threshold)
    for problem in problems:
        print(f"bench_guard: FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
