"""Shared writer for the committed benchmark baseline.

``BENCH_scalability.json`` is kept in two places — the harness results
directory and the committed repo-root copy ``tools/bench_guard.py``
compares against — and every producer (the pytest benches) must update
both through :func:`merge_baseline`
so the copies can never drift apart.
"""

from __future__ import annotations

import json
import os

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def merge_baseline(results_dir: str, updates: dict) -> None:
    """Merge *updates* (top-level sections) into both baseline copies.

    Section dicts merge one level deep, so two benchmark classes can each
    contribute keys to the same section (e.g. ``observability``)
    regardless of run order.

    Each copy is written to a temp file in the same directory and moved
    into place with :func:`os.replace`, so a crash (or two racing bench
    processes) can never leave a torn half-written JSON file behind —
    readers always see either the old complete report or the new one.
    """
    for path in (
        os.path.join(results_dir, "BENCH_scalability.json"),
        os.path.join(_REPO_ROOT, "BENCH_scalability.json"),
    ):
        report = {"benchmark": "scalability"}
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                report = json.load(fh)
        for key, value in updates.items():
            if isinstance(value, dict) and isinstance(report.get(key), dict):
                report[key].update(value)
            else:
                report[key] = value
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # only on a failed write
                os.unlink(tmp)
