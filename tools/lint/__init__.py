"""Repo lint harness: AST + dataflow checks plus external tools.

``python -m tools.lint`` runs six custom checkers over the source
tree (stdlib ``ast`` only, so it works in a bare checkout).  PTL001,
PTL002 and PTL007 are flow-aware: they resolve names through the
reaching-definitions engine in :mod:`tools.lint.dataflow`.

========  ==========================================================
code      meaning
========  ==========================================================
PTL001    SQL passed to an execute/query call is built by string
          interpolation from a non-constant value — inline or via a
          variable traced to the sink (injection-prone; interpolating
          UPPERCASE module/class constants is allowed, audited sites
          carry ``# noqa: PTL001`` on the sink line)
PTL002    a DB-API cursor is opened but neither closed, returned,
          yielded, stored, nor managed by a ``with`` block — through
          any alias of the cursor variable
PTL003    bare ``except:`` in engine code (swallows KeyboardInterrupt
          and hides real faults)
PTL004    direct ``time.time()`` call instead of ``repro.obs.clock``
PTL006    per-row loop nested in a batch-protocol method
PTL007    shared mutable engine state (Table/Catalog/ColumnStore
          fields) written outside the owning modules
          (``storage.py``/``wal.py``; tests exempt)
========  ==========================================================

It then runs ``ruff`` and ``mypy`` when they are importable; pass
``--require-external`` (CI does) to fail when they are missing instead
of skipping them.  The full catalogue with rationale lives in
``docs/static_analysis.md``.
"""

from .checks import Violation, check_file, check_paths
from .dataflow import FunctionFacts, analyze

__all__ = ["Violation", "check_file", "check_paths", "FunctionFacts", "analyze"]
