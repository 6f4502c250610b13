"""Crash emulation for file-backed minidb connections.

When a process dies, the kernel closes its files: the WAL handle goes and
the ``flock`` on ``<path>.lock`` is released, but nothing is checkpointed.
An abandoned :class:`~repro.minidb.Connection` keeps both open, so a test
that reopens the store in the same process "after a crash" drops them
with :func:`crash` first.
"""

from __future__ import annotations


def crash(conn) -> None:
    """Abandon *conn* as a killed process would: close its WAL handle and
    its lock file without a rollback or a checkpoint.  Committed records
    are already on disk (each commit fsyncs); uncommitted ones never
    reached the file.  *conn* counts as closed afterwards."""
    if conn.db.journal is not None:
        conn.db.journal.close()
    conn._unlock()
    conn._closed = True
