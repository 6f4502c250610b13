"""One session per file-backed store: the ``<path>.lock`` file lock."""

import os
import subprocess
import sys
import threading
import time

import pytest

import repro.minidb as minidb
from repro.minidb import connection

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "store.db")


@pytest.fixture
def short_wait(monkeypatch):
    """A lock wait short enough for a test, still long enough to retry."""
    monkeypatch.setattr(connection, "LOCK_TIMEOUT_S", 0.2)


def _rows(path):
    c = minidb.connect(path)
    try:
        return c.execute("SELECT v FROM t ORDER BY v").fetchall()
    finally:
        c.close()


def test_second_connection_is_refused_and_the_first_commit_survives(db_path, short_wait):
    a = minidb.connect(db_path)
    a.execute("CREATE TABLE t (v TEXT)")
    a.execute("INSERT INTO t VALUES ('a')")
    a.commit()
    t0 = time.perf_counter()
    with pytest.raises(minidb.OperationalError, match="database is locked"):
        minidb.connect(db_path)
    assert time.perf_counter() - t0 >= 0.2  # it waited before giving up
    a.execute("INSERT INTO t VALUES ('b')")
    a.commit()
    a.close()
    assert _rows(db_path) == [("a",), ("b",)]


def test_close_rolls_back_and_releases_the_lock(db_path, short_wait):
    a = minidb.connect(db_path)
    a.execute("CREATE TABLE t (v TEXT)")
    a.execute("INSERT INTO t VALUES ('kept')")
    a.commit()
    a.execute("INSERT INTO t VALUES ('uncommitted')")
    a.close()
    assert _rows(db_path) == [("kept",)]  # opens at once, without the open write


def test_lock_file_is_left_in_place_and_empty(db_path):
    minidb.connect(db_path).close()
    assert os.path.getsize(db_path + ".lock") == 0
    minidb.connect(db_path).close()  # a left-over lock file locks nothing
    assert os.path.getsize(db_path + ".lock") == 0


def test_waiting_opener_gets_the_store_once_the_holder_closes(db_path):
    holding = threading.Event()

    def hold():
        c = minidb.connect(db_path)
        c.execute("CREATE TABLE t (v TEXT)")
        c.execute("INSERT INTO t VALUES ('first')")
        c.commit()
        holding.set()
        time.sleep(0.3)
        c.close()

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert holding.wait(10)
        c = minidb.connect(db_path)  # waits out the holder
        c.execute("INSERT INTO t VALUES ('second')")
        c.commit()
        c.close()
    finally:
        holder.join(10)
    assert not holder.is_alive()
    assert _rows(db_path) == [("first",), ("second",)]


def test_a_killed_process_releases_the_lock(db_path, short_wait):
    script = (
        "import os, repro.minidb as m\n"
        f"c = m.connect({db_path!r})\n"
        "c.execute('CREATE TABLE t (v TEXT)')\n"
        "c.execute(\"INSERT INTO t VALUES ('committed')\")\n"
        "c.commit()\n"
        "c.execute(\"INSERT INTO t VALUES ('lost')\")\n"
        "os._exit(0)\n"  # no close(), no checkpoint: the kernel drops the lock
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    subprocess.run([sys.executable, "-c", script], check=True, env=env, timeout=60)
    assert os.path.exists(db_path + ".wal")
    assert _rows(db_path) == [("committed",)]


def test_memory_databases_take_no_lock(tmp_path, monkeypatch, short_wait):
    monkeypatch.chdir(tmp_path)
    a, b = minidb.connect(), minidb.connect(":memory:")
    a.execute("CREATE TABLE t (v TEXT)")
    b.execute("CREATE TABLE t (v TEXT)")
    a.close()
    b.close()
    assert os.listdir(tmp_path) == []


def _store(path):
    c = minidb.connect(path)
    c.execute("CREATE TABLE t (v TEXT)")
    c.execute("INSERT INTO t VALUES ('a')")
    c.commit()
    c.close()


def _truncate(path):
    with open(path, "rb+") as fh:
        fh.truncate(os.path.getsize(path) - 3)


def _garble_header(path):
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(b"{not json" + data[data.index(b"\n"):])


@pytest.mark.parametrize("damage, message", [
    (_truncate, "bytes of table data"),
    (_garble_header, "cannot read database file"),
], ids=["truncated", "corrupt-header"])
def test_failed_open_releases_the_lock(db_path, short_wait, damage, message):
    _store(db_path)
    damage(db_path)
    for _ in range(2):  # the second open reports the damage, not the lock
        with pytest.raises(minidb.OperationalError, match=message):
            minidb.connect(db_path)
    assert os.path.getsize(db_path + ".lock") == 0


def test_close_releases_the_lock_when_the_checkpoint_fails(db_path, short_wait, monkeypatch):
    c = minidb.connect(db_path)
    c.execute("CREATE TABLE t (v TEXT)")
    c.execute("INSERT INTO t VALUES ('a')")
    c.commit()

    def fail(db, path):
        raise OSError("disk full")

    monkeypatch.setattr("repro.minidb.wal.write_snapshot", fail)
    with pytest.raises(OSError, match="disk full"):
        c.close()
    monkeypatch.undo()
    assert _rows(db_path) == [("a",)]  # reopened at once, from the WAL
