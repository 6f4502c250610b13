"""Every load path reads each PTdf line exactly once, and writes nothing
unless every file parsed (and, when linting, passed the gate)."""

import sys

import pytest

import repro.ptdf.parser as parser_mod
from repro.cli import main
from repro.core.datastore import PTDataStore, load_files
from repro.core.schema import TABLE_NAMES
from repro.ptdf.lint import PTdfLintError
from tests.core.corpus import corpus_writer


@pytest.fixture()
def files(tmp_path):
    """Two clean files (the second uses the first's resources), no blank lines."""
    paths = []
    for i, execs in enumerate((range(0, 2), range(2, 3))):
        path = str(tmp_path / f"part{i}.ptdf")
        corpus_writer(execs).write(path)
        paths.append(path)
    return paths


@pytest.fixture()
def tokenized(monkeypatch):
    """Count ``split_fields`` calls, through every module that binds it."""
    calls = []
    real = parser_mod.split_fields

    def counting(line):
        calls.append(line)
        return real(line)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "split_fields", None) is real:
            monkeypatch.setattr(module, "split_fields", counting)
    return calls


def line_count(paths):
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert all(line.strip() for line in lines)
        total += len(lines)
    return total


def row_counts(db):
    store = PTDataStore(database=db)
    try:
        return {table: store.count_rows(table) for table in TABLE_NAMES}
    finally:
        store.close()


def test_cli_lint_gated_multi_file_load(files, tokenized, tmp_path):
    db = str(tmp_path / "s.json")
    assert main(["load", "--quiet", "--db", db, *files]) == 0
    assert len(tokenized) == line_count(files)
    assert row_counts(db)["performance_result"] > 0


def test_cli_forced_load(files, tokenized, tmp_path):
    db = str(tmp_path / "s.json")
    assert main(["load", "--force", "--quiet", "--db", db, *files]) == 0
    assert len(tokenized) == line_count(files)


def test_load_file_with_lint(files, tokenized):
    store = PTDataStore()
    assert store.load_file(files[0], lint=True).results > 0
    assert len(tokenized) == line_count(files[:1])
    store.close()


def test_load_files(files, tokenized):
    store = PTDataStore()
    load_files(store, files, lint=True)
    assert len(tokenized) == line_count(files)
    store.close()


def test_refused_multi_file_load_writes_nothing(files, tmp_path, capsys):
    db = str(tmp_path / "s.json")
    assert main(["load", "--quiet", "--db", db, files[0]]) == 0
    before = row_counts(db)
    bad = tmp_path / "bad.ptdf"
    bad.write_text("PerfResult irs-9 /irs-9(primary) t m 1 s\n")
    extra = str(tmp_path / "extra.ptdf")
    corpus_writer(range(5, 6)).write(extra)
    assert main(["load", "--quiet", "--db", db, extra, str(bad)]) == 1
    assert "load refused" in capsys.readouterr().err
    assert row_counts(db) == before


def table_rows(store):
    return {
        table: set(store.backend.query(f"SELECT * FROM {table}"))
        for table in TABLE_NAMES
    }


def test_load_files_equals_one_load_per_file(files):
    one_by_one = PTDataStore()
    for path in files:
        one_by_one.load_file(path)
    together = PTDataStore()
    load_files(together, files, lint=True)
    assert table_rows(together) == table_rows(one_by_one)


def test_lint_gate_blocks_before_any_write(files, tmp_path):
    bad = tmp_path / "bad.ptdf"
    bad.write_text('Resource "/r1" "execution" "irs-none"\n')
    store = PTDataStore()
    before = table_rows(store)
    with pytest.raises(PTdfLintError) as excinfo:
        load_files(store, [files[0], str(bad)], lint=True)
    assert any(d.code == "PT006" for d in excinfo.value.diagnostics)
    assert table_rows(store) == before


def test_parse_error_becomes_pt000_diagnostic(tmp_path):
    bad = tmp_path / "bad.ptdf"
    bad.write_text('PerfResult "e" too many fields here oops "x" 1 2 3\n')
    with pytest.raises(PTdfLintError) as excinfo:
        load_files(PTDataStore(), [str(bad)], lint=True)
    assert any(d.code == "PT000" for d in excinfo.value.diagnostics)
