"""PTdf linter tests over the broken-file corpus in tests/ptdf/corpus/."""

import os

import pytest

from repro.core import PTDataStore
from repro.ptdf.lint import (
    Diagnostic,
    LintContext,
    Linter,
    context_from_store,
    has_errors,
    lint_file,
    lint_files,
    lint_string,
)

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


def corpus_path(name):
    return os.path.join(CORPUS, name)


def codes(diags):
    return [d.code for d in diags]


def by_code(diags, code):
    return [d for d in diags if d.code == code]


# ------------------------------------------------------------------ per-rule


def test_syntax_errors_recovered_per_line():
    diags = lint_file(corpus_path("syntax_errors.ptdf"))
    errors = by_code(diags, "PT000")
    assert [d.line for d in errors] == [2, 3, 4, 5, 6]
    # the valid tail after the broken lines is still checked (and clean)
    assert codes(diags) == ["PT000"] * 5


def test_parse_error_carries_field_position():
    diags = lint_string('Application "unterminated', "x.ptdf")
    assert "column" in diags[0].message and "field" in diags[0].message


def test_dangling_refs():
    diags = lint_file(corpus_path("dangling_refs.ptdf"))
    dangling = by_code(diags, "PT001")
    assert [d.line for d in dangling] == [5, 6, 7, 8]
    assert dangling[0].suggestion == "/frost"  # /forst -> /frost
    assert "/missing" in dangling[3].message


def test_undefined_type_with_suggestion():
    diags = lint_file(corpus_path("undefined_type.ptdf"))
    undefined = by_code(diags, "PT002")
    assert [d.line for d in undefined] == [4, 5]
    assert undefined[0].suggestion == "grid/machine"
    assert undefined[1].suggestion == "cluster"
    # declared extension type (and its prefix) are fine
    assert not any(d.line in (2, 3) for d in diags)


def test_depth_mismatch_and_bad_name():
    diags = lint_file(corpus_path("depth_mismatch.ptdf"))
    assert [d.line for d in by_code(diags, "PT003")] == [1, 2]
    bad_name = by_code(diags, "PT009")
    assert [d.line for d in bad_name] == [3]


def test_duplicates():
    diags = lint_file(corpus_path("duplicates.ptdf"))
    dup = by_code(diags, "PT004")
    assert [d.line for d in dup] == [3, 5, 6]
    # identical re-declaration warns; conflicting type is an error
    assert [d.severity for d in dup] == ["warning", "warning", "error"]
    assert [d.line for d in by_code(diags, "PT005")] == [8]
    assert by_code(diags, "PT005")[0].severity == "warning"


def test_unknown_execution_and_application():
    diags = lint_file(corpus_path("unknown_execution.ptdf"))
    assert by_code(diags, "PT007")[0].line == 1  # Linpack never declared
    unknown = by_code(diags, "PT006")
    assert [d.line for d in unknown] == [3, 4]
    assert unknown[1].suggestion == "lin-2p"


def test_unit_mismatch():
    diags = lint_file(corpus_path("unit_mismatch.ptdf"))
    mismatch = by_code(diags, "PT008")
    assert [d.line for d in mismatch] == [5]
    assert mismatch[0].severity == "warning"
    assert "'ms'" in mismatch[0].message and "'seconds'" in mismatch[0].message


def test_clean_file():
    assert lint_file(corpus_path("clean.ptdf")) == []


def test_use_before_declare_points_at_later_line():
    # The loaders resolve ids while streaming, so forward references are
    # load failures; the linter points at the later declaration.
    doc = (
        'PerfResult lin-2p /lin-2p(primary) timer "Wall time" 1 seconds\n'
        "Execution lin-2p Linpack\n"
        "Resource /lin-2p execution lin-2p\n"
    )
    diags = lint_string(doc, "fwd.ptdf")
    assert {d.code for d in diags if d.severity == "error"} == {"PT001", "PT006"}
    sequential = [d for d in diags if "declared later at line" in d.message]
    assert [d.line for d in sequential] == [1, 1]
    assert "line 2" in sequential[0].message or "line 2" in sequential[1].message


def test_quickstart_example_is_lint_clean():
    path = os.path.join(
        os.path.dirname(__file__), "..", "..", "examples", "data",
        "quickstart.ptdf",
    )
    assert lint_file(os.path.normpath(path)) == []


# ----------------------------------------------------------- context threading


def test_multi_file_load_shares_declarations():
    # clean.ptdf declares lin-2p etc.; a second document may reference them
    follow_up = 'PerfResult lin-2p /lin-2p(primary) timer "Wall time" 1 seconds'
    linter = Linter()
    assert linter.lint_file(corpus_path("clean.ptdf")) == []
    assert linter.lint_string(follow_up, "follow_up.ptdf") == []
    # ...but a fresh linter rejects the same document
    fresh = lint_string(follow_up, "follow_up.ptdf")
    assert has_errors(fresh)
    assert {"PT001", "PT006"} <= set(codes(fresh))


def test_datastore_load_lint_gate():
    from repro.ptdf.lint import PTdfLintError

    store = PTDataStore()
    with pytest.raises(PTdfLintError) as exc_info:
        store.load_file(corpus_path("dangling_refs.ptdf"), lint=True)
    assert any(d.code == "PT001" for d in exc_info.value.diagnostics)
    assert store.load_file(corpus_path("clean.ptdf"), lint=True).results == 1
    # the store's declarations seed later lints: a follow-up document may
    # reference what the first load created
    follow_up = 'PerfResult lin-2p /lin-2p(primary) timer "Wall time" 1 seconds'
    assert store.load_string(follow_up, lint=True).results == 1
    store.close()


def test_context_from_store_seeds_declarations():
    store = PTDataStore()
    store.load_file(corpus_path("clean.ptdf"))
    context = context_from_store(store)
    follow_up = 'PerfResult lin-2p /lin-2p(primary) timer "Wall time" 1 seconds'
    assert lint_string(follow_up, context=context) == []
    store.close()


def test_lint_files_threads_one_context():
    diags = lint_files(
        [corpus_path("clean.ptdf"), corpus_path("unit_mismatch.ptdf")]
    )
    # unit_mismatch.ptdf re-declares lin-2p -> no dangling refs, only its
    # own findings (and the metric-units map spans files)
    assert all(d.source.endswith("unit_mismatch.ptdf") for d in diags)


def test_diagnostic_str_format():
    d = Diagnostic("f.ptdf", 3, "error", "PT001", "boom", suggestion="/frost")
    assert str(d) == "f.ptdf:3: error PT001: boom; did you mean '/frost'?"


def test_base_types_known_by_default():
    context = LintContext()
    assert "grid/machine/partition/node/processor" in context.types
    assert "application" in context.types


# ------------------------------------------------------------------ CLI wiring


def test_cli_lint_exit_codes(capsys):
    from repro.cli import pt_lint_main

    assert pt_lint_main([corpus_path("clean.ptdf")]) == 0
    assert pt_lint_main([corpus_path("dangling_refs.ptdf")]) == 1
    # warnings only -> 0, unless --strict
    assert pt_lint_main([corpus_path("unit_mismatch.ptdf")]) == 0
    assert pt_lint_main(["--strict", corpus_path("unit_mismatch.ptdf")]) == 1
    out = capsys.readouterr().out
    assert "PT008" in out


def test_cli_load_refuses_bad_files_without_force(capsys):
    from repro.cli import main

    assert main(["load", corpus_path("dangling_refs.ptdf")]) == 1
    err = capsys.readouterr().err
    assert "PT001" in err and "--force" in err


def test_cli_load_accepts_clean_files(capsys):
    from repro.cli import main

    assert main(["load", corpus_path("clean.ptdf")]) == 0
    assert "1 results" in capsys.readouterr().out


# ------------------------------------------------------------------ PT004 across files


@pytest.fixture()
def retyped(tmp_path):
    """``/m`` declared as a grid in one file and as an execution in another."""
    a = tmp_path / "a.ptdf"
    a.write_text("Resource /m grid\n")
    same = tmp_path / "b.ptdf"
    same.write_text("Resource /m grid\n")
    c = tmp_path / "c.ptdf"
    c.write_text("Application x\nResource /m execution\n")
    return str(a), str(same), str(c)


def test_type_change_across_files_is_pt004(retyped):
    a, _, c = retyped
    diags = lint_files([a, c])
    (diag,) = by_code(diags, "PT004")
    assert diag.severity == "error" and (diag.source, diag.line) == (c, 2)
    assert f"{a}:1" in diag.message and "'grid'" in diag.message


def test_same_type_across_files_stays_silent(retyped):
    a, same, _ = retyped
    assert lint_files([a, same]) == []


def test_store_seeded_context_is_name_only(retyped):
    a, _, c = retyped
    store = PTDataStore()
    store.load_file(a)
    assert by_code(lint_file(c, context_from_store(store)), "PT004") == []
    store.close()


def test_parallel_gate_sees_type_change_across_files(retyped):
    from repro.core import load_files
    from repro.ptdf.lint import PTdfLintError

    a, _, c = retyped
    store = PTDataStore()
    with pytest.raises(PTdfLintError) as exc_info:
        load_files(store, [a, c], lint=True)
    assert [d.line for d in by_code(exc_info.value.diagnostics, "PT004")] == [2]
    assert store.count_rows("resource_item") == 0
    store.close()


def test_linting_folds_declarations_into_the_context(retyped):
    a, _, c = retyped
    context = LintContext()
    lint_files([a, c], context)
    assert context.resource_types["/m"] == ("grid", a, 1)
    assert "/m" in context.resources and "x" in context.applications
