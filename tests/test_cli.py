"""CLI tests: every ptrack subcommand end to end."""

import os
import subprocess
import sys

import pytest

import repro.minidb as minidb
from repro import cli
from repro.cli import main
from repro.minidb import connection
from repro.synth.irs_gen import IRSRunSpec, generate_irs_run
from repro.synth.machines import MCR

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """A generated study + loaded store file, shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw"
    generate_irs_run(IRSRunSpec("irs-cli-p0004-r0", MCR, 4), str(raw))
    generate_irs_run(IRSRunSpec("irs-cli-p0008-r0", MCR, 8), str(raw))
    index = root / "study.index"
    index.write_text(
        "irs-cli-p0004-r0 IRS MPI 4 1 t0 t1\n"
        "irs-cli-p0008-r0 IRS MPI 8 1 t0 t1\n"
    )
    out = root / "ptdf"
    assert main(["gen", str(raw), str(index), "--out", str(out)]) == 0
    db = str(root / "store.json")
    assert main(["init", "--db", db]) == 0
    ptdfs = sorted(str(out / f) for f in os.listdir(out))
    assert main(["load", "--db", db, *ptdfs]) == 0
    return db


class TestGenLoad:
    def test_gen_produces_ptdf(self, study, capsys):
        # (exercised by the fixture; here just assert store state via ls)
        assert main(["ls", "--db", study, "executions"]) == 0
        out = capsys.readouterr().out
        assert "irs-cli-p0004-r0" in out and "irs-cli-p0008-r0" in out

    def test_load_missing_file_errors(self, study, capsys):
        assert main(["load", "--db", study, "/no/such.ptdf"]) == 1

    def test_gen_missing_index_errors(self, tmp_path):
        assert main(["gen", str(tmp_path), str(tmp_path / "nope.index"),
                     "--out", str(tmp_path / "o")]) == 1


class TestMultiFileLoad:
    @pytest.fixture()
    def ptdfs(self, tmp_path):
        from tests.core.corpus import corpus_writer

        paths = []
        for i, execs in enumerate((range(0, 2), range(2, 4))):
            path = str(tmp_path / f"part{i}.ptdf")
            corpus_writer(execs).write(path)
            paths.append(path)
        return paths

    def test_load_reports_warnings_and_progress(self, ptdfs, tmp_path, capsys):
        warn = tmp_path / "warn.ptdf"
        warn.write_text(
            'ResourceAttribute /LLNL/BGL/batch/n0 "memory MB" 1 string\n'
        )
        db = str(tmp_path / "store.json")
        assert main(["load", "--db", db, "--progress", ptdfs[0], str(warn)]) == 0
        err = capsys.readouterr().err
        assert "PT005" in err
        assert f"{warn}: 1 records in" in err and "records/s" in err


class TestOldShardedLayoutRefused:
    """A directory the removed ``ptrack load --shards`` wrote is refused
    with one structured error, on both backends and by every command
    that opens ``--db``."""

    @pytest.fixture(params=["minidb", "sqlite"])
    def layout(self, request, tmp_path):
        import json

        directory = tmp_path / "store"
        directory.mkdir()
        (directory / "shards.json").write_text(
            json.dumps({"version": 1, "n_shards": 2, "backend": request.param})
        )
        for name in ("catalog.db", "shard-0000.db", "shard-0001.db"):
            (directory / name).write_text("")
        ptdf = tmp_path / "one.ptdf"
        ptdf.write_text("Application IRS\n")
        return request.param, str(directory), str(ptdf)

    @pytest.mark.parametrize("command", ["query", "load", "lint", "pt-lint"])
    def test_refused_with_layout_message(self, layout, command, capsys):
        from repro.cli import pt_lint_main

        backend, directory, ptdf = layout
        entry, argv = {
            "query": (main, ["query", "--db", directory, "--name", "/IRS"]),
            "load": (main, ["load", "--db", directory, ptdf]),
            "lint": (main, ["lint", "--db", directory, ptdf]),
            "pt-lint": (pt_lint_main, ["--db", directory, ptdf]),
        }[command]
        assert entry([*argv, "--backend", backend]) == 1
        err = capsys.readouterr().err
        assert "sharded store directory written by `ptrack load --shards`" in err
        assert "reload its PTdf files into one store" in err


def test_unopenable_sqlite_db_is_a_database_error(tmp_path, capsys):
    missing = str(tmp_path / "no" / "such" / "dir" / "store.sqlite")
    assert main(["query", "--db", missing, "--backend", "sqlite"]) == 1
    assert "database error: unable to open database file" in capsys.readouterr().err


class TestLoadParsesEverythingFirst:
    """A parse error in any file writes nothing, with or without --force."""

    @staticmethod
    def _row_counts(db):
        from repro.core.datastore import PTDataStore
        from repro.core.schema import TABLE_NAMES

        store = PTDataStore(database=db)
        try:
            return {t: store.count_rows(t) for t in TABLE_NAMES}
        finally:
            store.close()

    @pytest.mark.parametrize("force", [True, False])
    def test_unterminated_quote_in_second_file(self, tmp_path, capsys, force):
        good = tmp_path / "a.ptdf"
        good.write_text(
            "Application IRS\nExecution run1 IRS\n"
            "Resource /run1 execution run1\n"
            'PerfResult run1 /run1(primary) t "CPU time" 1.5 seconds\n'
        )
        bad = tmp_path / "b.ptdf"
        bad.write_text('Application "unterminated\n')
        db = str(tmp_path / "s.json")
        assert main(["init", "--db", db]) == 0
        before = self._row_counts(db)
        flags = ["--force"] if force else []
        assert main(["load", *flags, "--db", db, str(good), str(bad)]) == 1
        assert "unterminated quoted field" in capsys.readouterr().err
        assert self._row_counts(db) == before
        assert main(["load", "--db", db, str(good)]) == 0
        assert self._row_counts(db)["performance_result"] == 1


class TestLs:
    @pytest.mark.parametrize("what", ["applications", "metrics", "tools", "types"])
    def test_listings(self, study, capsys, what):
        assert main(["ls", "--db", study, what]) == 0
        assert capsys.readouterr().out.strip()

    def test_resources_requires_type(self, study, capsys):
        assert main(["ls", "--db", study, "resources"]) == 2

    def test_resources_of_type(self, study, capsys):
        assert main(
            ["ls", "--db", study, "resources", "--type", "build/module/function"]
        ) == 0
        out = capsys.readouterr().out
        assert "/IRS/src/matsolve" in out

    def test_executions_filtered_by_application(self, study, capsys):
        assert main(["ls", "--db", study, "executions", "--application", "IRS"]) == 0
        assert "irs-cli" in capsys.readouterr().out


class TestReport:
    def test_summary(self, study, capsys):
        assert main(["report", "--db", study, "summary"]) == 0
        assert "performance_result" in capsys.readouterr().out

    def test_application(self, study, capsys):
        assert main(["report", "--db", study, "application", "IRS"]) == 0
        assert "irs-cli-p0004-r0" in capsys.readouterr().out

    def test_execution(self, study, capsys):
        assert main(["report", "--db", study, "execution", "irs-cli-p0004-r0"]) == 0
        assert "results:" in capsys.readouterr().out

    def test_missing_name(self, study, capsys):
        assert main(["report", "--db", study, "application"]) == 2


class TestQuery:
    def test_count_only(self, study, capsys):
        assert main(
            ["query", "--db", study, "--name", "/IRS/src/matsolve",
             "--relatives", "N", "--count-only"]
        ) == 0
        out = capsys.readouterr().out
        assert "# whole filter:" in out

    def test_table_with_column_and_sort(self, study, capsys):
        assert main(
            ["query", "--db", study, "--name", "/IRS/src/matsolve",
             "--relatives", "N", "--column", "execution",
             "--sort", "value", "--desc", "--limit", "5"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        header = [l for l in lines if l.startswith("execution\t")]
        assert header
        data = [l for l in lines if l.startswith("irs-cli")]
        assert len(data) == 5

    def test_csv_export(self, study, tmp_path, capsys):
        csv_path = str(tmp_path / "out.csv")
        assert main(
            ["query", "--db", study, "--name", "/IRS/src/matsolve",
             "--relatives", "N", "--csv", csv_path]
        ) == 0
        assert os.path.exists(csv_path)
        assert open(csv_path).readline().startswith("execution,")

    def test_attr_clause(self, study, capsys):
        assert main(
            ["query", "--db", study, "--attr", "concurrency model=MPI",
             "--count-only"]
        ) == 0
        out = capsys.readouterr().out
        assert "match alone" in out

    def test_conjunction_shrinks(self, study, capsys):
        main(["query", "--db", study, "--name", "/IRS/src/matsolve",
              "--relatives", "N", "--count-only"])
        single = capsys.readouterr().out
        main(["query", "--db", study, "--name", "/IRS/src/matsolve",
              "--name", "/irs-cli-p0004-r0", "--count-only"])
        double = capsys.readouterr().out
        n_single = int(single.split("# whole filter: ")[1].split()[0])
        n_double = int(double.split("# whole filter: ")[1].split()[0])
        assert 0 < n_double < n_single

    def test_printed_counts_are_the_separate_evaluations(self, study, capsys):
        from repro.core import ByName, Expansion, PrFilter, PTDataStore
        from repro.core.query import QueryEngine

        names = ("/IRS/src/matsolve", "/irs-cli-p0004-r0")
        main(["query", "--db", study, "--name", names[0], "--name", names[1],
              "--relatives", "D", "--count-only"])
        out = capsys.readouterr().out.splitlines()
        store = PTDataStore(database=study, initialize=False)
        engine = QueryEngine(store)
        families = store.resolve_prfilter(
            PrFilter([ByName(name, Expansion.DESCENDANTS) for name in names]))
        want = [f"{engine.count_for_family(fam)} match alone" for fam in families]
        whole = len(engine.result_ids(families))
        store.close()
        assert [line.split(": ", 1)[1] for line in out if line.startswith("# family")] == want
        assert f"# whole filter: {whole} results" in out

    def test_bad_attr_clause(self, study, capsys):
        assert main(["query", "--db", study, "--attr", "nonsense"]) == 1


class TestAttrsCompare:
    def test_attrs(self, study, capsys):
        assert main(["attrs", "--db", study, "/irs-cli-p0004-r0"]) == 0
        out = capsys.readouterr().out
        assert "number of processes = 4" in out

    def test_attrs_unknown_resource(self, study, capsys):
        assert main(["attrs", "--db", study, "/nope"]) == 1

    def test_compare(self, study, capsys):
        assert main(
            ["compare", "--db", study, "irs-cli-p0004-r0", "irs-cli-p0008-r0",
             "--metric", "Wall time", "--threshold", "1.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "common" in out


class TestBackendOption:
    def test_sqlite_backend(self, tmp_path, capsys):
        db = str(tmp_path / "s.db")
        assert main(["init", "--db", db, "--backend", "sqlite"]) == 0
        assert main(["ls", "--db", db, "--backend", "sqlite", "types"]) == 0
        assert "grid/machine" in capsys.readouterr().out


class TestChart:
    def test_ascii_chart(self, study, capsys):
        assert main(
            ["chart", "--db", study, "--metric", "CPU time",
             "--name", "/IRS/src/matsolve", "--application", "IRS"]
        ) == 0
        out = capsys.readouterr().out
        assert "min" in out and "#" in out

    def test_svg_chart(self, study, tmp_path, capsys):
        svg = str(tmp_path / "c.svg")
        assert main(
            ["chart", "--db", study, "--metric", "CPU time",
             "--name", "/IRS/src/matsolve", "--svg", svg,
             "irs-cli-p0004-r0", "irs-cli-p0008-r0"]
        ) == 0
        import xml.etree.ElementTree as ET

        ET.parse(svg)

    def test_csv_chart(self, study, tmp_path, capsys):
        csv_path = str(tmp_path / "c.csv")
        assert main(
            ["chart", "--db", study, "--metric", "CPU time",
             "--application", "IRS", "--csv", csv_path]
        ) == 0
        assert open(csv_path).readline() == "category,min,max\n"

    def test_no_data(self, study, capsys):
        assert main(
            ["chart", "--db", study, "--metric", "No Such Metric",
             "--application", "IRS"]
        ) == 1


class TestPredict:
    @pytest.fixture(scope="class")
    def sweep_db(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("predict")
        raw = root / "raw"
        lines = []
        for p in (2, 4, 8, 16):
            name = f"irs-sw-p{p:04d}-r0"
            generate_irs_run(IRSRunSpec(name, MCR, p), str(raw))
            lines.append(f"{name} IRS MPI {p} 1 t0 t1\n")
        index = root / "s.index"
        index.write_text("".join(lines))
        out = root / "ptdf"
        assert main(["gen", str(raw), str(index), "--out", str(out)]) == 0
        db = str(root / "db.json")
        assert main(["init", "--db", db]) == 0
        ptdfs = sorted(str(out / f) for f in os.listdir(out))
        assert main(["load", "--db", db, *ptdfs]) == 0
        return db

    def test_fit_and_report(self, sweep_db, capsys):
        assert main(
            ["predict", "--db", sweep_db, "--metric", "Wall time",
             "--application", "IRS"]
        ) == 0
        out = capsys.readouterr().out
        assert "t(p) =" in out
        assert "rel err" in out

    def test_extrapolate_stores_predictions(self, sweep_db, capsys):
        assert main(
            ["predict", "--db", sweep_db, "--metric", "Wall time",
             "--application", "IRS", "--extrapolate", "64", "128"]
        ) == 0
        out = capsys.readouterr().out
        assert "stored pred-amdahl-comm-p0064" in out
        main(["ls", "--db", sweep_db, "tools"])
        assert "prediction:amdahl-comm" in capsys.readouterr().out

    def test_too_few_points(self, study, capsys):
        assert main(
            ["predict", "--db", study, "--metric", "Wall time",
             "--application", "IRS"]
        ) == 1


class TestStats:
    def test_stats_json_reports_engine_counters(self, tmp_path, capsys):
        """The acceptance check: a file-backed quickstart load reports
        non-zero statement-cache hits, WAL records and loader rate."""
        db = str(tmp_path / "stats.db")
        assert main(
            ["stats", "--json", "--db", db, "examples/data/quickstart.ptdf"]
        ) == 0
        import json

        snap = json.loads(capsys.readouterr().out)
        assert snap["minidb.statement_cache.hits"]["value"] > 0
        assert snap["minidb.wal.records"]["value"] > 0
        assert snap["ptdf.load.records_per_s"]["value"] > 0
        assert snap["query.prfilter_evaluations"]["value"] > 0

    def test_stats_text_and_prom(self, capsys):
        assert main(["stats", "examples/data/quickstart.ptdf"]) == 0
        assert "minidb.statements" in capsys.readouterr().out
        assert main(["stats", "--prom", "examples/data/quickstart.ptdf"]) == 0
        assert "minidb_statements_total" in capsys.readouterr().out

    def test_stats_ptdf_and_trace_artifacts(self, tmp_path, capsys):
        tel = tmp_path / "telemetry.ptdf"
        trace = tmp_path / "trace.json"
        assert main(
            ["stats", "--ptdf", str(tel), "--trace", str(trace),
             "examples/data/quickstart.ptdf"]
        ) == 0
        import json

        assert "Execution ptrack-telemetry" in tel.read_text()
        assert json.loads(trace.read_text())["traceEvents"]

    def test_stats_leaves_metrics_disabled(self):
        from repro.obs import metrics

        assert main(["stats", "examples/data/quickstart.ptdf"]) == 0
        assert not metrics.enabled


class TestProfile:
    def test_profile_text_shows_statement_stats(self, capsys):
        from repro import obs

        assert main(["profile", "examples/data/quickstart.ptdf"]) == 0
        out = capsys.readouterr().out
        assert "calls" in out and "statement" in out
        assert "statements tracked" in out
        # The loader's statements got fingerprinted, whether or not they
        # rank among the default ten slowest.
        fingerprints = [s["fingerprint"] for s in obs.profiler.snapshot()["statements"]]
        assert any(f.startswith("INSERT INTO") for f in fingerprints)

    def test_profile_json_top_and_sort(self, capsys):
        import json

        assert main(
            ["profile", "--json", "--top", "3", "--sort", "calls",
             "examples/data/quickstart.ptdf"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["statements"]) == 3
        calls = [s["calls"] for s in doc["statements"]]
        assert calls == sorted(calls, reverse=True)
        assert doc["calls"] > 0

    def test_profile_flight_records_slow_plans(self, capsys):
        # --slow-ms 0 flight-records every metered plan; the recorded
        # nodes carry the planner estimate next to the actual row count.
        assert main(
            ["profile", "--flight", "--slow-ms", "0",
             "examples/data/quickstart.ptdf"]
        ) == 0
        out = capsys.readouterr().out
        assert "est=" in out and "actual=" in out

    def test_profile_ptdf_artifact_lints_and_loads(self, tmp_path, capsys):
        out_file = tmp_path / "profile.ptdf"
        assert main(
            ["profile", "--ptdf", str(out_file),
             "examples/data/quickstart.ptdf"]
        ) == 0
        assert main(["lint", "--strict", str(out_file)]) == 0
        db = str(tmp_path / "profiles.json")
        assert main(["init", "--db", db]) == 0
        assert main(["load", "--db", db, str(out_file)]) == 0
        capsys.readouterr()
        assert main(["ls", "--db", db, "executions"]) == 0
        assert "ptrack-profile" in capsys.readouterr().out

    def test_profile_leaves_profiler_disabled(self):
        from repro.obs import profiler

        assert main(["profile", "examples/data/quickstart.ptdf"]) == 0
        assert not profiler.enabled


class TestLoadProgress:
    def test_quiet_suppresses_summaries(self, tmp_path, capsys):
        db = str(tmp_path / "q.json")
        assert main(["init", "--db", db]) == 0
        capsys.readouterr()
        assert main(
            ["load", "--quiet", "--db", db, "examples/data/quickstart.ptdf"]
        ) == 0
        assert capsys.readouterr().out == ""

    def test_progress_reports_records_per_second(self, tmp_path, capsys):
        db = str(tmp_path / "p.json")
        assert main(["init", "--db", db]) == 0
        capsys.readouterr()
        assert main(
            ["load", "--progress", "--db", db, "examples/data/quickstart.ptdf"]
        ) == 0
        err = capsys.readouterr().err
        assert "records/s" in err
        assert "quickstart.ptdf" in err

    def test_load_trace_artifact(self, tmp_path, capsys):
        import json

        db = str(tmp_path / "t.json")
        trace = tmp_path / "load-trace.json"
        assert main(["init", "--db", db]) == 0
        assert main(
            ["load", "--quiet", "--trace", str(trace), "--db", db,
             "examples/data/quickstart.ptdf"]
        ) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e["name"] == "load.file" for e in events)


class TestConcurrentLoads:
    """Two ``ptrack load`` processes started together on one store."""

    PROCS = 512  # processes per execution: two results each, plus a series

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        from tests.core.corpus import corpus_writer

        root = tmp_path_factory.mktemp("concurrent")
        halves = []
        for half in (range(0, 4), range(4, 8)):
            paths = []
            for e in half:
                path = str(root / f"exec{e}.ptdf")
                corpus_writer([e], procs=self.PROCS).write(path)
                paths.append(path)
            halves.append(paths)
        return halves

    @staticmethod
    def _results_by_execution(backend, db):
        from repro.core.datastore import PTDataStore

        store = PTDataStore(backend_kind=backend, database=db, initialize=False)
        try:
            return dict(store.backend.query(
                "SELECT e.name, COUNT(*) FROM performance_result r "
                "JOIN execution e ON e.id = r.execution_id GROUP BY e.name"
            ))
        finally:
            store.close()

    @pytest.mark.parametrize("backend", ["minidb", "sqlite"])
    def test_no_load_exits_0_with_rows_missing(self, corpus, tmp_path, backend):
        db = str(tmp_path / "store.db")
        assert main(["init", "--backend", backend, "--db", db]) == 0
        env = dict(os.environ, PYTHONPATH=SRC)
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "load", "--backend", backend,
                 "--db", db, "--quiet", *paths],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for paths in corpus
        ]
        errs = [p.communicate(timeout=120)[1] for p in procs]
        outcomes = [(p.returncode, err) for p, err in zip(procs, errs)]
        counts = self._results_by_execution(backend, db)
        per_execution = 2 * self.PROCS + 1
        for (code, err), paths in zip(outcomes, corpus):
            assert code == 0, err
            names = [f"irs-{os.path.basename(p)[4:-5]}" for p in paths]
            assert [counts.get(n) for n in names] == [per_execution] * 4, err
        assert len(counts) == 8


class TestStoreClosedOnFailure:
    """A command that fails in process still closes its store, so the
    minidb lock file is free the moment ``main`` returns."""

    @pytest.mark.parametrize("argv, code", [
        (["query", "--attr", "no operator here"], 1),
        (["ls", "resources"], 2),
        (["report", "application"], 2),
        (["attrs", "/no/such/resource"], 1),
        (["predict", "--metric", "no such metric"], 1),
        (["chart", "--metric", "no such metric"], 1),
    ], ids=["query", "ls", "report", "attrs", "predict", "chart"])
    def test_store_opens_at_once_after_a_failed_command(
        self, study, argv, code, monkeypatch, capsys
    ):
        opened = []

        class Spy(cli.PTDataStore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)
                self.closed = False

            def close(self):
                self.closed = True
                super().close()

        monkeypatch.setattr(cli, "PTDataStore", Spy)
        monkeypatch.setattr(connection, "LOCK_TIMEOUT_S", 0.05)
        assert main([argv[0], "--db", study, *argv[1:]]) == code
        assert [s.closed for s in opened] == [True]
        minidb.connect(study).close()
