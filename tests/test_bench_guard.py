"""Tests for the benchmark regression guard (tools/bench_guard)."""

import json

from tools.bench_guard import compare, main


def _write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


BASE = {"load": {"bulk_rows_per_s": 1000.0}, "query_path": {"topn_speedup": 2.0}}

LATENCY_BASE = {
    "query_path": {"stream_full_drain_seconds": 0.5},
    "vectorized": {"drain_seconds": 0.02, "first_row_seconds": 0.0003},
}


def test_within_threshold_passes():
    cand = {"load": {"bulk_rows_per_s": 950.0}}
    assert compare(BASE, cand) == []


def test_drop_beyond_threshold_fails():
    cand = {"load": {"bulk_rows_per_s": 850.0}}
    problems = compare(BASE, cand)
    assert len(problems) == 1
    assert "bulk_rows_per_s" in problems[0]


def test_improvement_passes():
    cand = {"load": {"bulk_rows_per_s": 2000.0}}
    assert compare(BASE, cand) == []


def test_missing_candidate_key_fails():
    assert compare(BASE, {"load": {}}) != []


def test_missing_baseline_key_skipped():
    # A metric new in this PR has no baseline yet: skip, don't fail.
    cand = {"load": {"bulk_rows_per_s": 1000.0}}
    assert compare({}, cand) == []


def test_latency_key_improvement_passes():
    # *_seconds keys are lower-is-better: getting faster is never a problem.
    cand = {"query_path": {"stream_full_drain_seconds": 0.05}}
    keys = ("query_path.stream_full_drain_seconds",)
    assert compare(LATENCY_BASE, cand, keys=keys) == []


def test_latency_key_regression_fails():
    cand = {"query_path": {"stream_full_drain_seconds": 0.6}}
    keys = ("query_path.stream_full_drain_seconds",)
    problems = compare(LATENCY_BASE, cand, keys=keys)
    assert len(problems) == 1
    assert "above" in problems[0]


def test_latency_key_within_threshold_passes():
    cand = {"vectorized": {"drain_seconds": 0.0215, "first_row_seconds": 0.0003}}
    keys = ("vectorized.drain_seconds", "vectorized.first_row_seconds")
    assert compare(LATENCY_BASE, cand, keys=keys) == []


def test_latency_key_missing_candidate_fails():
    keys = ("vectorized.drain_seconds",)
    assert compare(LATENCY_BASE, {"vectorized": {}}, keys=keys) != []


def test_custom_keys_and_threshold():
    cand = {"load": {"bulk_rows_per_s": 1000.0}, "query_path": {"topn_speedup": 1.5}}
    problems = compare(
        BASE, cand, keys=("query_path.topn_speedup",), threshold=0.05
    )
    assert len(problems) == 1


def test_main_exit_codes(tmp_path):
    base = _write(tmp_path / "base.json", BASE)
    ok = _write(tmp_path / "ok.json", {"load": {"bulk_rows_per_s": 990.0}})
    bad = _write(tmp_path / "bad.json", {"load": {"bulk_rows_per_s": 100.0}})
    assert main([base, ok]) == 0
    assert main([base, bad]) == 1
    assert main([base, bad, "--threshold", "0.95"]) == 0
    assert main([base, ok, "--key", "missing.metric"]) == 0  # no baseline -> skip


# ------------------------------------------------- missing-section handling


def test_missing_baseline_section_skips_with_message(capsys):
    # The whole section is absent from the baseline (never seeded):
    # skipped, and the note says "missing baseline section".
    cand = {"vectorized": {"drain_seconds": 0.02}}
    assert compare({}, cand, keys=("vectorized.drain_seconds",)) == []
    out = capsys.readouterr().out
    assert "missing baseline section 'vectorized'" in out


def test_missing_baseline_leaf_skips_with_leaf_message(capsys):
    # The section exists but lost one leaf: still a skip, different note.
    cand = {"vectorized": {"drain_seconds": 0.02}}
    assert compare({"vectorized": {}}, cand, keys=("vectorized.drain_seconds",)) == []
    out = capsys.readouterr().out
    assert "no baseline value" in out
    assert "missing baseline section" not in out


def test_missing_candidate_section_fails_with_message():
    # The candidate dropped a whole section: the failure names the
    # section instead of a bare KeyError-ish leaf message.
    problems = compare(LATENCY_BASE, {}, keys=("vectorized.drain_seconds",))
    assert len(problems) == 1
    assert "missing section 'vectorized'" in problems[0]


def test_missing_candidate_leaf_keeps_leaf_message():
    problems = compare(
        LATENCY_BASE, {"vectorized": {}}, keys=("vectorized.drain_seconds",)
    )
    assert problems == ["vectorized.drain_seconds: missing from candidate report"]


def test_main_missing_report_file_exits_2(tmp_path, capsys):
    base = _write(tmp_path / "base.json", BASE)
    assert main([base, str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert "cannot read candidate report" in err


def test_main_malformed_report_exits_2(tmp_path, capsys):
    base = _write(tmp_path / "base.json", BASE)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main([base, str(broken)]) == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err


def test_main_non_object_report_exits_2(tmp_path, capsys):
    base = _write(tmp_path / "base.json", BASE)
    listy = _write(tmp_path / "list.json", [1, 2, 3])
    assert main([base, listy]) == 2
    err = capsys.readouterr().err
    assert "must be a JSON object" in err
