"""Smoke test for the statement-cost micro-benchmark (tools/stmt_cost)."""

import re

from tools.stmt_cost import CASES, measure, render


def test_renders_one_row_per_case():
    lines = render(measure(200, 1, 5), 200, 1, 5).splitlines()
    assert lines[0] == "# us per statement, min of 1 x 5, 200-row in-memory table"
    assert lines[1].split() == ["case", "minidb_us", "sqlite3_us", "ratio"]
    rows = [line.split() for line in lines[2:]]
    assert [r[0] for r in rows] == list(CASES)
    for row in rows:
        assert len(row) == 4
        assert all(re.fullmatch(r"\d+\.\d\d", v) for v in row[1:]), row
        assert float(row[1]) > 0 and float(row[2]) > 0

