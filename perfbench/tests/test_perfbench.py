"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``.

Smoke-sized: every run here has no time budget, so it does the fewest
rounds a run can (one untraced, or one untraced and one traced).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

from perfbench import run as run_mod
from perfbench.workloads import END_TO_END, EXACT_COUNTS, WORKLOADS, Run, end_to_end, per_layer

ROOT = run_mod.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(tmp_path, workload, trace=False, seed=7):
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_path)
    run = Run(seed, 0.0, trace, workdir)
    WORKLOADS[workload](run)
    return run


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("smoke")
    return {w: _run(tmp, w) for w in WORKLOADS}


def test_names_follow_grammar_and_match_benchmark_json(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == list(END_TO_END)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_pass_of_every_workload(smoke, workload):
    run = smoke[workload]
    assert run.failed == 0 and not run.mismatches
    metrics = end_to_end(run, run.values(False))
    assert all(v is not None and v > 0 for v in metrics.values()), metrics


def test_bgl_backends_return_identical_id_sets(smoke):
    digests = {w: smoke[w].digest.hexdigest() for w in WORKLOADS if w.startswith("bgl_")}
    assert len(set(digests.values())) == 1, digests


def test_traced_counts_repeat_exactly_and_names_match(tmp_path, spec):
    first = per_layer(_run(tmp_path, "bgl_minidb", trace=True, seed=3))
    second = per_layer(_run(tmp_path, "bgl_minidb", trace=True, seed=3))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in first.items()
    ]
    for name in EXACT_COUNTS:
        assert first[name][0] == second[name][0], name
        assert first[name][0] > 0, name


def test_wrong_answer_fails_the_run(monkeypatch, capsys):
    from repro.core.query import QueryEngine

    original = QueryEngine.result_ids

    def drop_one(self, *args, **kwargs):
        ids = set(original(self, *args, **kwargs))
        if ids:
            ids.pop()
        return ids

    monkeypatch.setattr(QueryEngine, "result_ids", drop_one)
    rc = run_mod.main(["--workload", "bgl_sqlite", "--seed", "1", "--seconds", "0"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc != 0
    assert out["correct"] is False and out["failed"] > 0
    assert out["metrics"]["ops_ok_share"]["value"] < 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bgl_sqlite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_factor_follows_the_kernel_samples_nearest_the_operation():
    from perfbench.speed import NEAREST, REFERENCE_S, SpeedProbe

    probe = SpeedProbe()
    probe.times = [float(t) for t in range(NEAREST)] + [20.0 + t for t in range(NEAREST)]
    probe.samples = [REFERENCE_S] * NEAREST + [2 * REFERENCE_S] * NEAREST
    assert probe.factor(1.0, 2.0) == 1.0  # a fast phase: times stay as measured
    assert probe.factor(22.0, 0.5) == 0.5  # a slow phase: times are halved


def test_values_as_measured_and_scaled(tmp_path):
    run = Run(1, 0.0, False, str(tmp_path))
    run.timings = [(0.0, 0.25), (1.0, 0.75)]
    run.sample("t_s", 1.0, 1, (0,))
    run.sample("rate", 100.0, -1, (0, 1))
    run.sample("bytes", 7.0)
    run.speed.factor = lambda t0, seconds: 2.0
    assert run.values(False, scaled=False) == {"t_s": [0.25], "rate": [100.0], "bytes": [7.0]}
    assert run.values(False) == {"t_s": [0.5], "rate": [50.0], "bytes": [7.0]}
