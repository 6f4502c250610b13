"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload bgl_minidb --seed 1 --seconds 20 --trace 0

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is 1 when any answer disagrees with the
oracle (or a metric could not be measured), 2 when the program under test
is missing.  Scratch stores live under ``.perfbench_work/`` and are
removed at exit; a traced run also writes its spans to
``.perfbench_out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sqlite3
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def host_facts() -> dict:
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite3": sqlite3.sqlite_version,
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"perfbench: no PerfTrack sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from perfbench.workloads import END_TO_END, WORKLOADS, Run, end_to_end, per_layer

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    facts = host_facts()
    print(f"perfbench host: {json.dumps(facts)}", file=sys.stderr)
    run = Run(args.seed, args.seconds, bool(args.trace), workdir)
    try:
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))  # only if no other run uses it
        except OSError:
            pass

    if args.trace:
        metrics = per_layer(run)
    else:
        kernel = statistics.median(run.speed.samples) if run.speed.samples else 0.0
        print(f"perfbench: speed kernel median {kernel * 1e3:.4f} ms over "
              f"{len(run.speed.samples)} samples; as measured: "
              f"{json.dumps(end_to_end(run, run.values(False, scaled=False)))}", file=sys.stderr)
        counts = {name: len(xs) for name, xs in run.samples[False].items()}
        print(f"perfbench: samples per metric input: {json.dumps(counts)}", file=sys.stderr)
        e2e = end_to_end(run, run.values(False))
        units = {name: unit for name, unit, _ in END_TO_END}
        metrics = {name: (e2e[name], units[name]) for name, _, _ in END_TO_END}
    unmeasured = sorted(name for name, (value, _) in metrics.items() if value is None)
    for line in run.mismatches[:20]:
        print(f"perfbench: wrong answer: {line}", file=sys.stderr)
    if unmeasured:
        print(f"perfbench: unmeasured metrics: {unmeasured}", file=sys.stderr)
    correct = not run.mismatches and not unmeasured
    if args.trace:
        path = os.path.join(ROOT, ".perfbench_out",
                            f"trace-{args.workload}-seed{args.seed}.json")
        run.tracer.write(path, {
            "workload": args.workload, "seed": args.seed, "host": facts,
            "answers_sha256": run.digest.hexdigest(),
            "metrics": {k: v for k, (v, _) in metrics.items()},
        })
        print(f"perfbench: wrote {len(run.tracer.spans)} spans to {path}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": 0.0 if value is None else value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
