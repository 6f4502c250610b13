"""A small BG/L-shaped PTdf corpus shared by the core and CLI tests."""

from repro.ptdf.format import ResourceSet
from repro.ptdf.writer import PTdfWriter


def corpus_writer(execs=range(6), procs=4):
    """A writer holding one machine, one build and *execs* IRS runs.

    Each execution has *procs* processes with two scalar results each
    (spread over four nodes) plus one vector result with a gap.
    """
    w = PTdfWriter()
    w.add_application("IRS")
    w.add_resource("/LLNL", "grid")
    w.add_resource("/LLNL/BGL", "grid/machine")
    w.add_resource("/LLNL/BGL/batch", "grid/machine/partition")
    for n in range(4):
        node = f"/LLNL/BGL/batch/n{n}"
        w.add_resource(node, "grid/machine/partition/node")
        w.add_resource_attribute(node, "memory MB", str(256 * (n + 1)))
    w.add_resource("/IRS", "build")
    w.add_resource("/IRS/src", "build/module")
    for fn in ("funcA", "funcB"):
        w.add_resource(f"/IRS/src/{fn}", "build/module/function")
    for e in execs:
        ename = f"irs-{e}"
        w.add_execution(ename, "IRS")
        w.add_resource(f"/{ename}", "execution", ename)
        for p in range(procs):
            pr = f"/{ename}/proc{p}"
            w.add_resource(pr, "execution/process", ename)
            for fn in ("funcA", "funcB"):
                node = f"/LLNL/BGL/batch/n{p % 4}"
                w.add_perf_result(
                    ename,
                    ResourceSet((f"/{ename}", pr, f"/IRS/src/{fn}", node)),
                    "testtool",
                    "CPU time",
                    e * 10.0 + p,
                    "seconds",
                )
        w.add_perf_result_series(
            ename,
            ResourceSet((f"/{ename}",)),
            "testtool",
            "mem",
            "MB",
            0.0,
            1.0,
            (1.0, None, 3.0),
        )
    return w
