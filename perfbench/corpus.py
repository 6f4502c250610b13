"""The benchmark's PTdf inputs.

The corpus shape is fixed; the workload seed only picks the query
sequence.  ``bgl_corpus`` writes the paper's BlueGene/L shape with this
module's own text formatting.  ``study_corpus`` drives the case-study
generators (``repro.synth``, ``repro.collect``, ``repro.tools``) the way
``repro.studies`` does, but writes every piece to its own file so each
can be appended with its own ``ptrack load``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: BG/L shape: one machine file plus eight execution files.
BGL_PARTITIONS = 4
BGL_NODES_PER_PARTITION = 128
BGL_EXECUTIONS = 8
BGL_PROCS = 256
BGL_METRICS = ("CPU_time", "MPI_time", "cache_misses", "memory_HWM")
#: Execution e's processes start at node e*64, so each execution covers
#: two or three partitions and an execution/partition meet holds 256 or
#: 512 results -- on both sides of the query layer's 400-id chunk.
BGL_NODE_STRIDE = 64


@dataclass
class Corpus:
    files: list  # PTdf paths in load order
    partitions: list
    nodes: list
    executions: list
    processes: list


def _write(path: str, lines: list) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def bgl_corpus(directory: str) -> Corpus:
    """10,775 PTdf records: 4 x 128 nodes, 8 executions x 256 processes x 4 metrics."""
    os.makedirs(directory, exist_ok=True)
    lines = ["Application IRS", "Resource /LLNL grid", "Resource /LLNL/BGL grid/machine"]
    partitions, nodes = [], []
    for p in range(BGL_PARTITIONS):
        part = f"/LLNL/BGL/R{p:02d}"
        partitions.append(part)
        lines.append(f"Resource {part} grid/machine/partition")
        for n in range(BGL_NODES_PER_PARTITION):
            node = f"{part}/n{n:04d}"
            nodes.append(node)
            lines.append(f"Resource {node} grid/machine/partition/node")
    files = [_write(os.path.join(directory, "bgl-machine.ptdf"), lines)]
    executions, processes = [], []
    ordinal = 0
    for e in range(BGL_EXECUTIONS):
        ex = f"irs-bgl-{e:02d}"
        executions.append(f"/{ex}")
        lines = [f"Execution {ex} IRS", f"Resource /{ex} execution {ex}"]
        for p in range(BGL_PROCS):
            proc = f"/{ex}/p{p:04d}"
            processes.append(proc)
            lines.append(f"Resource {proc} execution/process {ex}")
            node = nodes[(e * BGL_NODE_STRIDE + p) % len(nodes)]
            for metric in BGL_METRICS:
                ordinal += 1
                lines.append(
                    f"PerfResult {ex} /{ex},{proc},{node}(primary) pmapi {metric} "
                    f"{ordinal}.25 units"
                )
        files.append(_write(os.path.join(directory, f"{ex}.ptdf"), lines))
    return Corpus(files, partitions, nodes, executions, processes)


#: Case-study sizing: the Purple/IRS sweep on MCR and Frost at these
#: process counts, plus Paradyn executions of this shape.
STUDY_PROCESS_COUNTS = (16,)
STUDY_PARADYN = dict(executions=3, processes=4, modules=8, functions_per_module=6,
                     histograms=8, bins=40)


def study_corpus(directory: str) -> list:
    """PTdf paths in append order: machines, builds, then one per execution."""
    from repro.collect.build_info import PTBuild, build_to_ptdf
    from repro.collect.machine import machine_to_ptdf
    from repro.ptdf.ptdfgen import IndexEntry, PTdfGen
    from repro.ptdf.writer import PTdfWriter
    from repro.studies.purple import _WRAPPER_SHOW, IRS_MAKE_OUTPUT
    from repro.synth.irs_gen import generate_irs_run, irs_sweep_specs
    from repro.synth.machines import FROST, MCR
    from repro.synth.paradyn_gen import ParadynSpec, generate_paradyn_export
    from repro.tools import ALL_CONVERTERS
    from repro.tools.paradyn import ParadynConverter

    raw = os.path.join(directory, "raw")
    out = os.path.join(directory, "ptdf")
    os.makedirs(raw, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    machines = (MCR, FROST)
    files = []

    writer = PTdfWriter()
    for m in machines:
        machine_to_ptdf(m, writer, max_nodes_per_partition=8)
    path = os.path.join(out, "00-machines.ptdf")
    writer.write(path)
    files.append(path)

    writer = PTdfWriter()
    for m in machines:
        info = PTBuild().from_output(
            IRS_MAKE_OUTPUT, makefile="Makefile.irs", arguments=("-j4",),
            wrapper_show=_WRAPPER_SHOW,
        )
        build_to_ptdf(info, writer, f"irs-build-{m.name.lower()}")
    path = os.path.join(out, "01-builds.ptdf")
    writer.write(path)
    files.append(path)

    entries = []
    for m in machines:
        for spec in irs_sweep_specs(m, STUDY_PROCESS_COUNTS, 1):
            generate_irs_run(spec, raw)
            entries.append(IndexEntry(
                spec.execution, "IRS", "MPI", spec.processes, spec.threads,
                "2005-03-01T08:00:00", "2005-03-01T09:00:00",
            ))
    index = os.path.join(directory, "irs.index")
    with open(index, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(" ".join(e.fields()) + "\n")
    for rep in PTdfGen(ALL_CONVERTERS).generate(raw, index, out_dir=out):
        files.append(rep.output_path)

    conv = ParadynConverter(bins_as="results")
    cfg = dict(STUDY_PARADYN)
    for i in range(cfg.pop("executions")):
        execution = f"irs-paradyn-r{i}"
        export = generate_paradyn_export(ParadynSpec(execution=execution, **cfg), raw)
        entry = IndexEntry(
            execution, "IRS", "MPI", cfg["processes"], 1,
            "2005-04-01T08:00:00", "2005-04-01T11:00:00",
        )
        writer = PTdfWriter()
        writer.add_application("IRS")
        writer.add_execution(execution, "IRS")
        conv.convert_resources_file(export.resources_path, entry, writer)
        conv.convert_index(export.index_path, entry, writer)
        path = os.path.join(out, f"{execution}.ptdf")
        writer.write(path)
        files.append(path)
    return files
