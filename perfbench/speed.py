"""The host's speed, sampled through a run, to scale timings to a reference host.

The host running the benchmark shares its cores with other work, and its
speed drifts: a fixed CPU-bound loop runs up to half again as long in one
second as in the next, and a slow phase can cover most of a run.  A
median over one run cannot remove that, so every timed end-to-end sample
is scaled by how fast the host ran around the operation it timed.

:class:`SpeedProbe` times a fixed pure-Python kernel between operations,
never inside one: at a steady cadence, and in a burst right before and
right after each long (cold) operation.  The kernel mixes the kinds of
work PerfTrack does (interpreter loops, JSON, dicts and sets of tuples,
sorting, string splitting) on a small working set.  It imports nothing
from the program and runs with the cyclic collector off, so the
program's heap and settings do not change its time.

An operation's factor is ``REFERENCE_S`` over the median time of the
``NEAREST`` kernel samples closest in time to the operation's midpoint.
A time is multiplied by its factor and a rate divided by it, which gives
the value the operation would have measured on a host where the kernel
takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
import time

#: The kernel's median time on the reference host (the 2-CPU host the
#: README's numbers come from) when it runs alone in a fast phase.
REFERENCE_S = 0.0018
#: Seconds between cadence samples.
INTERVAL_S = 0.05
#: Samples taken right before, and again right after, a cold operation.
BURST = 3
#: Kernel samples an operation's factor is the median of.
NEAREST = 6

_DOC = json.dumps([
    {"id": i, "name": f"/bgl/p{i % 4}/n{i}", "value": i * 0.5, "ids": [i, i + 1]}
    for i in range(150)
])
_ROWS = [((i * 7919) % 1000, f"r{i}", i) for i in range(1000)]
_TEXT = "\n".join(
    f"Resource /bgl/p{i % 4}/n{i} partition/node execution e{i % 8}" for i in range(300)
)


def kernel() -> int:
    """Fixed work of the kinds PerfTrack does, on a working set of ~100 KiB."""
    table = [0] * 256
    acc = 0
    for i in range(4000):
        j = (i * 2654435761) & 255
        table[j] += i
        acc ^= table[j] >> 3
    acc += len(json.dumps(json.loads(_DOC)))
    pairs = {}
    for i in range(1500):
        pairs[(i % 97, i)] = (i, i * 2)
    acc += len({k[1] for k in pairs if k[0] < 50} & set(range(0, 1500, 3)))
    acc += sorted(_ROWS)[0][2] + len(sorted(_ROWS, key=lambda r: r[1]))
    for line in _TEXT.split("\n"):
        fields = line.split()
        acc += len(fields[1].split("/"))
    return acc


class SpeedProbe:
    def __init__(self) -> None:
        self.times: list = []  # midpoint of each kernel sample, ascending
        self.samples: list = []  # kernel seconds, in the same order
        self._next = 0.0

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)
        self._next = t1 + INTERVAL_S

    def tick(self) -> None:
        """Take a sample if the last one is ``INTERVAL_S`` seconds old."""
        if time.perf_counter() >= self._next:
            self.sample()

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def factor(self, t0: float, seconds: float) -> float:
        """The factor of an operation that started at ``t0`` and took ``seconds``."""
        if not self.samples:
            self.sample()
        mid = t0 + seconds / 2
        times = self.times
        lo = hi = bisect.bisect(times, mid)
        while hi - lo < min(NEAREST, len(times)):
            if lo > 0 and (hi == len(times) or mid - times[lo - 1] < times[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / statistics.median(self.samples[lo:hi])
