"""Host speed index: two fixed pure-Python kernels timed during the timed phase.

The machines this benchmark runs on share their cores, caches and memory
with other tenants. For periods of seconds to minutes, dexsim then runs
1.3 to 2 times slower. Two fixed kernels slow down with it, and dexsim
does not affect them:

- ``alloc`` allocates, filters, sorts and copies small objects, like the
  contracts and payload code.
- ``scan`` filters a large shuffled list, like the checkers' log scans.

The index is the geometric mean of the two kernels' median times over the
timed phase; set-up uses its own index, from samples taken between the
set-up probes. End-to-end times are reported in *nominal seconds*, that is, measured
seconds times ``NOMINAL_S / index``. The raw times are saved beside them.

An interval timer interrupts the main thread every ``EVERY_S`` seconds,
and the handler runs both kernels once. A long operation is therefore
sampled while it runs, not only between operations. The handler's time is
subtracted from the operation it interrupted.

Calibration experiment (2-core Xeon VM, 300 s): fixed slices of the three
workloads were interleaved with the kernels, and compared over 25 s
windows. The raw times spread 29-31 % (IQR over median). Divided by this
index they spread 4-8 %. Divided by ``alloc`` alone they spread 6-11 %.
"""

from __future__ import annotations

import gc
import math
import random
import signal
import statistics
import time
from dataclasses import dataclass

NOMINAL_S = 0.012  # index value that defines one nominal second (about this host uncontended)
EVERY_S = 0.5  # interval between samples
SCAN_ITEMS = 150_000


@dataclass(frozen=True)
class _Item:
    a: int
    b: str


def alloc_kernel() -> int:
    items = [_Item(i, str(i)) for i in range(2000)]
    total = 0
    for _ in range(4):
        live = {p.b: p for p in items if isinstance(p, _Item) and p.a % 3}
        ordered = sorted(live.values(), key=lambda p: (p.a % 17, p.b))
        copies = [list(ordered) for _ in range(20)]
        total += sum(1 for c in copies for p in c if p.a & 1)
    return total


def scan_table() -> list:
    """Pairs of small ints with every fourth entry ``None``, in random
    order, so that a scan chases pointers across the whole table."""
    table = [(i % 7, i % 5) if i % 4 else None for i in range(SCAN_ITEMS)]
    random.Random(0).shuffle(table)
    return table


def scan_kernel(table: list) -> int:
    return len([e for e in table if type(e) is tuple and e[0] == 3 and e[1] == 1])


class Calibrator:
    """Samples the kernels on a timer between ``arm`` and ``disarm``.  As the
    hooks of ``workloads.run_pass``, ``stop`` returns the handler time that
    fell inside the operation."""

    def __init__(self) -> None:
        self.alloc_s: list[float] = []
        self.scan_s: list[float] = []
        self._table = scan_table()
        self._in_op = False
        self._stolen = 0.0

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection here would time the program's heap, not the host
        try:
            t0 = time.perf_counter()
            alloc_kernel()
            t1 = time.perf_counter()
            scan_kernel(self._table)
            t2 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.alloc_s.append(t1 - t0)
        self.scan_s.append(t2 - t1)

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        if self._in_op:
            self._stolen += time.perf_counter() - t0

    def arm(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def start(self, key: int) -> None:
        self._in_op = True
        self._stolen = 0.0

    def stop(self) -> float:
        self._in_op = False
        return self._stolen

    def index(self, first: int = 0, last: int | None = None) -> float:
        """The index over samples ``first`` to ``last``."""
        alloc, scan = self.alloc_s[first:last], self.scan_s[first:last]
        return math.sqrt(statistics.median(alloc) * statistics.median(scan))

    def factor(self, first: int = 0, last: int | None = None) -> float:
        """Multiply a time measured while samples ``first`` to ``last`` were
        taken by this to get nominal seconds."""
        return NOMINAL_S / self.index(first, last)
