"""How fast the host runs Python at each moment, from a reference kernel.

On a shared host, other tenants' load changes how much work one CPU
second buys: the same unit of this program takes 30 % more or less CPU
time from one minute to the next, and no repetition inside one run
averages that out.  So each measured child samples a fixed reference
kernel all through its run: a profiling timer (``ITIMER_PROF``) fires
after every ``INTERVAL_S`` of process CPU, and the handler times one
``kernel()`` call.  The kernel slows down and speeds up with the host,
so the median of its times over an interval, over ``REFERENCE_S``, is
the interval's *speed factor*, and a CPU time divided by it reads as
CPU seconds at the reference speed.

The kernel is the benchmark's own code and never calls the program, so
a change to the program moves scaled times exactly as it moves raw ones.
It is a few hundred microseconds of the work the program does most: a
small flood over a heap-ordered event queue, dict lookups on slotted
nodes.  Sampling costs about 1 % of the child's CPU, and the child
subtracts that cost from every time it reports.

While a process-wide CPU timer is armed, Linux reads the process CPU
clock at scheduler-tick resolution, so the sampler and the child time
everything with the main thread's CPU clock (``time.thread_time``),
which stays exact; the program runs its units on the main thread.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

#: Process CPU seconds between two samples.
INTERVAL_S = 0.05
#: A unit's speed factor takes the samples within this much CPU time
#: of the unit, so that units of a few milliseconds get enough samples.
WINDOW_S = 0.5
#: Nominal median CPU seconds of one ``kernel()`` call: its median on a
#: 2-core x86-64 box with Python 3.11 in that box's usual state.
REFERENCE_S = 0.0003


class _Node:
    __slots__ = ("ident", "seen", "links")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.seen: dict[int, int] = {}
        self.links: list[_Node] = []


def kernel() -> int:
    """A fixed, deterministic flood over 16 nodes; returns its event count."""
    nodes = [_Node(i) for i in range(16)]
    for node in nodes:
        node.links = [nodes[(node.ident * 7 + k) % 16] for k in (1, 3, 5)]
    queue = [(0.0, n, n, n, 0) for n in range(8)]
    heapq.heapify(queue)
    sequence = 8
    while queue:
        at, _seq, origin, here, hops = heapq.heappop(queue)
        for link in nodes[here].links:
            if link.seen.get(origin, 1 << 30) > hops + 1:
                link.seen[origin] = hops + 1
                sequence += 1
                heapq.heappush(queue, (at + 0.25, sequence, origin, link.ident, hops + 1))
    return sequence


class SpeedSampler:
    """Times ``kernel()`` on every profiling-timer tick of the process.

    ``spent`` is the CPU the samples have cost so far, and ``clock()`` is
    the main thread's CPU time less that cost.  ``samples`` holds
    ``(clock() at the sample, kernel seconds)``.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0

    def clock(self) -> float:
        return time.thread_time() - self.spent

    def _sample(self, _signum, _frame) -> None:
        start = time.thread_time()
        kernel()
        elapsed = time.thread_time() - start
        self.samples.append((start - self.spent, elapsed))
        self.spent += elapsed

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def factor(self, since: float = 0.0, until: float = float("inf")) -> float | None:
        """The speed factor over ``clock()`` times ``[since, until)``:
        above 1 when the host ran slower than the reference.  None
        without samples in the interval."""
        durations = [d for at, d in self.samples if since <= at < until]
        if not durations:
            return None
        return statistics.median(durations) / REFERENCE_S
