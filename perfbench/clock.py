"""Speed-normalised CPU time of a call.

The 2-vCPU hosts the benchmark runs on disturb timings in two ways.

* Speed stretches: a fixed piece of pure-Python work takes about 2.2 ms in
  one stretch and 3.8-4.5 ms in the next, and the stretches last from a
  fraction of a second to several seconds, on both vCPUs.  CPU time swings
  as much as wall time here.
* Steal: at times the host takes the vCPUs away.  A 2-thread cone sweep
  then read 0.375 s of wall time with a coefficient of variation of 0.22
  over 15 repeats, while 0.23 s of steal was booked per sweep; its CPU time
  (0.44 s, both workers) varied by 0.06.  The kernel books steal apart from
  the CPU time of processes.

So a call is timed in CPU time of the process (all its threads: the cone
sweeps' pool counts), which leaves out steal, and the speed of the machine
is sampled while it runs, with a fixed probe: a scalar float loop of the
same kind as the program's RK4 and map code, also timed in CPU time.  A
probe runs before and after the call, and a SIGALRM timer runs a short probe
every ``INTERVAL`` seconds of it.  Each probe gives a speed factor
``REF_S_PER_ITERATION / (CPU seconds per iteration)``, and

    seconds = (CPU time - CPU time of the probes during the call) * mean(factors)

are "CPU seconds on a core where the probe runs at REF_S_PER_ITERATION" (the
fast stretches of the machine the benchmark was tuned on).  A change to the
program moves them as it moves its CPU time; a change of host speed moves the
probes as well and cancels.  On a 0.12 s leaf job repeated 150 times, the
interquartile spread over the median fell from 0.38 (wall) to 0.08 with two
bracketing probes alone.

A call that runs worker threads spreads over both vCPUs, and the two change
speed independently.  The timer skips its probes while other threads run
(they would time the contention for the GIL and the vCPUs), and for such a
call the caller asks for the edge probes on every vCPU in turn (``cpus``),
so that its factors average the speeds of all of them.  CPU time counts
every thread, so a threaded call reports the CPU time of its workers, not
the shorter wall time: a better or worse parallel speed-up does not show
here, and ``hyperbolicity.cone_1w_over_2w`` of the traced run reports it.

The process must run no other threads that burn CPU time while it times a
call (run.py caps OpenBLAS at one thread; ``hypermap`` makes no BLAS calls).
The probe code is the benchmark's own and never calls into ``hypermap``;
the timer handler runs between the program's bytecodes (or when a C call
returns), in the benchmark process only.
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator

#: Iterations of the probes before and after a call (about 2-4 ms).
EDGE_ITERATIONS = 4000
#: Iterations of a probe during a call (about 0.3-0.5 ms), every INTERVAL seconds.
TICK_ITERATIONS = 500
INTERVAL = 0.025
#: Probe seconds per iteration at the reference speed: the fast stretches of
#: the machine the benchmark was tuned on (Intel Xeon, 2 vCPUs, Python 3.11).
REF_S_PER_ITERATION = 5.5e-7


def _step(x: float, y: float, k: float) -> tuple[float, float]:
    return x + k * math.sin(6.283185307179586 * y), y + 0.5 * math.cos(x)


def probe(iterations: int = EDGE_ITERATIONS) -> float:
    """Speed factor of the machine now: reference over measured CPU seconds per iteration."""
    t0 = time.process_time()
    x = y = 0.1
    for _ in range(iterations):
        a = _step(x, y, 0.3)
        b = _step(x + 0.5e-3 * a[0], y + 0.5e-3 * a[1], 0.3)
        x = (x + 1e-3 * b[0]) % 1.0
        y = (y + 1e-3 * b[1]) % 1.0
    # The clamp only keeps a broken clock from raising inside a timed call.
    return REF_S_PER_ITERATION * iterations / max(time.process_time() - t0, 1e-6)


@dataclass
class Timing:
    """One call: wall and CPU time net of the probes inside it, and its speed factors."""

    wall: float = 0.0
    cpu: float = 0.0
    factors: list[float] = field(default_factory=list)
    probe_wall: float = 0.0
    probe_cpu: float = 0.0

    @property
    def seconds(self) -> float:
        """Speed-normalised CPU seconds."""
        return self.cpu * sum(self.factors) / len(self.factors)

    def _tick(self, signum, frame) -> None:
        if threading.active_count() > 1:
            return
        t0, c0 = time.perf_counter(), time.process_time()
        self.factors.append(probe(TICK_ITERATIONS))
        self.probe_wall += time.perf_counter() - t0
        self.probe_cpu += time.process_time() - c0


def _edge(cpus: set[int] | None) -> list[float]:
    """Edge probe(s): on the current vCPU, or on each of ``cpus`` in turn."""
    if not cpus:
        return [probe()]
    allowed = os.sched_getaffinity(0)
    factors = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            factors.append(probe())
    finally:
        os.sched_setaffinity(0, allowed)
    return factors


@contextlib.contextmanager
def timed(cpus: set[int] | None = None) -> Iterator[Timing]:
    """Time the body between edge probes, sampling speed during it.

    ``cpus``: probe the edges on each of these vCPUs (for a call that will
    run worker threads).  The Timing is complete when the block exits, also
    by an exception.
    """
    timing = Timing(factors=_edge(cpus))
    previous = signal.signal(signal.SIGALRM, timing._tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        yield timing
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        timing.wall = time.perf_counter() - t0 - timing.probe_wall
        timing.cpu = time.process_time() - c0 - timing.probe_cpu
        signal.signal(signal.SIGALRM, previous)
        timing.factors += _edge(cpus)
