"""Host-speed normalisation: time the workload at a fixed reference speed.

The hosts this benchmark runs on share their CPUs, and their speed drifts by
tens of percent over tens of seconds: the same ``seu_lockstep`` pass took
7.6 s and 9.3 s in two consecutive processes.  :class:`Pace` samples the
host's speed while a pass runs.  A timer interrupts the process every
:data:`INTERVAL` seconds and runs a fixed pure-Python kernel (a toy register
machine, the same kind of work as the simulators: attribute access, list
indexing, integer arithmetic, method calls).  A pass's *paced* time is its
wall time without the kernel slices, scaled by how much slower than the
reference the kernel ran during the pass::

    paced = (wall - kernel time) * mean(KERNEL_REF_S / kernel sample)

Over 8 s windows of a 100 s trace, raw simulator time varied with a
coefficient of variation of 0.14 and its ratio to the kernel's time 0.03.

The kernel is the benchmark's own code, so a change to the program cannot
speed it up.  Pool workers do not inherit the timer; while they run, the
parent's samples share the CPUs with them, so pool phases are paced less
exactly than serial ones.
"""

from __future__ import annotations

import signal
import time
from typing import Any, List, Optional

#: Seconds between speed samples.
INTERVAL = 0.025
#: Kernel steps per sample (0.9 to 1.6 ms on a shared 2-CPU Linux host).
KERNEL_STEPS = 3000
#: Kernel time of one sample at the reference speed.  Paced seconds are host
#: seconds on a host where one sample takes this long.
KERNEL_REF_S = 0.0012


class _Machine:
    """A four-instruction register machine."""

    def __init__(self) -> None:
        self.regs = [0] * 32
        self.mem: dict = {}
        self.pc = 0

    def step(self, op: int, a: int, b: int) -> None:
        regs = self.regs
        if op == 0:
            regs[a] = (regs[a] + regs[b] + 1) & 0xFFFFFFFF
        elif op == 1:
            regs[a] = (regs[a] ^ (regs[b] << 1)) & 0xFFFFFFFF
        elif op == 2:
            self.mem[regs[a] & 255] = regs[b]
        else:
            regs[b] = self.mem.get(regs[a] & 255, 0)
        self.pc += 4


def kernel(steps: int = KERNEL_STEPS) -> int:
    machine = _Machine()
    step = machine.step
    for i in range(steps):
        step(i & 3, i % 31, (i * 7) % 31)
    return machine.regs[1]


class Pace:
    """Samples the kernel on a timer while active (a context manager)."""

    def __init__(self) -> None:
        #: Kernel seconds of each sample.
        self.samples: List[float] = []
        #: Seconds spent in the timer handler, in total.
        self.spent = 0.0
        self._previous: Any = None

    def _sample(self, signum: int, frame: Optional[Any]) -> None:
        entered = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - entered)
        self.spent += time.perf_counter() - entered

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        # Restart interrupted system calls instead of failing them.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple:
        """A position to measure a section from: (clock, handler time, samples)."""
        return time.perf_counter(), self.spent, len(self.samples)

    def paced(self, start: tuple) -> float:
        """Paced seconds since *start* (a :meth:`mark`).

        Samples are taken in this process's thread, so their time is
        taken out."""
        clock, spent, first = start
        wall = time.perf_counter() - clock - (self.spent - spent)
        window = self.samples[first:]
        if not window:
            return wall
        return wall * sum(KERNEL_REF_S / seconds for seconds in window) / len(window)
