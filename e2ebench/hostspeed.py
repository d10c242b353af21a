"""The benchmark's yardstick for the speed of the host it runs on.

On a shared virtual machine the same code runs up to 1.7x faster or slower
from one second to the next: the CPU changes speed with the load of other
tenants, and process CPU time follows wall time, so this is not
preemption.  Left as it is, that swing decides which run is "fast" far more
than any change to the package does.

So the benchmark times a fixed reference loop of its own -- plain Python
arithmetic and small numpy solves, no code of the package under test --
right before and right after each stretch of measured work, and reports
every timing scaled to the host speed at which that loop takes
``REFERENCE_S``::

    reported = measured * REFERENCE_S / mean(loop before, loop after)

A change to the package moves ``measured`` and leaves the loop alone, so it
moves the reported figure by the same ratio; a change of host speed moves
both.  The two do not speed up by exactly the same ratio, so scaled figures
still move a few percent with the host's state.  The unscaled figures are
printed in the details line.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

#: Time of one reference loop at the host speed every timing is scaled to
#: (about its time on a 2-vCPU x86-64 cloud VM in its usual speed state).
REFERENCE_S = 1.5e-3
STRETCH_PASSES = 3

_MATRIX = np.linspace(0.1, 1.0, 400).reshape(20, 20)
_MATRIX = _MATRIX @ _MATRIX.T + np.eye(20)
_RHS = np.linspace(-1.0, 1.0, 20)


def reference_loop_s() -> float:
    """Seconds one pass of the reference loop takes now."""
    started = time.perf_counter()
    total = 0.0
    for step in range(60):
        solution = np.linalg.solve(_MATRIX, _RHS)
        total += float(solution[step % 20]) + sum(k * 0.5 for k in range(40))
    return time.perf_counter() - started


def factor(before_s: float, after_s: float) -> float:
    """Scale for work timed between two reference loops."""
    return REFERENCE_S / ((before_s + after_s) / 2.0)


class Scaled:
    """Times one stretch of work between reference loops.

    A stretch (a set-up, a restart) takes up to seconds, so the loop runs
    ``STRETCH_PASSES`` times on each side and the median counts: one pass
    that an interrupt slowed must not rescale the whole stretch.

    ::

        with Scaled() as stretch:
            work()
        stretch.raw_s, stretch.scaled_s
    """

    def _loop_s(self) -> float:
        return median(reference_loop_s() for _ in range(STRETCH_PASSES))

    def start(self) -> None:
        self._before = self._loop_s()
        self._started = time.perf_counter()

    def stop(self) -> None:
        self.raw_s = time.perf_counter() - self._started
        self.factor = factor(self._before, self._loop_s())
        self.scaled_s = self.raw_s * self.factor

    def __enter__(self) -> "Scaled":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def scaled_median(stretches: list[Scaled]) -> float:
    return median(stretch.scaled_s for stretch in stretches)


def raw_median(stretches: list[Scaled]) -> float:
    return median(stretch.raw_s for stretch in stretches)
