"""Host-speed calibration.

The 2-CPU reference container is a small VM on a shared machine.  Its
speed drifts by 10-30% over tens of seconds with the load of its
neighbours (contended cores and caches; the process's CPU time slows as
much as its wall time), and that drift moves every host time of a
pure-Python simulator by about the same factor: across ten runs it made
the spread of ``jobs_per_s`` vary from 7% to 27% between quiet and busy
periods.  A fixed pure-Python routine, timed between the batches (on
``gateway-small``, the requests) of a timed window, tracks the drift (it
cut the run-to-run variation of ``paper-suite-warm`` by a quarter to a
third); every workload reports its window's host times scaled to a host on
which the routine takes :data:`REFERENCE_SECONDS`, and prints the unscaled
figures beside them.

The routine touches no code of the program under test and runs with the
garbage collector off, so neither a change to the program nor the size of
its heap can move it.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

#: Duration of one :func:`_routine` call on the reference host (about
#: what it takes on the 2-CPU reference container when quiet).
REFERENCE_SECONDS = 0.045
#: Calibrate at most this often inside a timed window.
INTERVAL_S = 0.4


def _routine() -> int:
    """Interpreter-bound work of the simulator's kind: closures evaluated
    over dict state, as the WCLA kernel model does, plus small tuples."""
    nodes = [(lambda key: (lambda state, memory:
                           (state.get(key, 0) + memory.get(key ^ 1, 0)
                            + key) & 0xFFFF))(key)
             for key in range(16)]
    state = {key: key for key in range(16)}
    memory = {key: 2 * key for key in range(16)}
    checksum = 0
    for index in range(6000):
        state.update({key: node(state, memory)
                      for key, node in enumerate(nodes)})
        checksum ^= state[index & 15]
        checksum ^= len([(index, lane) for lane in range(4)])
    return checksum


class HostSpeed:
    """Calibration samples of one process; ``factor`` > 1 means the host
    currently runs faster than the reference."""

    def __init__(self):
        self.samples: List[float] = []
        self._last = float("-inf")

    def sample(self, repeats: int = 1) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(repeats):
                start = time.perf_counter()
                _routine()
                self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Sample when :data:`INTERVAL_S` has passed since the last one."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    @property
    def factor(self) -> float:
        return REFERENCE_SECONDS / statistics.median(self.samples)

    def seconds(self, raw: float) -> float:
        """A host duration scaled to the reference host."""
        return raw * self.factor
