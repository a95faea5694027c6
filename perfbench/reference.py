"""A fixed reference loop that measures how fast the host runs right now.

On a shared VM the host's speed drifts by a third over ten minutes as
other tenants load the machine, and everything slows together: the
interpreter's start-up, the cache-hierarchy model, kernel
interpretation.  No run length averages that out, so every pass times
this loop next to its own work, and ``run.py`` scales the pass's times
to the speed at which the loop takes :data:`REF_S`.

The loop is the benchmark's own code, so no change to the program can
move it.  It is NumPy work over a MB of addresses (sort, prefix sum,
element-wise arithmetic), like the simulator's access analysis and
hierarchy model.  Interpreted loops (object and attribute code, an
``OrderedDict`` LRU) were tried as well: their times correlated less
with the passes' (0.28-0.43 against 0.47-0.56 for NumPy, over 43
passes of each workload) and scaling by them steadied the runs less.
The host also stalls for tens of milliseconds at a time, so the speed
is the median of 16 short runs of the loop, not the time of one long
run, which a single stall would skew.
"""

from __future__ import annotations

import time

import numpy as np

#: the loop's median time on the 2-vCPU VM the benchmark was written on
REF_S = 0.035

_ADDRS = np.random.default_rng(0).integers(0, 1 << 20, 1 << 17)


def loop_times(runs: int) -> list[float]:
    """Host time of each of ``runs`` runs of the reference loop."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        for _ in range(2):
            np.unique(_ADDRS >> 5)
            np.cumsum(_ADDRS)
            (_ADDRS * 3 + 1) % 7
        times.append(time.perf_counter() - start)
    return times
