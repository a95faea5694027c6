"""The two workloads and the job list each runs at a given seed.

Every job is one Table I benchmark run on the jit backend, and every
seed runs the jobs in Table I order.  Seed 0 uses the base parameters
below; any other seed moves each *movable* job's size parameter, the
axis its paper figure sweeps, by a whole number of steps and by at most
1/16 of the base value, so a run stays about as long as at seed 0.

The base sizes are points of (or between) each benchmark's own figure
sweep, smaller than the Table I defaults so that one pass of a workload
takes a few seconds on two cores and a run can take the median of
several.  A job with ``step == 0`` is never moved: Shmem's order must
stay a multiple of its 16-wide tile (one step is 1/4 of the base),
DynParallel's work grows with the square of its image size (one valid
step moves it 13%), and the other power-of-two sizes cost 1.5-2x more
one step off a power of two.  Seeds do not shuffle the job order
either: peak memory and the first job's time depend on the order
(152-185 MB over five orders of six cold analysis jobs), which would
swamp the bounds.  So only ``cold`` changes inputs with the seed.

CoMem and UniMem run in no workload: CoMem alone is a long analysis
job, and UniMem ran only in a cached Table I workload that was dropped
because its host time drifted past its bound (see LAYERS.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Job:
    benchmark: str
    param: str          #: the size parameter seeds move
    base: int
    step: int = 0       #: 0 = the size is never moved
    fixed: tuple[tuple[str, Any], ...] = ()

    def params(self, rng: random.Random | None) -> dict[str, Any]:
        value = self.base
        if rng is not None and self.step:
            reach = self.base // 16 // self.step
            value += self.step * rng.randint(-reach, reach)
        return {**dict(self.fixed), self.param: value}


#: Table I order, the jobs some workload runs
JOBS = {
    j.benchmark: j
    for j in (
        Job("WarpDivRedux", "n", 1 << 17),
        Job("DynParallel", "size", 256),
        Job("Conkernels", "n_kernels", 8),
        Job("TaskGraph", "chain_len", 16, 1, (("iterations", 2),)),
        Job("Shmem", "n", 64),
        Job("MemAlign", "n", 1 << 18),
        Job("GSOverlap", "n", 1 << 18),
        Job("Shuffle", "n", 1 << 17),
        Job("BankRedux", "n", 1 << 17),
        Job("HDOverlap", "n", 1 << 18),
        Job("ReadOnlyMem", "n", 256),
        Job("MiniTransfer", "nnz", 1024, 32, (("n", 256),)),
    )
}

@dataclass(frozen=True)
class Workload:
    name: str
    benchmarks: tuple[str, ...]
    #: the fill pass's JIT store is copied into every measured pass;
    #: otherwise every pass starts with an empty store
    warm_jit: bool


#: why each workload exists: see LAYERS.md
WORKLOADS = {
    w.name: w
    for w in (
        # empty JIT store: the cache-hierarchy model, where TaskGraph
        # repeats resolve_traffic inputs (memo-able) and MiniTransfer
        # streams large distinct ones, plus access analysis and jit
        # record/compile/store writes
        Workload("cold",
                 ("WarpDivRedux", "Conkernels", "TaskGraph", "Shmem",
                  "MemAlign", "GSOverlap", "BankRedux", "HDOverlap",
                  "ReadOnlyMem", "MiniTransfer"), False),
        # kernel-body interpretation: the analysis replays from the store
        Workload("interp-warm",
                 ("WarpDivRedux", "DynParallel", "MemAlign", "GSOverlap",
                  "Shuffle", "BankRedux", "HDOverlap", "ReadOnlyMem"),
                 True),
    )
}


def job_params(workload: str, seed: int) -> list[tuple[str, dict[str, Any]]]:
    """``(benchmark, params)`` for every job of a workload at ``seed``."""
    rng = random.Random(seed) if seed else None
    return [(name, JOBS[name].params(rng)) for name in WORKLOADS[workload].benchmarks]
