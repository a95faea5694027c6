"""Table I: the fourteen-benchmark summary.

Runs every microbenchmark at its default (scaled) parameters on its
paper-faithful default system and prints the measured speedups beside
the paper's reported column.
"""

from benchmarks.common import emit, one_shot, scheduler_jobs
from repro.core.suite import run_suite
from repro.sched import parallel_suite

#: moderately scaled defaults: every benchmark shows its paper direction
#: while the whole table regenerates in a few minutes.
OVERRIDES = {
    "DynParallel": dict(size=1024),
    "Shmem": dict(n=256),
    "MiniTransfer": dict(n=1024, nnz=4096),
    "UniMem": dict(n=1 << 23, stride=1 << 16),
}


def test_table1(benchmark):
    report = parallel_suite(OVERRIDES, jobs=scheduler_jobs())
    lines = [report.render(), ""]
    lines.append("per-benchmark detail:")
    lines.extend(f"  {r}" for r in report.results)
    emit(
        "table1_summary",
        "\n".join(lines),
        data=report.as_dict(),
        root_name="BENCH_table1.json",
    )
    assert report.all_verified
    # representative member for the timed harness
    one_shot(benchmark, lambda: run_suite(
        overrides={**OVERRIDES,
                   "DynParallel": dict(size=128, max_dwell=64),
                   "MiniTransfer": dict(n=256, nnz=1024),
                   "UniMem": dict(n=1 << 20, stride=1 << 14),
                   "Shmem": dict(n=64),
                   "CoMem": dict(n=1 << 19)}))
