"""One pass of a workload in a fresh Python process.

Started by ``run.py`` with the launch instant on the shared monotonic
clock, private cache directories and ``PYTHONPATH`` pointing at the
program's sources.  Submits every job through the scheduler entry point
``run_jobs(specs, jobs=1, cache=...)`` one job at a time, so each job is
timed around the scheduler call, and prints one JSON record as its last
line.  The reference loop is timed just before the first job and just
after the last, outside every timed span.  With ``--trace 1`` the pass
runs under :class:`layers.LayerProbe`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import statistics
import time
from pathlib import Path


#: reference loop runs before and after the jobs
REF_RUNS = 8


def canonical_digest(payload: object) -> str:
    """SHA-256 of the canonical JSON form of a ``run_jobs`` payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--backend", default="jit")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cache-dir", required=True)
    ap.add_argument("--launched-at", type=float, required=True,
                    help="time.monotonic() just before this process started")
    args = ap.parse_args()

    import numpy
    import repro.jit
    from repro.sched import runner
    from repro.sched.cache import ResultCache

    from layers import LayerProbe
    from reference import loop_times
    from workloads import job_params

    specs = [
        runner.JobSpec(benchmark=name, params=params, backend=args.backend)
        for name, params in job_params(args.workload, args.seed)
    ]
    cache = ResultCache(args.cache_dir)
    repro.jit.default_store()  # the JIT store, at REPRO_JIT_CACHE_DIR
    cache_bytes = tree_bytes(Path(args.cache_dir)) if args.trace else 0
    probe = LayerProbe(cache) if args.trace else contextlib.nullcontext()

    job_s: dict[str, float] = {}
    payloads: dict[str, object] = {}
    errors: dict[str, str] = {}
    with probe:
        setup_s = time.monotonic() - args.launched_at
        ref_times = loop_times(REF_RUNS)
        start = time.perf_counter()
        for spec in specs:
            t = time.perf_counter()
            try:
                payloads[spec.benchmark] = runner.run_jobs(
                    [spec], jobs=1, cache=cache)[0]
            except Exception as exc:  # a failed job is counted, not fatal
                errors[spec.benchmark] = f"{type(exc).__name__}: {exc}"
            job_s[spec.benchmark] = time.perf_counter() - t
        wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_times += loop_times(REF_RUNS)

    for name, payload in payloads.items():
        if not payload.get("result", {}).get("verified", False):
            errors[name] = "result not verified"
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ref_s": statistics.median(ref_times),
        "job_s": job_s,
        "digests": {k: canonical_digest(v) for k, v in payloads.items()},
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if args.trace:
        layers = probe.metrics()
        jit = repro.jit.jit_stats()
        lookups = jit["memo_hits"] + jit["disk_hits"] + jit["misses"]
        hits = jit["memo_hits"] + jit["disk_hits"]
        looked = cache.hits + cache.misses
        layers.update({
            "jit.store.hit_frac": hits / lookups if lookups else 0.0,
            "jit.store.stores": jit["stores"],
            "jit.store.poisoned": jit["poisoned"],
            "sched.cache.hit_frac": cache.hits / looked if looked else 0.0,
            "sched.cache.bytes_written":
                tree_bytes(Path(args.cache_dir)) - cache_bytes,
        })
        record["layers"] = layers
    print(json.dumps(record))


if __name__ == "__main__":
    main()
