"""Profiling sessions: collect activity across every runtime in a block.

A :class:`Profiler` owns an :class:`~repro.prof.activity.ActivityHub`
and a collecting subscriber; :func:`profile_session` makes the hub
ambient the same way :func:`~repro.sanitize.session.sanitize_session`
makes a sanitizer ambient, so benchmarks that construct their own
:class:`~repro.host.runtime.CudaLite` internally are profiled without
threading parameters through::

    with profile_session() as prof:
        get_benchmark("WarpDivRedux").run(n=1 << 20)
    prof.write_chrome_trace("trace.json")
    doc = prof.metrics(benchmark="WarpDivRedux")

After the block, ``prof.runtimes`` holds every runtime the session saw
and ``prof.records`` every activity record emitted.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.prof.activity import ActivityHub, ActivityLog
from repro.prof.chrome import write_chrome_trace
from repro.prof.metrics import collect_metrics, merge_metrics
from repro.prof.ndjson import write_ndjson

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import BenchResult
    from repro.host.runtime import CudaLite

__all__ = ["Profiler", "profile_session", "profile_benchmark"]


class Profiler:
    """Collects activity records and snapshots metrics for a run."""

    def __init__(self, hub: ActivityHub | None = None) -> None:
        self.hub = hub or ActivityHub()
        self.log = ActivityLog()
        self._sub = self.hub.subscribe(self.log)
        #: runtimes observed (populated by profile_session or attach)
        self.runtimes: list["CudaLite"] = []

    # ------------------------------------------------------------------
    @property
    def records(self) -> list:
        return self.log.records

    def attach(self, rt: "CudaLite") -> "CudaLite":
        """Wire an existing runtime into this profiler's hub."""
        rt.attach_hub(self.hub)
        if rt not in self.runtimes:
            self.runtimes.append(rt)
        return rt

    def close(self) -> None:
        """Stop collecting (detach the internal subscriber)."""
        self.hub.unsubscribe(self._sub)

    # ------------------------------------------------------------------
    def metrics(
        self,
        *,
        benchmark: str | None = None,
        params: dict[str, Any] | None = None,
        runtimes: list["CudaLite"] | None = None,
    ) -> dict[str, Any]:
        """Merged metrics document over the observed runtimes."""
        rts = runtimes if runtimes is not None else self.runtimes
        docs = [
            collect_metrics(rt, benchmark=benchmark, params=params) for rt in rts
        ]
        if not docs:
            from repro.prof.metrics import METRICS_SCHEMA

            return {
                "schema": METRICS_SCHEMA,
                "benchmark": benchmark,
                "params": dict(params or {}),
                "kernels": {},
            }
        return merge_metrics(docs)

    def write_chrome_trace(self, path: str | Path) -> Path:
        device = self.runtimes[0].gpu.name if self.runtimes else "device"
        return write_chrome_trace(path, self.records, device_name=device)

    def write_ndjson(self, path: str | Path) -> Path:
        return write_ndjson(path, self.records)


@contextmanager
def profile_session(
    profiler: Profiler | None = None,
    *,
    sanitizer=None,
    faults=None,
    watchdog_cycles: float | None = None,
) -> Iterator[Profiler]:
    """Profile every runtime constructed inside the block.

    Builds on the ambient-session machinery: the profiler's hub becomes
    the session default, so nested :class:`CudaLite` instances attach it
    on construction.  Optional sanitizer/fault parameters forward to the
    underlying sanitize session, letting one block collect performance
    activity and correctness findings together.
    """
    from repro.sanitize.session import sanitize_session

    prof = profiler or Profiler()
    with sanitize_session(
        sanitizer, faults=faults, watchdog_cycles=watchdog_cycles, hub=prof.hub
    ) as session:
        try:
            yield prof
        finally:
            prof.runtimes.extend(
                rt for rt in session.runtimes if rt not in prof.runtimes
            )


def profile_benchmark(
    benchmark: str,
    params: dict[str, Any],
    *,
    system: str | None = None,
    backend: str | None = None,
) -> tuple[Profiler, "BenchResult"]:
    """Run one benchmark comparison in process under a profiling session.

    The single in-process profiled run behind ``repro profile``,
    ``repro doctor`` and served ``profile`` requests: resolve the
    system preset and benchmark, select the backend (explicit >
    ambient > environment), and profile ``bench.run(**params)``.
    """
    from repro.arch.presets import get_system
    from repro.core.registry import get_benchmark
    from repro.exec.dispatch import current_backend_name, use_backend

    bench = get_benchmark(benchmark, get_system(system) if system else None)
    with use_backend(current_backend_name(backend)), profile_session() as prof:
        result = bench.run(**params)
    return prof, result
