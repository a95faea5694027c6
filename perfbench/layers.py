"""The simulator's layers, measured from outside the program.

:class:`LayerProbe` replaces the public boundary functions of the
``repro`` modules with span-recording wrappers for one traced pass.  The
program itself carries no tracing code; every number here comes from
the wrappers and from counters the program already exports.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from typing import Any

from spans import SpanRecorder

#: (module, attribute, layer, call counter).  A dotted attribute is a
#: method, wrapped on its class so ``super()`` calls resolve to the
#: wrapper too: the jit dispatcher's reference fallback lands in
#: ``exec``.  ``FastDispatch`` is left unwrapped because no workload
#: runs the fast backend.
BOUNDARIES: tuple[tuple[str, str, str, str], ...] = (
    ("repro.sched.runner", "run_jobs", "sched", "sched.run_jobs"),
    ("repro.sched.runner", "execute_job", "core", "core.execute_job"),
    ("repro.simt.executor", "run_kernel", "simt", "simt.run_kernel"),
    ("repro.exec.dispatch", "ReferenceDispatch.analyze_global", "exec",
     "exec.analyze_global"),
    ("repro.exec.dispatch", "ReferenceDispatch.analyze_shared", "exec",
     "exec.analyze_shared"),
    ("repro.jit.dispatch", "JitDispatch.begin_launch", "jit.dispatch",
     "jit.begin_launch"),
    ("repro.jit.dispatch", "JitDispatch.end_launch", "jit.dispatch",
     "jit.end_launch"),
    ("repro.jit.dispatch", "JitDispatch.analyze_global", "jit.dispatch",
     "jit.analyze_global"),
    ("repro.jit.dispatch", "JitDispatch.analyze_shared", "jit.dispatch",
     "jit.analyze_shared"),
    ("repro.jit.store", "ArtifactStore.lookup", "jit.store", "jit.store.lookup"),
    ("repro.jit.store", "ArtifactStore.put", "jit.store", "jit.store.put"),
    ("repro.mem.hierarchy", "resolve_traffic", "mem", "mem.resolve_traffic"),
    ("repro.timing.model", "estimate_kernel_time", "timing",
     "timing.estimate_kernel_time"),
    ("repro.host.engine", "DeviceEngine.run_until_idle", "host", "host.engine"),
)

#: methods of the scheduler's own ResultCache, wrapped on the instance
#: so the jit store's disk tier (also a ResultCache) stays in jit.store
CACHE_METHODS = (("key_for", "key"), ("get", "get"), ("put", "put"))

#: layer self times reported per pass, keyed by metric name
SELF_TIME_METRICS = {
    "simt.run_kernel.self_s": "simt",
    "exec.analyze.self_s": "exec",
    "jit.dispatch.self_s": "jit.dispatch",
    "jit.store.self_s": "jit.store",
    "mem.resolve_traffic.self_s": "mem",
    "timing.estimate_kernel_time.self_s": "timing",
    "host.engine.self_s": "host",
    "core.self_s": "core",
    "sched.self_s": "sched",
    "sched.cache.key_s": "sched.cache.key",
    "sched.cache.get_s": "sched.cache.get",
    "sched.cache.put_s": "sched.cache.put",
}

CALL_METRICS = (
    "simt.run_kernel.calls",
    "exec.analyze_global.calls",
    "exec.analyze_shared.calls",
    "mem.resolve_traffic.calls",
    "timing.estimate_kernel_time.calls",
    "host.engine.calls",
)


def traffic_digest(trace: Any, gpu: Any, *, resident_warps_per_sm: int) -> str:
    """Hash of everything ``resolve_traffic`` reads from its inputs."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((gpu, resident_warps_per_sm, trace.warp_size,
                   trace.total_lanes, trace.window_start_warp,
                   trace.window_warps)).encode())
    for rec in trace.records:
        h.update(repr((rec.space, rec.is_store, rec.itemsize, rec.summary,
                       rec.window_addrs.shape, rec.window_addrs.dtype.str,
                       rec.window_mask.shape)).encode())
        h.update(rec.window_addrs.tobytes())
        h.update(rec.window_mask.tobytes())
    return h.hexdigest()


class LayerProbe:
    """Span wrappers around every boundary in :data:`BOUNDARIES`.

    Use as a context manager around one pass; leaving it restores every
    original function.
    """

    def __init__(self, sched_cache: Any) -> None:
        self.recorder = SpanRecorder()
        self.warp_instr = 0.0
        self._traffic_inputs: set[str] = set()
        self._cache = sched_cache
        self._undo: list[tuple[Any, str, Any]] = []

    # -- hooks ---------------------------------------------------------
    def _count_warps(self, stats: Any) -> None:
        # child launches fold their statistics into the outermost launch
        if not self.recorder.inside("simt"):
            self.warp_instr += stats.warp_instructions

    def _note_traffic(self, trace: Any, gpu: Any, **kw: Any) -> None:
        self._traffic_inputs.add(traffic_digest(trace, gpu, **kw))

    # -- install / restore ---------------------------------------------
    def _replace(self, owner: Any, name: str, new: Any) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def __enter__(self) -> "LayerProbe":
        rec = self.recorder
        hooks = {
            "run_kernel": {"after": self._count_warps},
            "resolve_traffic": {"before": self._note_traffic},
        }
        for module_name, attr, layer, counter in BOUNDARIES:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, meth, rec.wrap(cls.__dict__[meth], layer, counter))
                continue
            original = getattr(module, attr)
            wrapped = rec.wrap(original, layer, counter, **hooks.get(attr, {}))
            # rebind every ``from module import attr`` copy as well
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro") and \
                        vars(mod).get(attr) is original:
                    self._replace(mod, attr, wrapped)
        for meth, short in CACHE_METHODS:
            name = f"sched.cache.{short}"
            setattr(self._cache, meth, rec.wrap(getattr(self._cache, meth), name, name))
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        for meth, _ in CACHE_METHODS:
            vars(self._cache).pop(meth, None)

    # -- results ---------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Self times and counts of the pass this probe wrapped."""
        rec = self.recorder
        out: dict[str, float] = {
            name: rec.self_s.get(layer, 0.0)
            for name, layer in SELF_TIME_METRICS.items()
        }
        for name in CALL_METRICS:
            out[name] = rec.calls[name.removesuffix(".calls")]
        out["simt.warp_instr"] = self.warp_instr
        calls = rec.calls["mem.resolve_traffic"]
        out["mem.resolve_traffic.distinct_frac"] = (
            len(self._traffic_inputs) / calls if calls else 0.0
        )
        out["layers_s"] = sum(
            s for layer, s in rec.self_s.items() if layer != "probe"
        )
        return out
