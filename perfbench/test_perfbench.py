"""Self-tests of the benchmark's span recorder, layer probe and output gate.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from layers import BOUNDARIES, LayerProbe
from spans import SpanRecorder
from workloads import JOBS, WORKLOADS, job_params


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_self_times_sum_to_root_span_and_land_in_their_layers():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def work(seconds: float) -> None:
        clock.t += seconds

    class Reference:
        def analyze_global(self):
            work(3)

    class Jit(Reference):
        def analyze_global(self):
            work(1)
            return super().analyze_global()

    # wrapped on the classes, as LayerProbe does: super() finds the wrapper
    Reference.analyze_global = rec.wrap(
        Reference.__dict__["analyze_global"], "exec", "exec.analyze_global")
    Jit.analyze_global = rec.wrap(
        Jit.__dict__["analyze_global"], "jit.dispatch", "jit.analyze_global")
    ns = {}

    def run_kernel(depth):
        work(2)
        Jit().analyze_global()
        if depth:
            ns["run_kernel"](depth - 1)  # a recursive child launch

    ns["run_kernel"] = rec.wrap(run_kernel, "simt", "simt.run_kernel")

    def execute_job():
        work(5)
        ns["run_kernel"](1)

    job = rec.wrap(execute_job, "core", "core.execute_job")

    def run_jobs():
        work(0.5)
        job()

    rec.wrap(run_jobs, "sched", "sched.run_jobs")()

    assert dict(rec.self_s) == {
        "sched": 0.5, "core": 5, "simt": 4, "jit.dispatch": 2, "exec": 6}
    assert sum(rec.self_s.values()) == rec.root_s == clock.t == 17.5
    assert rec.calls["simt.run_kernel"] == 2
    assert rec.calls["exec.analyze_global"] == 2


def test_probe_attributes_a_real_jit_launch(tmp_path, monkeypatch):
    from repro import CudaLite, kernel
    from repro.exec.dispatch import use_backend
    from repro.jit import reset_jit_store
    from repro.sched.cache import ResultCache

    @kernel
    def child(ctx, out, n):
        i = ctx.global_thread_id()
        ctx.if_active(i < n, lambda: ctx.store(out, i, ctx.load(out, i) + 1.0))

    @kernel
    def parent(ctx, out, n):
        i = ctx.global_thread_id()
        ctx.if_active(i < n, lambda: ctx.store(out, i, 1.0))
        ctx.launch_child(child, 2, 32, out, n)

    monkeypatch.setenv("REPRO_JIT_CACHE_DIR", "off")
    reset_jit_store()

    def boundaries():
        for mod, attr, _, _ in BOUNDARIES:
            owner = importlib.import_module(mod)
            *cls, name = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            yield owner, name, vars(owner)[name]

    originals = list(boundaries())
    try:
        with use_backend("jit"):
            rt = CudaLite()
            out = rt.to_device(np.zeros(64, dtype=np.float32))
            with LayerProbe(ResultCache(tmp_path)) as probe:
                stats = rt.launch(parent, 2, 32, out, 64)
        assert np.all(out.to_host() == 2.0)
    finally:
        reset_jit_store()
    rec = probe.recorder
    assert rec.calls["simt.run_kernel"] == 2
    assert probe.warp_instr == stats.warp_instructions
    # a cold key records: every jit analysis delegates to the reference
    assert rec.calls["exec.analyze_global"] == rec.calls["jit.analyze_global"] > 0
    assert rec.self_s["jit.dispatch"] > 0 and rec.self_s["exec"] > 0
    assert sum(rec.self_s.values()) == pytest.approx(rec.root_s)
    assert list(boundaries()) == originals


def _record(digests, errors=None):
    return {"job_s": dict.fromkeys(digests, 1.0), "digests": dict(digests),
            "errors": errors or {}}


def test_gate_passes_the_committed_digests():
    committed = json.loads(run.DIGESTS.read_text())["digests"]
    assert set(committed) == set(JOBS)
    records = [_record(committed), _record(committed)]
    assert run.gate(records, committed) == (2 * len(JOBS), 0, [])


def test_corrupted_expected_digest_fails_the_gate():
    committed = json.loads(run.DIGESTS.read_text())["digests"]
    corrupted = dict(committed)
    digest = corrupted["Shmem"]
    corrupted["Shmem"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    attempted, failed, reasons = run.gate([_record(committed)], corrupted)
    assert (attempted, failed) == (len(JOBS), 1)
    assert reasons[0].startswith("pass 0 Shmem: digest")


def test_gate_counts_errors_and_pass_to_pass_differences():
    first = {"A": "a", "B": "b", "C": "c"}
    later = {"A": "a", "B": "x", "C": "c"}
    records = [_record(first), _record(later, {"C": "result not verified"})]
    attempted, failed, reasons = run.gate(records, None)
    assert (attempted, failed) == (6, 2)
    assert reasons == ["pass 1 B: digest differs from the first pass",
                       "pass 1 C: result not verified"]


def test_seed_zero_is_table1_order_at_base_sizes_and_seeds_stay_bounded():
    table1 = list(JOBS)
    for workload in WORKLOADS.values():
        jobs = job_params(workload.name, 0)
        names = [name for name, _ in jobs]
        assert names == sorted(names, key=table1.index)
        for name, params in jobs:
            assert params[JOBS[name].param] == JOBS[name].base
        for seed in (1, 2, 3):
            moved = job_params(workload.name, seed)
            assert moved == job_params(workload.name, seed)
            assert [name for name, _ in moved] == names
            for name, params in moved:
                job = JOBS[name]
                assert abs(params[job.param] - job.base) <= job.base / 16


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_printed_metrics_are_the_declared_ones():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = dict.fromkeys(
        [*run.SELF_TIME_METRICS, *run.EXACT_COUNTS, "sched.cache.bytes_written",
         "layers_s"], 1.0)
    rec = {"wall_s": 2.0, "setup_s": 0.5, "ref_s": 0.03, "peak_rss_mb": 90.0,
           "job_s": {"Shmem": 1.0}, "layers": layers}
    assert list(run.end_to_end([rec], 1e6)) == [
        m["name"] for m in declared["end_to_end"]]
    metrics, reasons = run.per_layer([rec], [rec, rec])
    assert reasons == []
    assert sorted(metrics) == sorted(m["name"] for m in declared["per_layer"])
