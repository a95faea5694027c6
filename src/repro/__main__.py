"""Command-line interface: run microbenchmarks and regenerate figures.

Usage examples::

    python -m repro list
    python -m repro table1
    python -m repro table1 --jobs 4 --backend fast
    python -m repro table1 --jobs 4 --run-id nightly --out table1.json
    python -m repro table1 --resume nightly --out table1.json
    python -m repro run CoMem --system carina -p n=4194304
    python -m repro sweep CoMem --values 262144,1048576,4194304
    python -m repro sweep CoMem --values 262144,1048576 --jobs 2 --out f9.json
    python -m repro sweep CoMem --values 262144,1048576 --jobs 2 \
        --chaos seed=7,crash=0.4,hang=0.2,max-fault-attempts=2 --job-timeout 10
    python -m repro sweep CoMem --values 262144,1048576 --fleet 2 \
        --trace fleet_trace.json --metrics metrics.prom
    python -m repro top <run-id> --once
    python -m repro journal show <run-id> --trace <trace-id-prefix>
    python -m repro specs
    python -m repro doctor CoMem
    python -m repro sanitize MemAlign --tool all
    python -m repro sanitize oob-write --tool memcheck
    python -m repro sanitize MemAlign --fault-seed 3 --h2d-fail-prob 0.5
    python -m repro profile WarpDivRedux --trace trace.json
    python -m repro run CoMem --trace trace.json --json metrics.json
    python -m repro prof diff before.json after.json
    python -m repro prof diff before.json after.json --claims benchmarks/claims
    python -m repro prof roofline metrics.json
    python -m repro check --all
    python -m repro check CoMem BankRedux --backend both
    python -m repro check --all --quick --json conformance.json
    python -m repro check --doc benchmarks/results/table1_summary.json

Exit codes: ``doctor`` and ``sanitize`` exit 1 when any critical
finding is reported, ``prof diff`` exits 1 when a metric regresses
beyond its threshold (or a ``--claims`` claim fails), ``check`` exits 1
when any conformance check fails; every command exits 2 on a runtime
error and 0 otherwise.  Supervised runs (``run``/``sweep``/``table1``
always, ``check`` with a resilience flag) add two more: 3 when the run
completed only through a degradation fallback (fast backend re-run on
the reference oracle, or the worker pool dropping to serial), and 4
when the run was interrupted (SIGINT/SIGTERM) with the completed work
checkpointed to the run journal — finish it with ``--resume``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any

from repro.arch.presets import get_system, list_gpus
from repro.common.errors import ReproError
from repro.common.tables import render_table
from repro.core.registry import ALL_BENCHMARKS, get_benchmark, list_benchmarks


def _parse_params(pairs: list[str]) -> dict[str, Any]:
    """Parse ``-p key=value`` pairs, int/float-coercing values."""
    out: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"bad parameter {pair!r}; expected key=value")
        key, raw = pair.split("=", 1)
        value: Any
        try:
            value = int(raw, 0)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        out[key] = value
    return out


def _resolve_benchmark(args: argparse.Namespace) -> None:
    """Validate ``--system`` and the benchmark name before anything runs,
    so a typo is a plain error rather than a retried, quarantined job."""
    get_benchmark(args.benchmark, get_system(args.system) if args.system else None)


def _make_cache(args: argparse.Namespace):
    from repro.sched import ResultCache

    return ResultCache(args.cache_dir, enabled=not args.no_cache)


def _resilience_requested(args: argparse.Namespace) -> bool:
    """Did any flag explicitly ask ``check`` for the supervised scheduler?"""
    return any(
        getattr(args, name, None) is not None
        for name in ("max_retries", "job_timeout", "resume", "run_id", "chaos")
    )


def _fleet_requested(args: argparse.Namespace) -> bool:
    """Did ``--fleet`` or ``--join`` ask for the work-stealing fleet?"""
    return (
        getattr(args, "fleet", None) is not None
        or getattr(args, "join", None) is not None
    )


def _make_fleet(args: argparse.Namespace, *, command: str):
    """Build the fleet configuration from ``--fleet``/``--join`` flags."""
    from repro.resilience import FleetConfig, new_run_id, parse_chaos

    if not _fleet_requested(args):
        return None
    if getattr(args, "fleet", None) is not None and getattr(args, "join", None):
        raise ReproError(
            "--fleet and --join are mutually exclusive: --fleet spawns "
            "local workers for a new run, --join adds this process to an "
            "existing one"
        )
    if getattr(args, "resume", None):
        raise ReproError(
            "--resume does not apply to fleet runs; re-join an "
            "interrupted fleet with --join <run-id> instead"
        )
    if args.join:
        run_id, workers = args.join, 0
    else:
        if args.fleet <= 0:
            raise ReproError(
                f"--fleet needs a positive worker count, got {args.fleet}"
            )
        run_id, workers = (getattr(args, "run_id", None) or new_run_id()), args.fleet
    ttl = args.lease_ttl if args.lease_ttl is not None else 5.0
    heartbeat = (
        args.heartbeat if args.heartbeat is not None else max(ttl / 3.0, 1e-3)
    )
    kwargs: dict[str, Any] = {}
    if getattr(args, "max_retries", None) is not None:
        kwargs["max_retries"] = args.max_retries
    return FleetConfig(
        run_id=run_id,
        worker_id=getattr(args, "worker_id", None) or "",
        workers=workers,
        journal_root=args.journal_dir,
        command=command,
        heartbeat_s=heartbeat,
        lease_ttl_s=ttl,
        chaos=parse_chaos(args.chaos) if getattr(args, "chaos", None) else None,
        **kwargs,
    )


def _make_resilience(args: argparse.Namespace, *, command: str):
    """Build the supervision policy (and run journal) from CLI flags."""
    from repro.resilience import ResilienceConfig, RunJournal, parse_chaos

    chaos = parse_chaos(args.chaos) if getattr(args, "chaos", None) else None
    journal = None
    if not getattr(args, "no_journal", False):
        if getattr(args, "resume", None):
            journal = RunJournal.resume(args.journal_dir, args.resume)
        else:
            journal = RunJournal.create(
                args.journal_dir,
                run_id=getattr(args, "run_id", None),
                meta={"command": command},
            )
    kwargs: dict[str, Any] = {}
    if getattr(args, "max_retries", None) is not None:
        kwargs["max_retries"] = args.max_retries
    if getattr(args, "job_timeout", None) is not None:
        kwargs["job_timeout_s"] = args.job_timeout
    # a hub gives the supervisor somewhere to hang its flight recorder,
    # so a quarantine dumps the run's last sched events post-mortem
    from repro.prof.activity import ActivityHub

    return ResilienceConfig(
        chaos=chaos, journal=journal, hub=ActivityHub(), **kwargs
    )


def _sigterm_as_interrupt():
    """Translate SIGTERM into KeyboardInterrupt around a scheduler run,
    so a polite kill flushes the journal and exits 4 just like Ctrl-C."""
    import signal
    import threading
    from contextlib import contextmanager, nullcontext

    if (
        not hasattr(signal, "SIGTERM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return nullcontext()

    @contextmanager
    def _scope():
        def _raise(signum, frame):
            raise KeyboardInterrupt

        old = signal.signal(signal.SIGTERM, _raise)
        try:
            yield
        finally:
            signal.signal(signal.SIGTERM, old)

    return _scope()


def _interrupted(resilience, fleet=None) -> int:
    """Exit code 4: interrupted, journal flushed, partial results saved."""
    tele = resilience.telemetry
    if fleet is not None:
        print(
            f"interrupted: fleet run {fleet.run_id} keeps each worker's "
            f"completed jobs in its own journal; finish with "
            f"--join {fleet.run_id}",
            file=sys.stderr,
        )
    elif resilience.journal is not None:
        run_id = resilience.journal.run_id
        resilience.journal.close()
        print(
            f"interrupted: {tele.completed} completed job(s) saved to "
            f"journal run {run_id}; finish with --resume {run_id}",
            file=sys.stderr,
        )
    else:
        print(
            "interrupted: journaling disabled (--no-journal), partial "
            "results discarded",
            file=sys.stderr,
        )
    return 4


def _sched_status(status: int, resilience) -> int:
    """Map a command's natural exit through the degradation ladder.

    A run that finished only via a fallback (fast backend re-run on the
    reference oracle, pool dropped to serial) exits 3 instead of 0 —
    results are valid but the configuration asked for did not hold.
    """
    if resilience is not None:
        if resilience.journal is not None:
            resilience.journal.close()
        if status == 0 and resilience.telemetry.degraded:
            return 3
    return status


def cmd_list(_args: argparse.Namespace) -> int:
    rows = [
        [cls.name, cls.category, cls.paper_speedup, cls.default_system.gpu.name]
        for cls in ALL_BENCHMARKS
    ]
    print(
        render_table(
            ["benchmark", "guideline", "paper speedup", "default GPU"],
            rows,
            title="CUDAMicroBench microbenchmarks",
        )
    )
    return 0


def _profile_in_process(args: argparse.Namespace, fleet) -> bool:
    """Do ``--trace``/``--json``/``--ndjson`` profile this run in process?

    Only a serial (``--jobs 1``), non-fleet run executes in this
    process, and only a fresh anonymous one is profiled: a named
    (``--run-id``) or resumed run's trace is stitched from its journal,
    whose run id mints the span ids.  ``table1`` has no profile
    exports; its ``--trace`` is always the journal's.
    """
    exports = ("trace", "json", "ndjson") if hasattr(args, "json") else ()
    return (
        any(getattr(args, name) for name in exports)
        and getattr(args, "jobs", 1) <= 1
        and fleet is None
        and args.run_id is None
        and args.resume is None
    )


class _Scheduled:
    """The one execution path of ``run``, ``sweep`` and ``table1``.

    Construction builds what the flags ask for: the result cache
    (``--cache-dir``/``--no-cache``; ``run`` has none), the fleet
    (``--fleet``/``--join``) or else the supervision policy with its
    run journal (``--journal-dir``/``--no-journal``).  Entering adds
    the SIGTERM-as-interrupt scope, the ``--metrics-port`` server and,
    for an in-process profiled run, the profiler; the body calls the
    scheduler (:func:`repro.sched.run_jobs`, directly or through
    ``parallel_sweep``/``parallel_suite``) with :attr:`sched`, so
    ``--jobs 1`` is the supervisor's in-process serial mode.  An
    interrupt ends the block quietly; :meth:`finish` turns it into
    exit code 4, or else writes the output every command shares.
    """

    def __init__(
        self, args: argparse.Namespace, *, command: str, benchmark: str,
        params: dict[str, Any], jobs_total: int,
    ) -> None:
        self.args = args
        self.command = command
        self.benchmark = benchmark
        self.params = params
        self.jobs_total = jobs_total
        self.jobs = getattr(args, "jobs", 1)
        self.fleet = _make_fleet(args, command=command)
        self.profiled = _profile_in_process(args, self.fleet)
        if not self.profiled and (
            getattr(args, "json", None) or getattr(args, "ndjson", None)
        ):
            print(
                "note: --json/--ndjson profile only an in-process run "
                "(--jobs 1, no fleet, no --run-id/--resume); not collected "
                "here (--trace is stitched from the run journal instead)",
                file=sys.stderr,
            )
        # a profiled run must execute: the profile is its output
        self.cache = (
            _make_cache(args)
            if hasattr(args, "cache_dir") and not self.profiled
            else None
        )
        if self.fleet is not None:
            from repro.resilience import ResilienceConfig

            # shares the fleet's telemetry, so the stats sidecar, the
            # degradation exit code and the execution section read the
            # fleet run like any other
            self.resilience = ResilienceConfig(telemetry=self.fleet.telemetry)
        else:
            self.resilience = _make_resilience(args, command=command)
        self.sched = dict(
            jobs=self.jobs,
            cache=self.cache,
            resilience=None if self.fleet is not None else self.resilience,
            fleet=self.fleet,
        )
        self.prof = None
        self.interrupted = False

    def __enter__(self) -> "_Scheduled":
        from contextlib import ExitStack

        with ExitStack() as stack:
            stack.enter_context(_sigterm_as_interrupt())
            if getattr(self.args, "metrics_port", None) is not None:
                from repro.obs import MetricsServer

                srv = stack.enter_context(
                    MetricsServer(self._samples, port=self.args.metrics_port)
                )
                print(f"metrics: serving on {srv.url}", file=sys.stderr)
            if self.profiled:
                from repro.prof import profile_session

                self.prof = stack.enter_context(profile_session())
            self._stack = stack.pop_all()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._stack.close()
        self.interrupted = exc_type is not None and issubclass(
            exc_type, KeyboardInterrupt
        )
        return self.interrupted

    def finish(self, show, status) -> int:
        """The shared output tail; returns the exit code.

        ``show()`` prints the result and writes ``--out``, skipped when
        ``--resume`` found the run already complete; ``status()`` is the
        command's natural exit code, mapped through the degradation
        ladder after ``--stats``, ``--metrics`` and the trace/profile
        exports are written.
        """
        args = self.args
        tele = self.resilience.telemetry
        if self.interrupted:
            return _interrupted(self.resilience, self.fleet)
        if (
            args.resume is not None
            and tele.completed == 0
            and tele.resume_skips > 0
            and not tele.quarantined
        ):
            # every job replayed from the journal: the run that
            # completed it already wrote the artifacts
            print(
                f"nothing to do: run {args.resume} already complete "
                f"({tele.resume_skips} job(s) journaled); artifacts unchanged"
            )
        else:
            show()
        if getattr(args, "stats", None):
            self._write_stats()
        if getattr(args, "metrics", None):
            from repro.obs import write_metrics_text

            path = write_metrics_text(args.metrics, self._samples())
            print(f"metrics written to {path}")
        if self.prof is not None:
            self._export_profile()
        elif args.trace:
            self._write_trace()
        return _sched_status(status(), self.resilience)

    def _samples(self):
        """The sample set behind ``--metrics``/``--metrics-port``.

        Fleet runs scan the shared coordination directory read-only —
        safe to call from any process at any time, and incapable of
        perturbing the run's byte-identical merge.  Other runs read the
        in-process scheduler telemetry, which the parent updates as
        results arrive.
        """
        from repro.obs import fleet_samples, list_flight_dumps, telemetry_samples

        fleet = self.fleet
        if fleet is not None:
            from repro.resilience.fleet import fleet_dir

            try:
                return fleet_samples(
                    fleet_dir(self.args.journal_dir, fleet.run_id),
                    run_id=fleet.run_id, command=self.command,
                )
            except ReproError:
                # scraped before the workers created the run directory:
                # serve the still-zero telemetry instead of a 500
                return telemetry_samples(
                    fleet.telemetry, run_id=fleet.run_id, command=self.command
                )
        journal = self.resilience.journal
        return telemetry_samples(
            self.resilience.telemetry,
            cache_stats=self.cache.stats() if self.cache is not None else None,
            run_id=journal.run_id if journal is not None else None,
            command=self.command,
            jobs_total=self.jobs_total,
            flight_dumps=len(list_flight_dumps(
                Path(self.args.journal_dir) / "flightrec" / journal.run_id
            )) if journal is not None else None,
        )

    def _write_stats(self) -> None:
        """The ``--stats`` sidecar: backend, cache, and supervision
        counters, kept out of ``--out`` so result documents stay
        byte-identical across cold/warm and serial/parallel runs."""
        import json

        from repro.exec import current_backend_name

        backend = current_backend_name(self.args.backend)
        doc = {
            "schema": "repro-prof-sched/1",
            "benchmark": self.benchmark,
            "backend": backend,
            "jobs": self.jobs,
            "cache": self.cache.stats() if self.cache is not None else None,
        }
        if backend == "jit":
            from repro.jit import jit_stats

            # artifact-store counters (trace reuse), next to the result cache
            doc["jit"] = jit_stats()
        doc["execution"] = self.resilience.telemetry.as_dict()
        path = Path(self.args.stats)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"scheduler stats written to {path}")

    def _write_trace(self) -> None:
        """``--trace`` stitched from the run's journal(s): per-worker
        lanes for fleet runs, a synthetic span tree otherwise."""
        args = self.args
        if self.fleet is not None:
            from repro.obs import write_fleet_trace
            from repro.resilience.fleet import fleet_dir

            path = write_fleet_trace(
                fleet_dir(args.journal_dir, self.fleet.run_id), args.trace
            )
            print(f"stitched fleet trace written to {path}")
        elif self.resilience.journal is not None:
            from repro.obs import write_journal_trace

            path = write_journal_trace(self.resilience.journal.path, args.trace)
            print(f"journal trace written to {path}")
        else:
            print(
                "note: --trace of a named or parallel run is stitched from "
                "its journal; drop --no-journal",
                file=sys.stderr,
            )

    def _export_profile(self) -> None:
        """Write whichever of --trace/--json/--ndjson were requested."""
        args, prof = self.args, self.prof
        if args.trace:
            print(f"chrome trace written to {prof.write_chrome_trace(args.trace)}")
        if args.ndjson:
            print(f"ndjson log written to {prof.write_ndjson(args.ndjson)}")
        if args.json:
            from repro.prof import write_metrics

            doc = prof.metrics(benchmark=self.benchmark, params=self.params)
            print(f"metrics written to {write_metrics(args.json, doc)}")


def _write_out(path: str | None, doc: dict[str, Any], what: str) -> None:
    if path:
        from repro.prof import write_metrics

        print(f"{what} written to {write_metrics(path, doc)}")


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.sched.runner import execution_section, parallel_suite

    with _Scheduled(
        args, command="table1", benchmark="table1", params={},
        jobs_total=len(ALL_BENCHMARKS),
    ) as run:
        report = parallel_suite(backend=args.backend, **run.sched)

    def show() -> None:
        print(report.render())
        doc = report.as_dict()
        doc.update(execution_section(run.resilience.telemetry))
        _write_out(args.out, doc, "table")

    return run.finish(show, lambda: 0 if report.all_verified else 1)


def cmd_run(args: argparse.Namespace) -> int:
    from repro.core.base import BenchResult
    from repro.exec import current_backend_name
    from repro.sched import JobSpec, run_jobs

    params = _parse_params(args.param)
    _resolve_benchmark(args)
    spec = JobSpec(
        benchmark=args.benchmark,
        params=params,
        system=args.system,
        backend=current_backend_name(args.backend),
    )
    with _Scheduled(
        args, command="run", benchmark=args.benchmark, params=params,
        jobs_total=1,
    ) as run:
        result = BenchResult.from_dict(
            run_jobs([spec], **run.sched)[0]["result"]
        )

    def show() -> None:
        print(result)
        if result.metrics:
            print("metrics:")
            for k, v in result.metrics.items():
                print(f"  {k}: {v:.6g}")
        if result.notes:
            print(result.notes)

    return run.finish(show, lambda: 0 if result.verified else 1)


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sched.runner import bench_document, parallel_sweep

    values = (
        [int(v, 0) for v in args.values.split(",")] if args.values else None
    )
    if values is None and (args.jobs > 1 or _fleet_requested(args)):
        raise SystemExit(
            "--jobs > 1 and --fleet/--join need explicit --values to "
            "decompose the sweep into jobs"
        )
    params = _parse_params(args.param)
    _resolve_benchmark(args)
    with _Scheduled(
        args, command="sweep", benchmark=args.benchmark, params=params,
        jobs_total=len(values) if values else 1,
    ) as run:
        sweep = parallel_sweep(
            args.benchmark, values, params=params, system=args.system,
            backend=args.backend, **run.sched,
        )

    def show() -> None:
        print(sweep.render())
        doc = bench_document(
            args.benchmark, params, sweep=sweep,
            telemetry=run.resilience.telemetry,
        )
        _write_out(args.out, doc, "sweep results")

    return run.finish(show, lambda: 0)


def cmd_specs(_args: argparse.Namespace) -> int:
    from repro.arch.presets import get_gpu

    rows = []
    for name in list_gpus():
        g = get_gpu(name)
        rows.append(
            [
                g.name,
                f"{g.compute_capability[0]}.{g.compute_capability[1]}",
                g.sm_count,
                f"{g.clock_hz / 1e9:.2f}",
                f"{g.dram_bandwidth / 1e9:.0f}",
                f"{g.l2_size // 1024 // 1024} MiB",
                "yes" if g.global_loads_cached_in_l1 else "no",
            ]
        )
    print(
        render_table(
            ["GPU", "CC", "SMs", "GHz", "GB/s", "L2", "L1 for loads"],
            rows,
            title="preset architectures",
        )
    )
    return 0


def cmd_doctor(args: argparse.Namespace) -> int:
    """Run a benchmark and print the performance doctor's findings.

    The run is profiled, its metrics document is built, and the doctor
    rules run over the *exported* per-kernel blocks — the same path an
    external tool would take over a saved metrics JSON.  Exits 1 if any
    finding is critical — usable as a CI gate.
    """
    from repro.host.doctor import diagnose_metrics
    from repro.prof import collect_metrics, merge_metrics, profile_benchmark

    prof, _ = profile_benchmark(
        args.benchmark, _parse_params(args.param), system=args.system
    )
    docs = [
        collect_metrics(rt, benchmark=args.benchmark) for rt in prof.runtimes
    ]
    findings = []
    if docs:
        doc = merge_metrics(docs)
        for name, entry in doc["kernels"].items():
            findings.extend(diagnose_metrics(entry, doc["gpu"]))
    if not findings:
        print(f"{args.benchmark}: no findings")
        return 0
    print(f"{args.benchmark}: {len(findings)} finding(s)")
    for f in findings:
        print(f"  {f}")
    return 1 if any(f.severity == "critical" for f in findings) else 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Run a benchmark under the profiler and export its activity.

    Writes the per-benchmark metrics JSON (default:
    ``benchmarks/results/PROF_<benchmark>.json``) plus any requested
    Chrome trace / NDJSON log, and prints the roofline classification.
    """
    from repro.prof import profile_benchmark, render_roofline, write_metrics
    from repro.prof.roofline import classify_kernel
    from repro.timing.model import estimate_kernel_time

    params = _parse_params(args.param)
    prof, result = profile_benchmark(
        args.benchmark, params, system=args.system, backend=args.backend
    )
    print(result)

    doc = prof.metrics(benchmark=args.benchmark, params=params)
    out = Path(args.json) if args.json else (
        Path("benchmarks/results") / f"PROF_{args.benchmark}.json"
    )
    path = write_metrics(out, doc)
    print(f"metrics written to {path}")
    if args.trace:
        print(f"chrome trace written to {prof.write_chrome_trace(args.trace)}")
    if args.ndjson:
        print(f"ndjson log written to {prof.write_ndjson(args.ndjson)}")

    points = []
    for rt in prof.runtimes:
        seen = set()
        for stats, _ in rt.kernel_log:
            if stats.name in seen:
                continue
            seen.add(stats.name)
            timing = estimate_kernel_time(stats, rt.gpu, launch_kind="none")
            points.append(classify_kernel(
                stats,
                rt.gpu,
                exec_s=timing.exec_s,
                dram_bytes=timing.traffic.dram_bytes if timing.traffic else None,
            ))
    if points:
        print()
        print(render_roofline(points, title=f"roofline: {args.benchmark}"))
    n_kernels = len(doc["kernels"])
    n_records = len(prof.records)
    print(f"\n{n_kernels} kernel(s), {n_records} activity record(s) collected")
    return 0


def cmd_prof_diff(args: argparse.Namespace) -> int:
    """Compare two metrics documents; exit 1 on regression.

    With ``--claims`` the paper-claim specs are evaluated against the
    *after* document and failures count as regressions — absolute
    thresholds alongside the relative before/after ones.
    """
    from repro.prof import diff_metrics, load_metrics

    claim_specs = None
    if args.claims:
        from repro.check import load_claims

        claim_specs = load_claims(args.claims)
    before = load_metrics(args.before)
    after = load_metrics(args.after)
    report = diff_metrics(
        before,
        after,
        time_tolerance=args.time_tolerance,
        metric_tolerance=args.metric_tolerance,
        before_label=Path(args.before).name,
        after_label=Path(args.after).name,
        claim_specs=claim_specs,
        allow_backend_mismatch=args.allow_backend_mismatch,
    )
    print(report.render())
    return 0 if report.ok else 1


def cmd_check(args: argparse.Namespace) -> int:
    """Run the paper-claims conformance pass; exit 1 on any failure.

    Live mode (``--all`` or benchmark names) re-runs each claimed
    comparison under the profiler per backend, evaluates the claim
    files, audits the exported metrics against the invariant registry,
    and runs the metamorphic relations.  Offline mode (``--doc``)
    audits saved documents instead: structural validation, kernel/
    result invariants, and result-level claims at matching parameters.
    """
    from repro.check import (
        ConformanceReport,
        check_all,
        check_document,
        evaluate_claims_on_document,
        load_claims_dir,
    )

    resilience = None
    if args.doc:
        from repro.prof import load_metrics

        specs = load_claims_dir(args.claims_dir)
        report = ConformanceReport(title="conformance audit of saved documents")
        for doc_path in args.doc:
            doc = load_metrics(doc_path)
            subject = Path(doc_path).stem
            report.extend(check_document(doc, subject=subject))
            report.extend(
                evaluate_claims_on_document(
                    specs.values(), doc, quick=args.quick
                )
            )
    else:
        if not args.benchmarks and not args.all:
            raise ReproError(
                "nothing to check: name benchmarks, or pass --all / --doc"
            )
        resilience = (
            _make_resilience(args, command="check")
            if _resilience_requested(args)
            else None
        )
        try:
            with _sigterm_as_interrupt():
                report = check_all(
                    benchmarks=args.benchmarks or None,
                    claims_dir=args.claims_dir,
                    backend=args.backend,
                    quick=args.quick,
                    relations=not args.no_relations,
                    system=args.system,
                    resilience=resilience,
                )
        except KeyboardInterrupt:
            return _interrupted(resilience)
    print(report.render())
    if args.json:
        path = report.write_json(args.json)
        print(f"conformance report written to {path}")
    return _sched_status(0 if report.ok else 1, resilience)


def cmd_prof_roofline(args: argparse.Namespace) -> int:
    """Print the roofline table stored in a metrics document."""
    from repro.prof import load_metrics

    doc = load_metrics(args.metrics)
    rows = []
    for name, entry in sorted(doc.get("kernels", {}).items()):
        roof = entry.get("roofline")
        if not roof:
            continue
        inten = roof["intensity_ops_per_byte"]
        rows.append([
            name,
            "inf" if inten == float("inf") else f"{inten:.3f}",
            f"{roof['ridge_ops_per_byte']:.3f}",
            roof["bound"],
            f"{roof['attained_ops_per_s'] / 1e9:.2f}",
            f"{roof['roof_ops_per_s'] / 1e9:.2f}",
            f"{roof['roof_efficiency']:.0%}",
        ])
    if not rows:
        print("no roofline data in document (timing was not included)")
        return 0
    print(render_table(
        ["kernel", "ops/byte", "ridge", "bound", "Gops/s", "roof", "of roof"],
        rows,
        title=f"roofline: {doc.get('benchmark') or Path(args.metrics).name}",
    ))
    return 0


def cmd_sanitize(args: argparse.Namespace) -> int:
    """Run a benchmark or demo under the compute-sanitizer analog.

    ``target`` is a Table I benchmark name or a demo from
    :mod:`repro.sanitize.demos`.  Exits 1 on any critical finding,
    2 if the run itself died on a runtime error.
    """
    from repro.faults import FaultPlan
    from repro.host.runtime import CudaLite
    from repro.sanitize import Sanitizer, sanitize_session
    from repro.sanitize.demos import DEMOS, run_demo

    plan = None
    if (
        args.fault_seed is not None
        or args.h2d_fail_prob
        or args.d2h_fail_prob
        or args.corrupt_prob
        or args.abort_at is not None
        or args.alloc_fail_after is not None
        or args.stall_every is not None
    ):
        plan = FaultPlan(
            args.fault_seed or 0,
            alloc_fail_after_bytes=args.alloc_fail_after,
            h2d_fail_prob=args.h2d_fail_prob,
            d2h_fail_prob=args.d2h_fail_prob,
            corrupt_prob=args.corrupt_prob,
            kernel_abort_at=args.abort_at,
            max_transfer_failures=args.max_transfer_failures,
            stall_every=args.stall_every,
        )
    san = Sanitizer(args.tool)
    status = 0
    with sanitize_session(
        sanitizer=san, faults=plan, watchdog_cycles=args.watchdog
    ) as session:
        try:
            if args.target in DEMOS:
                rt = CudaLite()
                run_demo(args.target, rt, **_parse_params(args.param))
            else:
                system = get_system(args.system) if args.system else None
                bench = get_benchmark(args.target, system)
                bench.run(**_parse_params(args.param))
        except ReproError as exc:
            print(f"run aborted: {exc}", file=sys.stderr)
            status = 2
    print(san.report().render())
    fault_logs = [rt.fault_log for rt in session.runtimes if rt.fault_log.events]
    for log in fault_logs:
        print(log.render())
    if status == 0 and not san.report().ok:
        status = 1
    return status


def cmd_top(args: argparse.Namespace) -> int:
    """Live read-only view of a fleet run (``repro top <run-id>``).

    Scans the shared coordination directory with the same torn-tolerant
    readers the merge uses and never writes anything, so watching a run
    cannot change its merged result (the CLI tests assert the merged
    document is byte-identical with and without a monitor attached).
    Refreshes every ``--interval`` seconds until the run has no jobs
    left; ``--once`` prints a single snapshot and exits.
    """
    import time

    from repro.obs import fleet_status, render_fleet_status
    from repro.resilience.fleet import fleet_dir

    run_dir = fleet_dir(args.journal_dir, args.run_id)
    ttl = args.lease_ttl if args.lease_ttl is not None else 5.0
    try:
        while True:
            status = fleet_status(run_dir, ttl_s=ttl)
            if not args.once and sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            print(render_fleet_status(status))
            if args.once:
                return 0
            if status["jobs_total"] and not status["jobs_remaining"]:
                print("run complete")
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _age(seconds: float) -> str:
    """A compact human age like ``3d4h`` / ``12m`` for journal listings."""
    seconds = max(0.0, seconds)
    days, rem = divmod(int(seconds), 86400)
    hours, rem = divmod(rem, 3600)
    minutes = rem // 60
    if days:
        return f"{days}d{hours}h"
    if hours:
        return f"{hours}h{minutes}m"
    return f"{minutes}m"


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the benchmark-as-a-service daemon until SIGTERM/SIGINT.

    SIGTERM triggers the graceful drain: intake flips to 503, in-flight
    requests finish (journals flush per checkpoint), queued requests
    stay durable on disk, and the listening socket closes cleanly.
    Exit 0 when the queue drained empty, 4 when accepted work remains
    for the next incarnation (the "interrupted; journal saved" code).
    """
    import signal
    import threading

    from repro.serve import ServeDaemon

    daemon = ServeDaemon(
        args.data_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        jobs=args.jobs,
        max_queue=args.max_queue,
        max_per_client=args.max_per_client,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        lease_ttl_s=args.lease_ttl if args.lease_ttl is not None else 30.0,
        cache=_make_cache(args),
    )
    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    for name in ("SIGTERM", "SIGINT"):
        if hasattr(signal, name):
            signal.signal(getattr(signal, name), _on_signal)

    daemon.start()
    rec = daemon.recovery
    print(
        f"serve: listening on {daemon.url} (data dir {args.data_dir})",
        file=sys.stderr,
    )
    if rec is not None and rec.requests:
        print(
            f"serve: recovered {rec.requests} request(s): "
            f"{rec.requeued} requeued, {rec.releases} re-leased, "
            f"{rec.completed} already complete",
            file=sys.stderr,
        )
    stop.wait()
    print("serve: draining...", file=sys.stderr)
    code = daemon.drain(grace_s=args.drain_grace)
    pending = "clean" if code == 0 else "work remains; restart to resume"
    print(
        f"serve: drained in {daemon.drain_duration_s:.2f}s ({pending})",
        file=sys.stderr,
    )
    return code


def cmd_cache_gc(args: argparse.Namespace) -> int:
    from repro.sched import gc_cache

    max_bytes = None
    if args.max_bytes is not None:
        max_bytes = _parse_size(args.max_bytes)
    summary = gc_cache(
        args.cache_dir,
        older_than_days=args.older_than,
        max_bytes=max_bytes,
        dry_run=args.dry_run,
    )
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"{verb} {len(summary['removed'])} entr(ies) "
        f"({summary['removed_bytes']} bytes), kept {summary['kept']} "
        f"({summary['kept_bytes']} bytes)"
    )
    by_reason: dict[str, int] = {}
    for entry in summary["removed"]:
        by_reason[entry["reason"]] = by_reason.get(entry["reason"], 0) + 1
    for reason, n in sorted(by_reason.items()):
        print(f"  {n} by {reason}")
    if not args.dry_run and summary["tmp_files_removed"]:
        print(f"swept {summary['tmp_files_removed']} tmp file(s)")
    return 0


def _parse_size(text: str) -> int:
    """Parse '64M'/'1G'/'4096' size arguments for ``cache gc``."""
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    t = text.strip().lower().rstrip("ib")
    if t and t[-1] in units:
        try:
            return int(float(t[:-1]) * units[t[-1]])
        except ValueError:
            pass
    try:
        return int(t)
    except ValueError:
        raise ReproError(
            f"cannot parse size {text!r}; use bytes or K/M/G suffixes"
        ) from None


def cmd_journal_ls(args: argparse.Namespace) -> int:
    import time

    from repro.resilience import list_runs

    runs = list_runs(args.journal_dir)
    if not runs:
        print(f"no journaled runs under {args.journal_dir}")
        return 0
    now = time.time()
    print(f"{'RUN':<14} {'KIND':<6} {'COMMAND':<8} {'JOBS':>6}  AGE")
    for entry in runs:
        jobs = str(entry["jobs"])
        if entry.get("total"):
            jobs = f"{entry['jobs']}/{entry['total']}"
        print(
            f"{entry['run_id']:<14} {entry['kind']:<6} "
            f"{entry['command'] or '-':<8} {jobs:>6}  "
            f"{_age(now - entry['mtime'])}"
        )
    return 0


def cmd_journal_show(args: argparse.Namespace) -> int:
    from repro.obs import (
        list_flight_dumps,
        read_flight_dump,
        read_journal_entries,
        trace_id_for_run,
    )
    from repro.resilience import list_runs
    from repro.resilience.fleet import fleet_dir

    root = Path(args.journal_dir)
    entry = next(
        (e for e in list_runs(root) if e["run_id"] == args.run_id), None
    )
    if entry is None:
        raise ReproError(
            f"no journaled run {args.run_id!r} under {root}; "
            "see 'repro journal ls'"
        )
    filtering = bool(args.trace or args.span)

    def matches(meta: dict[str, Any]) -> bool:
        if args.trace and not str(
            meta.get("trace_id") or ""
        ).startswith(args.trace):
            return False
        if args.span and not str(
            meta.get("span_id") or ""
        ).startswith(args.span):
            return False
        return True

    def show_flight_dumps(dump_dir: Path) -> None:
        dumps = list_flight_dumps(dump_dir)
        if not dumps:
            return
        print(f"  flight dumps ({len(dumps)}):")
        for p in dumps:
            try:
                doc = read_flight_dump(p)
            except (OSError, ValueError):
                print(f"    {p.name}  <unreadable>")
                continue
            print(
                f"    {p.name}  reason={doc.get('reason', '?')} "
                f"records={len(doc.get('records') or [])} "
                f"dropped={doc.get('dropped', 0)}"
            )

    if entry["kind"] == "run":
        header, entries = read_journal_entries(Path(entry["path"]))
        print(
            f"run {args.run_id}: command={header.get('command', '-')} "
            f"jobs={len(entries)} trace={trace_id_for_run(args.run_id)}"
        )
        shown = 0
        for e in entries:
            meta = e.get("meta") or {}
            if not matches(meta):
                continue
            shown += 1
            kind = (e.get("payload") or {}).get("kind", "?")
            bench = meta.get("benchmark") or "?"
            span = (meta.get("span_id") or "-")[:16]
            print(f"  {e['job'][:16]}  {kind:<6} {bench:<14} span={span}")
        if filtering:
            print(f"  {shown}/{len(entries)} job(s) matched")
        show_flight_dumps(root / "flightrec" / args.run_id)
        return 0
    run_dir = fleet_dir(root, args.run_id)
    import json as _json

    manifest = _json.loads((run_dir / "manifest.json").read_text())
    total = len(manifest.get("jobs", []))
    print(
        f"fleet run {args.run_id}: command={manifest.get('command', '-')} "
        f"jobs={total} trace={trace_id_for_run(args.run_id)}"
    )
    resolved: set[str] = set()
    shown = scanned = 0
    for jf in sorted((run_dir / "journals").glob("*.ndjson")):
        _, entries = read_journal_entries(jf)
        resolved.update(e["job"] for e in entries)
        scanned += len(entries)
        if filtering:
            for e in entries:
                meta = e.get("meta") or {}
                if not matches(meta):
                    continue
                shown += 1
                bench = meta.get("benchmark") or "?"
                span = (meta.get("span_id") or "-")[:16]
                print(
                    f"  {e['job'][:16]}  {bench:<14} span={span}  "
                    f"worker={jf.stem}"
                )
        else:
            print(f"  worker {jf.stem}: {len(entries)} completed")
    if filtering:
        print(f"  {shown}/{scanned} journaled job(s) matched")
    quarantined = list((run_dir / "quarantine").glob("*.json")) if (
        run_dir / "quarantine"
    ).is_dir() else []
    leases = [
        p for p in (run_dir / "leases").glob("*")
        if p.is_file() and not p.name.endswith(".tmp")
    ] if (run_dir / "leases").is_dir() else []
    print(
        f"  completed {len(resolved)}/{total}, "
        f"quarantined {len(quarantined)}, live leases {len(leases)}"
    )
    if len(resolved) < total:
        print(f"  finish with: repro <command> ... --join {args.run_id}")
    show_flight_dumps(run_dir / "flightrec")
    return 0


def cmd_journal_gc(args: argparse.Namespace) -> int:
    from repro.resilience import gc_runs

    summary = gc_runs(
        args.journal_dir,
        older_than_days=args.older_than,
        dry_run=args.dry_run,
    )
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"{verb} {len(summary['removed'])} run(s), kept {summary['kept']}"
    )
    for entry in summary["removed"]:
        print(f"  {entry['run_id']} ({entry['kind']})")
    if not args.dry_run:
        print(
            f"swept {summary['stale_leases_evicted']} stale lease(s), "
            f"{summary['steal_remnants_removed']} steal remnant(s), "
            f"{summary['tmp_files_removed']} tmp file(s), "
            f"{summary['flight_dump_dirs_removed']} flight-dump dir(s)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="CUDAMicroBench reproduction: simulated GPU microbenchmarks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_backend_flag(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--backend",
            choices=("reference", "fast", "jit"),
            help="memory-analysis execution backend (default: reference, "
            "or the REPRO_BACKEND environment variable)",
        )

    def add_sched_flags(sp: argparse.ArgumentParser) -> None:
        from repro.sched import DEFAULT_CACHE_DIR

        sp.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes for the sweep scheduler (default 1 = serial)",
        )
        sp.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the content-addressed result cache",
        )
        sp.add_argument(
            "--cache-dir",
            default=DEFAULT_CACHE_DIR,
            help=f"result-cache directory (default {DEFAULT_CACHE_DIR})",
        )
        sp.add_argument(
            "--stats", help="write scheduler/cache statistics JSON here"
        )

    def add_resilience_flags(sp: argparse.ArgumentParser) -> None:
        from repro.resilience import DEFAULT_JOURNAL_DIR

        sp.add_argument(
            "--max-retries", type=int, default=None, metavar="N",
            help="retries per failing job before it is quarantined "
            "(default 2)",
        )
        sp.add_argument(
            "--job-timeout", type=float, default=None, metavar="SECONDS",
            help="wall-clock budget per job; a job past it is killed and "
            "retried",
        )
        sp.add_argument(
            "--resume", metavar="RUN_ID",
            help="resume an interrupted run from its journal, skipping "
            "already-completed jobs",
        )
        sp.add_argument(
            "--run-id", metavar="RUN_ID",
            help="journal id for this run (default: random)",
        )
        sp.add_argument(
            "--journal-dir", default=DEFAULT_JOURNAL_DIR,
            help=f"run-journal directory (default {DEFAULT_JOURNAL_DIR})",
        )
        sp.add_argument(
            "--no-journal", action="store_true",
            help="disable checkpointing (an interrupted run saves nothing)",
        )
        sp.add_argument(
            "--chaos", metavar="SPEC",
            help="deterministic scheduler fault injection, e.g. "
            "'seed=7,crash=0.4,hang=0.2,payload=0.3,max-fault-attempts=2'",
        )

    def add_fleet_flags(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--fleet", type=int, default=None, metavar="N",
            help="run via the work-stealing fleet: spawn N worker "
            "processes cooperating through a shared journal directory",
        )
        sp.add_argument(
            "--join", default=None, metavar="RUN_ID",
            help="become one worker of an existing fleet run (started "
            "elsewhere with --fleet or another --join) and merge when "
            "the run completes",
        )
        sp.add_argument(
            "--worker-id", default=None, metavar="ID",
            help="stable worker identity for fleet journals and leases "
            "(default: derived from pid)",
        )
        sp.add_argument(
            "--lease-ttl", type=float, default=None, metavar="SECONDS",
            help="missed-heartbeat window before another worker may "
            "steal a job lease (default 5)",
        )
        sp.add_argument(
            "--heartbeat", type=float, default=None, metavar="SECONDS",
            help="lease heartbeat interval (default: lease TTL / 3)",
        )

    def add_obs_flags(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--metrics", metavar="PATH",
            help="write a Prometheus text-format metrics sidecar here "
            "when the run finishes",
        )
        sp.add_argument(
            "--metrics-port", type=int, default=None, metavar="PORT",
            help="serve GET /metrics live during the run on this port "
            "(0 = ephemeral; the resolved URL is printed on stderr)",
        )

    sub.add_parser("list", help="list the fourteen microbenchmarks").set_defaults(
        fn=cmd_list
    )
    table1_p = sub.add_parser("table1", help="run the full suite and print Table I")
    table1_p.add_argument("--out", help="write the Table I result document here")
    table1_p.add_argument(
        "--trace",
        help="write a Chrome trace stitched from the run journal here "
        "(journaled and fleet runs)",
    )
    add_backend_flag(table1_p)
    add_sched_flags(table1_p)
    add_resilience_flags(table1_p)
    add_fleet_flags(table1_p)
    add_obs_flags(table1_p)
    table1_p.set_defaults(fn=cmd_table1)
    sub.add_parser("specs", help="show the preset GPU architectures").set_defaults(
        fn=cmd_specs
    )

    def add_export_flags(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--trace", help="write a Chrome trace-event JSON here")
        sp.add_argument("--json", help="write the metrics document here")
        sp.add_argument("--ndjson", help="write an NDJSON activity log here")

    run_p = sub.add_parser("run", help="run one microbenchmark")
    run_p.add_argument("benchmark", help="Table I name, e.g. CoMem")
    run_p.add_argument("--system", help="carina | fornax | rtx3080")
    run_p.add_argument(
        "-p", "--param", action="append", default=[], help="key=value run parameter"
    )
    add_backend_flag(run_p)
    add_export_flags(run_p)
    add_resilience_flags(run_p)
    run_p.set_defaults(fn=cmd_run)

    sweep_p = sub.add_parser("sweep", help="regenerate a benchmark's figure sweep")
    sweep_p.add_argument("benchmark")
    sweep_p.add_argument("--system", help="carina | fornax | rtx3080")
    sweep_p.add_argument("--values", help="comma-separated sweep values")
    sweep_p.add_argument(
        "-p", "--param", action="append", default=[], help="key=value run parameter"
    )
    sweep_p.add_argument("--out", help="write the sweep result document here")
    add_backend_flag(sweep_p)
    add_sched_flags(sweep_p)
    add_resilience_flags(sweep_p)
    add_fleet_flags(sweep_p)
    add_export_flags(sweep_p)
    add_obs_flags(sweep_p)
    sweep_p.set_defaults(fn=cmd_sweep)

    journal_p = sub.add_parser(
        "journal", help="inspect and prune the run-journal directory"
    )
    jsub = journal_p.add_subparsers(dest="journal_command", required=True)

    def add_journal_dir(sp: argparse.ArgumentParser) -> None:
        from repro.resilience import DEFAULT_JOURNAL_DIR

        sp.add_argument(
            "--journal-dir", default=DEFAULT_JOURNAL_DIR,
            help=f"run-journal directory (default {DEFAULT_JOURNAL_DIR})",
        )

    jls_p = jsub.add_parser("ls", help="list journaled runs, newest first")
    add_journal_dir(jls_p)
    jls_p.set_defaults(fn=cmd_journal_ls)
    jshow_p = jsub.add_parser("show", help="show one run's journaled jobs")
    jshow_p.add_argument("run_id", help="run id as printed by journal ls")
    jshow_p.add_argument(
        "--trace", metavar="TRACE_ID",
        help="only show jobs whose trace id starts with this prefix",
    )
    jshow_p.add_argument(
        "--span", metavar="SPAN_ID",
        help="only show jobs whose span id starts with this prefix",
    )
    add_journal_dir(jshow_p)
    jshow_p.set_defaults(fn=cmd_journal_show)
    jgc_p = jsub.add_parser(
        "gc",
        help="prune old runs and always sweep stale fleet leases",
    )
    jgc_p.add_argument(
        "--older-than", type=float, default=None, metavar="DAYS",
        help="remove runs whose newest record is older than this many "
        "days (default: keep all runs, only sweep stale leases)",
    )
    jgc_p.add_argument(
        "--dry-run", action="store_true",
        help="report what would be removed without touching anything",
    )
    add_journal_dir(jgc_p)
    jgc_p.set_defaults(fn=cmd_journal_gc)

    from repro.sched import DEFAULT_CACHE_DIR as _DEFAULT_CACHE

    serve_p = sub.add_parser(
        "serve",
        help="run the crash-tolerant benchmark-as-a-service daemon",
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve_p.add_argument(
        "--port", type=int, default=8321,
        help="listen port; 0 = ephemeral (default 8321)",
    )
    serve_p.add_argument(
        "--data-dir", default=".repro-serve",
        help="durable queue directory: intake journal, request state, "
        "results, per-request run journals (default .repro-serve)",
    )
    serve_p.add_argument(
        "--workers", type=int, default=2,
        help="request worker threads (default 2)",
    )
    serve_p.add_argument(
        "--jobs", type=int, default=1,
        help="scheduler worker processes per request (default 1)",
    )
    serve_p.add_argument(
        "--max-queue", type=int, default=None, metavar="N",
        help="accepted-but-unclaimed bound; past it submissions get "
        "429 + Retry-After (default 64)",
    )
    serve_p.add_argument(
        "--max-per-client", type=int, default=None, metavar="N",
        help="queued+running cap per X-Client-Id (default 8)",
    )
    serve_p.add_argument(
        "--breaker-threshold", type=int, default=None, metavar="N",
        help="consecutive failures before a benchmark's circuit opens "
        "(default 3)",
    )
    serve_p.add_argument(
        "--breaker-cooldown", type=float, default=None, metavar="SECONDS",
        help="open-circuit cool-down before a half-open probe "
        "(default 30)",
    )
    serve_p.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="execution-lease staleness bound (default 30)",
    )
    serve_p.add_argument(
        "--drain-grace", type=float, default=30.0, metavar="SECONDS",
        help="how long a SIGTERM drain waits for in-flight requests "
        "before leaving them for restart recovery (default 30)",
    )
    serve_p.add_argument(
        "--no-cache", action="store_true",
        help="disable the content-addressed result cache",
    )
    serve_p.add_argument(
        "--cache-dir", default=_DEFAULT_CACHE,
        help=f"result-cache directory (default {_DEFAULT_CACHE})",
    )
    serve_p.set_defaults(fn=cmd_serve)

    cache_p = sub.add_parser(
        "cache", help="inspect and prune the result cache"
    )
    csub = cache_p.add_subparsers(dest="cache_command", required=True)
    cgc_p = csub.add_parser(
        "gc",
        help="bound the cache by age and/or total size "
        "(content-addressed entries: eviction only costs a recompute)",
    )
    cgc_p.add_argument(
        "--older-than", type=float, default=None, metavar="DAYS",
        help="remove entries not (re)stored within this many days",
    )
    cgc_p.add_argument(
        "--max-bytes", default=None, metavar="SIZE",
        help="then evict oldest-first until the total fits (bytes, or "
        "K/M/G suffixes)",
    )
    cgc_p.add_argument(
        "--dry-run", action="store_true",
        help="report what would be removed without touching anything",
    )
    cgc_p.add_argument(
        "--cache-dir", default=_DEFAULT_CACHE,
        help=f"result-cache directory (default {_DEFAULT_CACHE})",
    )
    cgc_p.set_defaults(fn=cmd_cache_gc)

    top_p = sub.add_parser(
        "top", help="live read-only view of a running fleet"
    )
    top_p.add_argument("run_id", help="fleet run id (see 'journal ls')")
    top_p.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh interval (default 2)",
    )
    top_p.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit instead of refreshing",
    )
    top_p.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="staleness threshold for worker health (default 5)",
    )
    add_journal_dir(top_p)
    top_p.set_defaults(fn=cmd_top)

    profile_p = sub.add_parser(
        "profile", help="run one microbenchmark under the profiler"
    )
    profile_p.add_argument("benchmark", help="Table I name, e.g. WarpDivRedux")
    profile_p.add_argument("--system", help="carina | fornax | rtx3080")
    profile_p.add_argument(
        "-p", "--param", action="append", default=[], help="key=value run parameter"
    )
    add_backend_flag(profile_p)
    add_export_flags(profile_p)
    profile_p.set_defaults(fn=cmd_profile)

    prof_p = sub.add_parser("prof", help="analyze saved metrics documents")
    prof_sub = prof_p.add_subparsers(dest="prof_command", required=True)
    diff_p = prof_sub.add_parser(
        "diff", help="compare two metrics JSONs; exit 1 on regression"
    )
    diff_p.add_argument("before", help="baseline metrics JSON")
    diff_p.add_argument("after", help="candidate metrics JSON")
    diff_p.add_argument(
        "--time-tolerance",
        type=float,
        default=0.10,
        help="relative time-growth threshold (default 0.10 = +10%%)",
    )
    diff_p.add_argument(
        "--metric-tolerance",
        type=float,
        default=0.05,
        help="absolute efficiency-drop threshold (default 0.05)",
    )
    diff_p.add_argument(
        "--claims",
        help="claim file or directory; claims failing on the after "
        "document count as regressions",
    )
    diff_p.add_argument(
        "--allow-backend-mismatch",
        action="store_true",
        help="diff documents produced by different execution backends "
        "anyway (refused by default: a backend change is not a "
        "performance delta)",
    )
    diff_p.set_defaults(fn=cmd_prof_diff)
    roof_p = prof_sub.add_parser(
        "roofline", help="print the roofline table of a metrics JSON"
    )
    roof_p.add_argument("metrics", help="metrics JSON from `repro profile`")
    roof_p.set_defaults(fn=cmd_prof_roofline)

    check_p = sub.add_parser(
        "check",
        help="verify the paper's claims: Table I ranges, figure trends, "
        "metric invariants, metamorphic relations",
    )
    check_p.add_argument(
        "benchmarks",
        nargs="*",
        help="Table I names to check (default: none; use --all)",
    )
    check_p.add_argument(
        "--all", action="store_true", help="check every benchmark with a claim file"
    )
    check_p.add_argument(
        "--backend",
        choices=("reference", "fast", "jit", "both", "all"),
        help="execution backend(s) to check under: one name, 'both' "
        "(reference+fast, the default), or 'all' (all three)",
    )
    check_p.add_argument(
        "--quick",
        action="store_true",
        help="skip claims tagged slow = true in their claim file",
    )
    check_p.add_argument(
        "--claims-dir",
        help="claim-file directory (default benchmarks/claims)",
    )
    check_p.add_argument(
        "--doc",
        action="append",
        default=[],
        help="audit a saved metrics/results JSON instead of running live "
        "(repeatable)",
    )
    check_p.add_argument(
        "--no-relations",
        action="store_true",
        help="skip the metamorphic-relation runner",
    )
    check_p.add_argument("--system", help="carina | fornax | rtx3080")
    check_p.add_argument("--json", help="write the conformance report JSON here")
    add_resilience_flags(check_p)
    check_p.set_defaults(fn=cmd_check)

    doc_p = sub.add_parser(
        "doctor", help="diagnose a benchmark's kernels for performance bugs"
    )
    doc_p.add_argument("benchmark", help="Table I name, e.g. CoMem")
    doc_p.add_argument("--system", help="carina | fornax | rtx3080")
    doc_p.add_argument(
        "-p", "--param", action="append", default=[], help="key=value run parameter"
    )
    doc_p.set_defaults(fn=cmd_doctor)

    san_p = sub.add_parser(
        "sanitize",
        help="run under the compute-sanitizer analog, with optional fault injection",
    )
    san_p.add_argument(
        "target", help="benchmark (e.g. MemAlign) or demo (e.g. oob-write)"
    )
    san_p.add_argument(
        "--tool",
        default="all",
        choices=("all", "memcheck", "racecheck", "synccheck", "leakcheck"),
        help="sanitizer tool to enable (default: all)",
    )
    san_p.add_argument("--system", help="carina | fornax | rtx3080")
    san_p.add_argument(
        "--fault-seed", type=int, default=None, help="seed for the fault plan"
    )
    san_p.add_argument("--h2d-fail-prob", type=float, default=0.0)
    san_p.add_argument("--d2h-fail-prob", type=float, default=0.0)
    san_p.add_argument("--corrupt-prob", type=float, default=0.0)
    san_p.add_argument(
        "--abort-at", type=int, default=None, help="0-based launch ordinal to abort"
    )
    san_p.add_argument(
        "--alloc-fail-after", type=int, default=None, help="allocation byte budget"
    )
    san_p.add_argument(
        "--max-transfer-failures",
        type=int,
        default=None,
        help="cap on injected transfer failures (1 = fail once, then recover)",
    )
    san_p.add_argument(
        "--stall-every", type=int, default=None, help="stall every N-th stream op"
    )
    san_p.add_argument(
        "--watchdog", type=float, default=None, help="issue-cycle budget per kernel"
    )
    san_p.add_argument(
        "-p", "--param", action="append", default=[], help="key=value run parameter"
    )
    san_p.set_defaults(fn=cmd_sanitize)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
