"""Layer-attributed host-time benchmark of the simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  It starts one fresh
Python process per *pass* (``passrun.py``), one at a time, each with
private result-cache and JIT-store directories under
``.perfbench-work/`` so nothing is shared with ``./.repro-cache`` or
with another run.  A run is:

1. a *fill* pass, cold and traced: it counts the simulated warp
   instructions and, for the warm workload, leaves the JIT store that
   every measured pass starts from (built by the code under test, so
   never carried across commits);
2. measured passes while another one still fits in ``--seconds``
   (counted from the start of the fill pass), and at least
   ``MIN_PASSES`` of each kind.  With ``--trace 1`` untraced and
   traced passes alternate, so the tracing overhead is measured too.

Every job's result is checked: it must be verified, identical in every
pass, and at seed 0 equal to the digest committed in ``digests.json``.
The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
(medians over untraced passes, times scaled to a reference host speed,
see reference.py) with ``--trace 0``, the per-layer ones with
``--trace 1``.  The exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable

from layers import CALL_METRICS, SELF_TIME_METRICS
from reference import REF_S
from workloads import JOBS, WORKLOADS, Workload, job_params

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
DIGESTS = HERE / "digests.json"

MIN_PASSES = 3
PASS_TIMEOUT_S = 60

#: per-layer counts that must repeat exactly from one traced pass to the next
EXACT_COUNTS = CALL_METRICS + (
    "simt.warp_instr", "mem.resolve_traffic.distinct_frac",
    "jit.store.hit_frac", "jit.store.stores", "jit.store.poisoned",
    "sched.cache.hit_frac",
)


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, trace: bool, pass_dir: Path,
             backend: str = "jit") -> dict[str, Any]:
    """One pass in a fresh process; returns its JSON record."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_JIT_CACHE_DIR"] = str(pass_dir / "jit")
    cmd = [
        sys.executable, str(HERE / "passrun.py"),
        "--workload", workload, "--seed", str(seed), "--backend", backend,
        "--trace", str(int(trace)), "--cache-dir", str(pass_dir / "cache"),
        "--launched-at", repr(time.monotonic()),
    ]
    # cwd is the private pass directory, so even a default relative
    # path (.repro-cache, .repro-journal) stays inside this pass
    try:
        proc = subprocess.run(cmd, cwd=pass_dir, env=env, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass exceeded {PASS_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise PassFailed(proc.stderr.strip()[-2000:] or f"exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fresh_pass_dir(run_dir: Path, index: int, jit_from: Path | None) -> Path:
    """A private pass directory, with a copy of ``jit_from``'s JIT store."""
    pass_dir = run_dir / f"pass-{index}"
    pass_dir.mkdir()
    if jit_from is not None:
        shutil.copytree(jit_from / "jit", pass_dir / "jit")
    return pass_dir


def gate(records: list[dict[str, Any]], expected: dict[str, str] | None
         ) -> tuple[int, int, list[str]]:
    """``(attempted, failed, reasons)`` over every job of every pass.

    A job fails when it raised, was not verified, or its digest differs
    from the first pass's or, when ``expected`` is given, from the
    committed one.
    """
    first = records[0]["digests"]
    attempted = failed = 0
    reasons: list[str] = []
    for i, rec in enumerate(records):
        for name in rec["job_s"]:
            attempted += 1
            digest = rec["digests"].get(name)
            if name in rec["errors"]:
                why = rec["errors"][name]
            elif expected is not None and digest != expected.get(name):
                why = f"digest {digest} != committed {expected.get(name)}"
            elif digest != first.get(name):
                why = "digest differs from the first pass"
            else:
                continue
            failed += 1
            reasons.append(f"pass {i} {name}: {why}")
    return attempted, failed, reasons


def run_digest(record: dict[str, Any], order: list[str]) -> str:
    """One digest over every job's result digest, in job order."""
    text = "\n".join(f"{n} {record['digests'].get(n)}" for n in order)
    return hashlib.sha256(text.encode()).hexdigest()


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def end_to_end(untraced: list[dict[str, Any]], warp_instr: float
               ) -> dict[str, tuple[float, str]]:
    """Medians over the untraced passes, every time scaled by
    ``REF_S / ref_s`` to the host speed at which the reference loop
    takes ``REF_S``; see reference.py."""
    def scaled(time_s: Callable[[dict[str, Any]], float]) -> float:
        return median([time_s(r) * REF_S / r["ref_s"] for r in untraced])

    wall = scaled(lambda r: r["wall_s"])
    return {
        "wall_s": (wall, "s"),
        "setup_s": (scaled(lambda r: r["setup_s"]), "s"),
        "job_s.max": (scaled(lambda r: max(r["job_s"].values())), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in untraced]), "MB"),
        "sim_warp_instr_per_s": (warp_instr / wall, "1/s"),
    }


def host_seconds(untraced: list[dict[str, Any]]) -> dict[str, tuple[float, str]]:
    """The unscaled times, as this host ran them, and the loop's time."""
    return {
        "unscaled.wall_s": (median([r["wall_s"] for r in untraced]), "s"),
        "unscaled.setup_s": (median([r["setup_s"] for r in untraced]), "s"),
        "ref.loop_s": (median([r["ref_s"] for r in untraced]), "s"),
    }


def per_layer(untraced: list[dict[str, Any]], traced: list[dict[str, Any]]
              ) -> tuple[dict[str, tuple[float, str]], list[str]]:
    layers = [r["layers"] for r in traced]
    out = host_seconds(untraced)
    reasons = []
    for name in SELF_TIME_METRICS:
        out[name] = (median([m[name] for m in layers]), "s")
    for name in EXACT_COUNTS:
        values = {m[name] for m in layers}
        if len(values) != 1:
            reasons.append(f"{name} differs between traced passes: {sorted(values)}")
        unit = "ratio" if name.endswith("_frac") else "count"
        out[name] = (layers[0][name], unit)
    out["sched.cache.bytes_written"] = (
        median([m["sched.cache.bytes_written"] for m in layers]), "B")
    for name in JOBS:
        times = [r["job_s"].get(name, 0.0) for r in untraced]
        out[f"job.{name}.s"] = (median(times), "s")
    traced_wall = median([r["wall_s"] for r in traced])
    out["trace.coverage"] = (
        median([m["layers_s"] / r["wall_s"] for m, r in zip(layers, traced)]),
        "ratio")
    out["trace.overhead"] = (
        traced_wall / median([r["wall_s"] for r in untraced]) - 1, "ratio")
    return out, reasons


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM unwind like Ctrl-C: the running pass is killed and
    # waited for, and the run directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        return measure(args, workload, run_dir)
    except PassFailed as exc:
        print(f"perfbench: pass failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args: argparse.Namespace, workload: Workload, run_dir: Path) -> int:
    deadline = time.monotonic() + args.seconds
    fill_dir = fresh_pass_dir(run_dir, 0, None)
    fill = run_pass(args.workload, args.seed, True, fill_dir)
    warp_instr = fill["layers"]["simt.warp_instr"]
    jit_from = fill_dir if workload.warm_jit else None

    untraced: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    pass_s: list[float] = []
    index = 1
    while True:
        is_traced = bool(args.trace) and index % 2 == 0
        started = time.monotonic()
        pass_dir = fresh_pass_dir(run_dir, index, jit_from)
        rec = run_pass(args.workload, args.seed, is_traced, pass_dir)
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_s.append(time.monotonic() - started)
        (traced if is_traced else untraced).append(rec)
        index += 1
        enough = len(untraced) >= MIN_PASSES and (
            not args.trace or len(traced) >= MIN_PASSES)
        # stop before a pass that would end past the deadline, so a run
        # takes --seconds, fill pass included, not up to a pass more
        if enough and time.monotonic() + median(pass_s) > deadline:
            break

    expected = None
    if args.seed == 0:
        expected = json.loads(DIGESTS.read_text())["digests"]
    records = [fill] + untraced + traced
    attempted, failed, reasons = gate(records, expected)
    if args.trace:
        metrics, count_reasons = per_layer(untraced, traced)
        reasons += count_reasons
        shown = metrics
    else:
        metrics = end_to_end(untraced, warp_instr)
        shown = {**metrics, **host_seconds(untraced)}

    params = dict(job_params(args.workload, args.seed))
    env = {
        "record": "perfbench/1",
        "workload": args.workload,
        "seed": args.seed,
        "backend": "jit",
        "python": fill["python"],
        "numpy": fill["numpy"],
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_sha256(),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "jobs": params,
        "digest": run_digest(fill, list(params)),
    }
    print(json.dumps(env))
    for reason in reasons:
        print(f"FAIL {reason}")
    for name, (value, unit) in shown.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'fail_frac':40s} {failed / attempted:.6g} ratio")
    print(json.dumps({
        "correct": not reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if not reasons else 1


if __name__ == "__main__":
    sys.exit(main())
