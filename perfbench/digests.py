"""Compute the seed-0 result digests every workload is gated on.

    python3 perfbench/digests.py [--backend jit|reference] [--write]

Runs every workload's jobs once at seed 0 with empty caches on the
given backend and compares each result digest with ``digests.json``.  Results
do not depend on the backend, so the committed digests must match on
``reference`` as well as on ``jit``.  ``--write`` records them instead,
after a change that is meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import DIGESTS, WORK, run_pass
from workloads import WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--backend", default="jit")
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    WORK.mkdir(exist_ok=True)
    digests: dict[str, str] = {}
    for workload in WORKLOADS:
        pass_dir = Path(tempfile.mkdtemp(prefix="digests-", dir=WORK))
        try:
            record = run_pass(workload, 0, False, pass_dir, args.backend)
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        if record["errors"]:
            print(json.dumps(record["errors"], indent=2), file=sys.stderr)
            return 1
        digests.update(record["digests"])
    if args.write:
        DIGESTS.write_text(json.dumps({"digests": digests}, indent=2) + "\n")
        return 0
    committed = json.loads(DIGESTS.read_text())["digests"]
    bad = sorted(n for n in committed if committed[n] != digests.get(n))
    for name in bad:
        print(f"{name}: {digests.get(name)} != committed {committed[name]}")
    print(f"{len(committed) - len(bad)}/{len(committed)} digests match "
          f"on {args.backend}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
