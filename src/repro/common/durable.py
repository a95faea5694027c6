"""Crash-safe files: atomic publishes and append-only NDJSON logs.

Every file the program keeps across a crash goes through this module.
A whole document (cache entry, state file, lease, manifest, flight
dump) is published by :func:`atomic_write`; a log (run journal, serve
intake, fleet event and activity logs) is kept by :func:`open_log`,
:func:`append_record` and :func:`read_records`.  Every publish and
every log creation is followed by an fsync of the directory, so what
returned survives power loss, not only ``kill -9``.  A crash before a
publish leaves only a hidden ``.<name>.<rand>.tmp`` file, which
``cache gc``, ``journal gc`` and lease sweeps remove.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import IO, Any

__all__ = ["atomic_write", "open_log", "append_record", "read_records"]


def _fsync_dir(path: Path) -> None:
    """Make a rename or create inside ``path`` itself durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(
    path: str | Path, data: str | bytes, *, exclusive: bool = False
) -> bool:
    """Publish ``data`` as the whole content of ``path``.

    By default the publish is an ``os.replace``, so the last writer
    wins.  With ``exclusive`` it is a hard link, which fails when
    ``path`` already exists: the first writer wins and every later one
    gets ``False``.  The temp file is removed whatever happens.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:8]}.tmp")
    replaced = False
    try:
        with open(tmp, "xb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
            fh.flush()
            os.fsync(fh.fileno())
        if exclusive:
            try:
                os.link(tmp, path)
            except FileExistsError:
                return False
        else:
            os.replace(tmp, path)
            replaced = True
    finally:
        if not replaced:
            try:
                os.unlink(tmp)
            except OSError:
                pass
    _fsync_dir(path.parent)
    return True


def open_log(path: str | Path) -> IO[str]:
    """Open an NDJSON log for appending, creating it if needed.

    A torn final line is ended with a newline first; the remnant stays
    and :func:`read_records` skips it.  Creating the file fsyncs its
    directory, so the log's existence is as durable as its records.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(path, "r+b") as fh:
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
        created = False
    except FileNotFoundError:
        created = True
    log = open(path, "a", encoding="utf-8")
    if created:
        _fsync_dir(path.parent)
    return log


def append_record(fh: IO[str], *objs: Any) -> None:
    """Append one compact-JSON line per object, then flush and fsync
    once: the records are on disk when this returns."""
    for obj in objs:
        fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
    fh.flush()
    os.fsync(fh.fileno())


def read_records(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """``(records, skipped)`` of an NDJSON log; a missing file is empty.

    Records are the lines that parse as JSON objects, in file order.
    Blank lines are ignored; any other line — a torn tail, garbage —
    is skipped and counted, so later complete records still count.
    """
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return [], 0
    records: list[dict[str, Any]] = []
    skipped = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            obj = None
        if isinstance(obj, dict):
            records.append(obj)
        else:
            skipped += 1
    return records, skipped
