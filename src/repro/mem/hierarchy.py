"""Memory-hierarchy traffic resolution.

Takes the :class:`~repro.mem.trace.AccessTrace` recorded during a kernel
launch and resolves it against a :class:`~repro.arch.spec.GPUSpec` into
level-by-level traffic: L1 transactions and hits, L2 sector accesses and
hits, and finally DRAM bytes.  The result feeds the roofline timing
model.

Modelling choices (see DESIGN.md §5):

* **L1** is simulated per *window warp*: each warp's program-order line
  stream runs through an LRU cache sized to the warp's fair share of
  the SM's L1 (``l1_size / resident_warps_per_sm``).  Global *stores*
  bypass L1 (NVIDIA L1s are write-through, no-allocate); on
  architectures with ``global_loads_cached_in_l1=False`` (Kepler) loads
  bypass it too, and only the texture path is cached on-SM.
* **L2** is simulated over the interleaved stream of window-warp
  sectors that missed (or bypassed) L1, through an LRU scaled by the
  window fraction so footprint/capacity ratios are preserved.
* **DRAM** traffic is the L2 miss sectors, rescaled from the window to
  the whole grid using each record's exact grid-total sector count.
* **Constant memory** is not resolved here: its cost is serialization
  at issue time and its footprint is assumed resident in the 64 KiB
  constant cache after first touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.spec import GPUSpec
from repro.mem.cache import LRUCache
from repro.mem.trace import AccessTrace

__all__ = ["TrafficReport", "resolve_traffic"]


@dataclass
class TrafficReport:
    """Level-by-level memory traffic for one kernel launch."""

    bytes_requested: float = 0.0   #: useful bytes (active lanes x itemsize)
    transactions: float = 0.0      #: L1-segment transactions, grid total

    l1_lookups: float = 0.0        #: line lookups that went through L1
    l1_hits: float = 0.0

    l2_sectors: float = 0.0        #: sector requests arriving at L2
    l2_hits: float = 0.0

    dram_sectors: float = 0.0
    dram_read_bytes: float = 0.0
    dram_write_bytes: float = 0.0
    #: DRAM read bytes that travelled the uncached (L1-bypass) path —
    #: the timing model derates their bandwidth on Kepler-class parts.
    dram_uncached_read_bytes: float = 0.0

    tex_lookups: float = 0.0
    tex_hits: float = 0.0

    #: issue-weighted average load-to-use latency in cycles
    avg_load_latency_cycles: float = 0.0

    per_space: dict[str, float] = field(default_factory=dict)

    @property
    def dram_bytes(self) -> float:
        return self.dram_read_bytes + self.dram_write_bytes

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_hits / self.l1_lookups if self.l1_lookups else 0.0

    @property
    def l2_hit_rate(self) -> float:
        return self.l2_hits / self.l2_sectors if self.l2_sectors else 0.0

    def as_dict(self) -> dict[str, float | dict[str, float]]:
        """JSON-ready projection for metrics documents."""
        return {
            "bytes_requested": self.bytes_requested,
            "transactions": self.transactions,
            "l1_lookups": self.l1_lookups,
            "l1_hits": self.l1_hits,
            "l1_hit_rate": self.l1_hit_rate,
            "l2_sectors": self.l2_sectors,
            "l2_hits": self.l2_hits,
            "l2_hit_rate": self.l2_hit_rate,
            "dram_sectors": self.dram_sectors,
            "dram_read_bytes": self.dram_read_bytes,
            "dram_write_bytes": self.dram_write_bytes,
            "dram_bytes": self.dram_bytes,
            "dram_uncached_read_bytes": self.dram_uncached_read_bytes,
            "tex_lookups": self.tex_lookups,
            "tex_hits": self.tex_hits,
            "avg_load_latency_cycles": self.avg_load_latency_cycles,
            "per_space_bytes": dict(self.per_space),
        }


_NO_LANE = np.iinfo(np.int64).max  #: sorts after every real sector id


def _warp_sectors(
    addrs: np.ndarray, mask: np.ndarray, itemsize: int, sector_bytes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each window warp's distinct sectors, ascending, flattened warp-major.

    Returns ``(warp, sector)`` arrays, one entry per distinct pair.  Each
    active lane contributes the first and last sector of its element.
    """
    both = np.concatenate(
        [addrs // sector_bytes, (addrs + itemsize - 1) // sector_bytes], axis=1
    )
    both = np.where(np.concatenate([mask, mask], axis=1), both, _NO_LANE)
    both.sort(axis=1)
    keep = both != _NO_LANE
    keep[:, 1:] &= both[:, 1:] != both[:, :-1]
    warp, _ = np.nonzero(keep)
    return warp, both[keep]


def _count_by_record(rec_ids: np.ndarray, where: np.ndarray, n_rec: int) -> list[int]:
    return np.bincount(rec_ids[where], minlength=n_rec).tolist()


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def resolve_traffic(
    trace: AccessTrace,
    gpu: GPUSpec,
    *,
    resident_warps_per_sm: int,
) -> TrafficReport:
    """Resolve an access trace into per-level traffic.

    Parameters
    ----------
    trace:
        Program-ordered records from one kernel launch.
    gpu:
        Architecture to resolve against (cache sizes, bypass flags).
    resident_warps_per_sm:
        From the occupancy calculation; sets each warp's fair share of
        the L1 and texture caches.

    The whole trace is resolved in two cache batches: first every
    record's per-warp line stream through the on-SM caches, then the
    concatenated L1-miss sector stream through the L2.  That order is
    exact because no L1 outcome depends on the L2, and each batch keeps
    program order within every cache set.
    """
    report = TrafficReport()
    if not trace.records:
        return report

    line_bytes = gpu.transaction_bytes
    sector_bytes = gpu.sector_bytes
    sectors_per_line = line_bytes // sector_bytes
    rw = max(int(resident_warps_per_sm), 1)

    nw = trace.window_warps
    l1_share = max(gpu.l1_size // line_bytes // rw, 1)
    tex_share = max(gpu.texture_cache_size // line_bytes // rw, 1)
    # One on-SM cache per window warp; dedicated texture caches follow
    # at offset nw, otherwise texture shares the L1 model.
    on_sm = LRUCache(
        [l1_share] * nw + ([tex_share] * nw if gpu.texture_cache_dedicated else []),
        ways=4,
    )

    # The window competes for L2 with the other *co-resident* warps, not
    # with the whole grid: warps scheduled long after the window's have
    # already evicted each other's lines, so scaling by grid size would
    # starve the window below a single access's footprint on large
    # launches.  Scale capacity by window / resident warps instead.
    resident_total = gpu.sm_count * rw
    effective_warps = max(min(trace.n_grid_warps, resident_total), trace.window_warps)
    frac = trace.window_warps / effective_warps
    l2_capacity = max(int(gpu.l2_size / sector_bytes * frac), 8)
    l2 = LRUCache(l2_capacity, ways=16)

    # --- on-SM cache stage: every record's window-warp line streams ------
    records = trace.records
    n_rec = len(records)
    no_entries = np.empty(0, dtype=np.int64)
    cached = [False] * n_rec
    sectors = [no_entries] * n_rec      # distinct (warp, sector)s
    sector_line = [no_entries] * n_rec  # each sector's L1 access
    window_lines = [0] * n_rec
    l1_lines: list[np.ndarray] = []
    l1_caches: list[np.ndarray] = []
    n_l1 = 0
    for i, rec in enumerate(records):
        if rec.space == "constant":
            continue
        warp, sec = _warp_sectors(
            rec.window_addrs, rec.window_mask, rec.itemsize, sector_bytes
        )
        sectors[i] = sec
        if rec.space == "texture":
            cached[i] = True
            offset = nw if gpu.texture_cache_dedicated else 0
        else:
            cached[i] = gpu.global_loads_cached_in_l1 and not rec.is_store
            offset = 0
        if not cached[i]:
            continue
        # A warp's lines are exactly its sectors' lines, so each sector's
        # L1 outcome is its line's: look it up, no set test needed.
        line = sec // sectors_per_line
        new_line = np.ones(sec.size, dtype=bool)
        new_line[1:] = (warp[1:] != warp[:-1]) | (line[1:] != line[:-1])
        sector_line[i] = n_l1 + np.cumsum(new_line) - 1
        l1_lines.append(line[new_line])
        l1_caches.append(warp[new_line] + offset)
        window_lines[i] = l1_lines[-1].size
        n_l1 += window_lines[i]
    l1_hit, _ = on_sm.access_batch(_concat(l1_lines), caches=_concat(l1_caches))
    l1_rec = np.repeat(np.arange(n_rec), window_lines)
    window_l1_hits = _count_by_record(l1_rec, l1_hit, n_rec)

    # --- L2 stage: the whole trace's L1-miss sector stream ---------------
    l2_parts = [
        sec[~l1_hit[line_of]] if on else sec
        for sec, line_of, on in zip(sectors, sector_line, cached)
    ]
    l2_acc = [p.size for p in l2_parts]
    l2_rec = np.repeat(np.arange(n_rec), l2_acc)
    l2_hit, l2_dirtied = l2.access_batch(
        _concat(l2_parts),
        writes=np.array([r.is_store for r in records], dtype=bool)[l2_rec],
    )
    l2_hits = _count_by_record(l2_rec, l2_hit, n_rec)
    l2_dirt = _count_by_record(l2_rec, l2_dirtied, n_rec)

    # --- per-record accumulation, in program order -----------------------
    lat_weight = 0.0
    lat_cycles = 0.0

    for i, rec in enumerate(records):
        if rec.space == "constant":
            # Constant traffic is modelled at issue time; assume the
            # (small) constant bank is cache-resident after first touch.
            report.per_space["constant"] = report.per_space.get(
                "constant", 0.0
            ) + rec.summary.bytes_requested
            continue

        report.bytes_requested += rec.summary.bytes_requested
        report.transactions += rec.summary.transactions
        report.per_space[rec.space] = (
            report.per_space.get(rec.space, 0.0) + rec.summary.bytes_requested
        )
        cached_on_sm = cached[i]
        w_lines = window_lines[i]
        w_l1_hits = window_l1_hits[i]

        # Rescale window observations to grid totals using the exact
        # grid-total sector count from the coalescing summary.
        window_sector_total = sectors[i].size
        scale = (
            rec.summary.sectors / window_sector_total
            if window_sector_total
            else 0.0
        )

        if cached_on_sm and w_lines:
            grid_lines = rec.summary.transactions  # line lookups ~ transactions
            hit_frac = w_l1_hits / w_lines
            if rec.space == "texture" and gpu.texture_cache_dedicated:
                report.tex_lookups += grid_lines
                report.tex_hits += grid_lines * hit_frac
            else:
                report.l1_lookups += grid_lines
                report.l1_hits += grid_lines * hit_frac

        w_l2_acc = l2_acc[i]
        w_l2_hit = l2_hits[i]
        w_dirtied = l2_dirt[i]
        grid_l2 = w_l2_acc * scale
        grid_l2_hits = w_l2_hit * scale

        report.l2_sectors += grid_l2
        report.l2_hits += grid_l2_hits
        # Scattered sectors waste DRAM burst granularity (64B min burst).
        burst = rec.summary.dram_burst_factor
        if rec.is_store:
            # Stores don't read DRAM (sector writes need no fill); every
            # newly-dirtied sector is one eventual write-back.
            grid_dirtied = w_dirtied * scale
            report.dram_sectors += grid_dirtied
            report.dram_write_bytes += grid_dirtied * sector_bytes * burst
        else:
            grid_dram = (w_l2_acc - w_l2_hit) * scale
            report.dram_sectors += grid_dram
            dram_bytes = grid_dram * sector_bytes * burst
            report.dram_read_bytes += dram_bytes
            if not cached_on_sm:
                report.dram_uncached_read_bytes += dram_bytes

        # --- latency mix -------------------------------------------------
        if not rec.is_store and rec.summary.n_warps:
            n = rec.summary.n_warps
            l1_frac = (
                w_l1_hits / w_lines if cached_on_sm and w_lines else 0.0
            )
            l2_frac = (1.0 - l1_frac) * (w_l2_hit / w_l2_acc if w_l2_acc else 0.0)
            dram_frac = max(1.0 - l1_frac - l2_frac, 0.0)
            lat = (
                l1_frac * gpu.shared_latency_cycles
                + l2_frac * gpu.l2_latency_cycles
                + dram_frac * gpu.dram_latency_cycles
            )
            lat_cycles += lat * n
            lat_weight += n

    report.avg_load_latency_cycles = (
        lat_cycles / lat_weight if lat_weight else float(gpu.l2_latency_cycles)
    )
    return report
