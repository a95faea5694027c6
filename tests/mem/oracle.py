"""Pre-vectorisation cache-hierarchy model, kept as a test oracle.

``OracleLRU`` is the per-line ``OrderedDict`` LRU and
``oracle_resolve_traffic`` the per-record resolver that drove one
``OracleLRU`` per window warp plus one for the L2.  The array LRU in
:mod:`repro.mem.cache` and :func:`repro.mem.hierarchy.resolve_traffic`
must agree with them exactly: same hits, misses, evictions and dirtied
lines, and the same ``TrafficReport`` down to the last bit.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable

import numpy as np

from repro.arch.spec import GPUSpec
from repro.mem.hierarchy import TrafficReport
from repro.mem.trace import AccessTrace

_MASK64 = (1 << 64) - 1


def _mix(line_id: int) -> int:
    """Cheap deterministic integer hash (splitmix64 finalizer).

    Real L2 slices hash the address bits into the set index so regular
    power-of-two strides do not collapse onto a few sets; plain modulo
    indexing would make the model thrash where hardware does not.
    """
    z = (line_id * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class OracleLRU:
    """A set-associative cache over abstract line identifiers.

    Parameters
    ----------
    capacity_lines:
        Total number of lines the cache can hold.  A capacity of zero
        degenerates to a cache that always misses.
    ways:
        Associativity.  The set count is ``max(capacity_lines // ways, 1)``
        (fully associative when ``capacity_lines <= ways``).
    """

    def __init__(self, capacity_lines: int, ways: int = 8) -> None:
        if capacity_lines < 0:
            raise ValueError("capacity_lines must be non-negative")
        if ways <= 0:
            raise ValueError("ways must be positive")
        self.capacity_lines = int(capacity_lines)
        if self.capacity_lines == 0:
            self.n_sets = 0
            self.ways = 0
            self._sets: list[OrderedDict[int, None]] = []
        else:
            self.ways = min(ways, self.capacity_lines)
            self.n_sets = max(self.capacity_lines // self.ways, 1)
            self._sets = [OrderedDict() for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: clean->dirty transitions: each implies one eventual write-back
        self.lines_dirtied = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.lines_dirtied = 0

    def access(self, line_id: int, *, write: bool = False) -> bool:
        """Touch one line; returns True on hit.

        ``write`` marks the line dirty; the ``lines_dirtied`` counter
        counts clean->dirty transitions, each of which corresponds to
        one eventual write-back to the next level.
        """
        if self.capacity_lines == 0:
            self.misses += 1
            if write:
                self.lines_dirtied += 1
            return False
        s = self._sets[_mix(line_id) % self.n_sets]
        if line_id in s:
            s.move_to_end(line_id)
            self.hits += 1
            if write and not s[line_id]:
                s[line_id] = True
                self.lines_dirtied += 1
            return True
        self.misses += 1
        if len(s) >= self.ways:
            s.popitem(last=False)
            self.evictions += 1
        s[line_id] = bool(write)
        if write:
            self.lines_dirtied += 1
        return False

    def access_many(
        self, line_ids: Iterable[int] | np.ndarray, *, write: bool = False
    ) -> int:
        """Touch a sequence of lines in order; returns the hit count."""
        before = self.hits
        if isinstance(line_ids, np.ndarray):
            line_ids = line_ids.tolist()
        for lid in line_ids:
            self.access(int(lid), write=write)
        return self.hits - before

    def snapshot(self) -> dict[str, float]:
        """Counter rollup for observability exports."""
        return {
            "capacity_lines": self.capacity_lines,
            "ways": self.ways,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "lines_dirtied": self.lines_dirtied,
            "hit_rate": self.hit_rate,
            "resident_lines": len(self),
        }

    def contains(self, line_id: int) -> bool:
        """Non-mutating presence test (no LRU update, no counters)."""
        if self.capacity_lines == 0:
            return False
        return line_id in self._sets[_mix(line_id) % self.n_sets]

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)


def _warp_line_lists(
    addrs: np.ndarray, mask: np.ndarray, itemsize: int, line_bytes: int
) -> list[np.ndarray]:
    """Per window warp, the distinct line ids it touches (sorted)."""
    out: list[np.ndarray] = []
    for row_a, row_m in zip(addrs, mask):
        if not row_m.any():
            out.append(np.empty(0, dtype=np.int64))
            continue
        a = row_a[row_m]
        first = a // line_bytes
        last = (a + itemsize - 1) // line_bytes
        out.append(np.unique(np.concatenate([first, last])))
    return out


def _warp_sector_lists(
    addrs: np.ndarray, mask: np.ndarray, itemsize: int, sector_bytes: int
) -> list[np.ndarray]:
    return _warp_line_lists(addrs, mask, itemsize, sector_bytes)


def oracle_resolve_traffic(
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
    """
    report = TrafficReport()
    if not trace.records:
        return report

    line_bytes = gpu.transaction_bytes
    sector_bytes = gpu.sector_bytes
    rw = max(int(resident_warps_per_sm), 1)

    nw = trace.window_warps
    l1_share = max(gpu.l1_size // line_bytes // rw, 1)
    tex_share = max(gpu.texture_cache_size // line_bytes // rw, 1)
    l1_caches = [OracleLRU(l1_share, ways=4) for _ in range(nw)]
    tex_caches = (
        [OracleLRU(tex_share, ways=4) for _ in range(nw)]
        if gpu.texture_cache_dedicated
        else l1_caches  # unified path: texture shares the L1 model
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
    l2 = OracleLRU(l2_capacity, ways=16)

    lat_weight = 0.0
    lat_cycles = 0.0

    for rec in trace.records:
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

        if rec.space == "texture":
            cached_on_sm = True
            caches = tex_caches
        else:
            cached_on_sm = gpu.global_loads_cached_in_l1 and not rec.is_store
            caches = l1_caches

        warp_lines = _warp_line_lists(
            rec.window_addrs, rec.window_mask, rec.itemsize, line_bytes
        )
        warp_sectors = _warp_sector_lists(
            rec.window_addrs, rec.window_mask, rec.itemsize, sector_bytes
        )

        # --- on-SM cache stage ----------------------------------------
        window_l2_sectors: list[np.ndarray] = []
        window_lines = 0
        window_l1_hits = 0
        for w, (lines, sectors) in enumerate(zip(warp_lines, warp_sectors)):
            if lines.size == 0:
                continue
            window_lines += lines.size
            if not cached_on_sm:
                window_l2_sectors.append(sectors)
                continue
            cache = caches[w]
            missed_lines = [lid for lid in lines.tolist() if not cache.access(lid)]
            window_l1_hits += lines.size - len(missed_lines)
            if missed_lines:
                miss_set = np.asarray(missed_lines, dtype=np.int64)
                sec_lines = sectors // (line_bytes // sector_bytes)
                window_l2_sectors.append(sectors[np.isin(sec_lines, miss_set)])

        # Rescale window observations to grid totals using the exact
        # grid-total sector count from the coalescing summary.
        window_sector_total = sum(s.size for s in warp_sectors)
        scale = (
            rec.summary.sectors / window_sector_total
            if window_sector_total
            else 0.0
        )

        if cached_on_sm and window_lines:
            grid_lines = rec.summary.transactions  # line lookups ~ transactions
            hit_frac = window_l1_hits / window_lines
            if rec.space == "texture" and gpu.texture_cache_dedicated:
                report.tex_lookups += grid_lines
                report.tex_hits += grid_lines * hit_frac
            else:
                report.l1_lookups += grid_lines
                report.l1_hits += grid_lines * hit_frac

        # --- L2 stage ----------------------------------------------------
        window_l2 = (
            np.concatenate(window_l2_sectors)
            if window_l2_sectors
            else np.empty(0, dtype=np.int64)
        )
        l2_before_h, l2_before_a = l2.hits, l2.accesses
        l2_before_d = l2.lines_dirtied
        l2.access_many(window_l2, write=rec.is_store)
        w_l2_acc = l2.accesses - l2_before_a
        w_l2_hit = l2.hits - l2_before_h
        w_dirtied = l2.lines_dirtied - l2_before_d
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
                window_l1_hits / window_lines if cached_on_sm and window_lines else 0.0
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
