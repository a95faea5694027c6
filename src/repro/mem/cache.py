"""Set-associative LRU cache model over array state.

The memory hierarchy uses this model in two roles:

* a *representative-warp* L1 simulation — each sampled warp's program-
  order line stream runs through a cache scaled to that warp's fair
  share of the L1, capturing intra-warp temporal reuse (e.g. a matmul
  row line being re-read for 32 consecutive ``k`` iterations);
* a *sampled-stream* L2 simulation — the interleaved line stream of a
  contiguous warp window runs through a cache whose capacity is scaled
  by the sampling fraction, capturing cross-warp spatial sharing and
  sweep-to-sweep reuse while keeping footprint/capacity ratios intact.

The replacement policy is true LRU within each set; sets are selected
by a hash of the line index, as in real L2 slices.

One :class:`LRUCache` can hold several independent caches (a *bank*,
e.g. one L1 share per window warp).  Their sets are rows of shared
``(sets, ways)`` tag/age/dirty arrays, and :meth:`LRUCache.access_batch`
serves a whole stream of accesses in *lock-step*: accesses are bucketed
by set and ranked by their order within the set, and step ``k`` serves
the ``k``-th access of every set in one round of array operations.
That is exact LRU: sets never interact, and within a set the accesses
are served in stream order.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

__all__ = ["LRUCache", "simulate_stream"]

#: age of a way beyond its set's associativity: never the LRU victim
_NO_WAY = np.iinfo(np.int64).max


def _mix(line_ids: np.ndarray) -> np.ndarray:
    """Cheap deterministic integer hash (splitmix64 finalizer), vectorised.

    Real L2 slices hash the address bits into the set index so regular
    power-of-two strides do not collapse onto a few sets; plain modulo
    indexing would make the model thrash where hardware does not.
    ``uint64`` arithmetic wraps modulo 2**64, as the scalar definition
    masks it; negative ids hash as their two's complement.
    """
    z = np.asarray(line_ids, dtype=np.int64).astype(np.uint64)
    z = z * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class LRUCache:
    """Set-associative LRU caches over abstract line identifiers.

    Parameters
    ----------
    capacity_lines:
        Total number of lines the cache can hold.  A capacity of zero
        degenerates to a cache that always misses.  A sequence makes a
        bank of independent caches, one per entry, addressed by index
        in :meth:`access_batch`; the counters then sum over the bank.
    ways:
        Associativity.  The set count is ``max(capacity_lines // ways, 1)``
        (fully associative when ``capacity_lines <= ways``).
    """

    def __init__(self, capacity_lines: int | Sequence[int], ways: int = 8) -> None:
        caps = np.atleast_1d(np.asarray(capacity_lines, dtype=np.int64))
        if caps.ndim != 1 or (caps < 0).any():
            raise ValueError("capacity_lines must be non-negative")
        if ways <= 0:
            raise ValueError("ways must be positive")
        cache_ways = np.minimum(ways, caps)
        sets = np.where(caps > 0, np.maximum(caps // np.maximum(cache_ways, 1), 1), 0)
        self.capacity_lines = int(caps.sum())
        self.ways = int(cache_ways.max(initial=0))
        self.n_sets = int(sets.sum())
        self._sets = sets
        self._base = np.concatenate(([0], np.cumsum(sets)[:-1]))
        row_ways = np.repeat(cache_ways, sets)
        width = max(self.ways, 1)
        self._tags = np.zeros((self.n_sets, width), dtype=np.int64)
        # last-use stamp; -1 marks a free way, so free ways fill first
        self._age = np.where(np.arange(width) < row_ways[:, None], -1, _NO_WAY)
        self._valid = np.zeros((self.n_sets, width), dtype=bool)
        self._dirty = np.zeros((self.n_sets, width), dtype=bool)
        self._clock = 0
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

    def _rows(self, line_ids: np.ndarray, caches: np.ndarray) -> np.ndarray:
        """Row (global set index) of each access; -1 for zero-capacity caches."""
        sets = self._sets[caches]
        rows = np.full(line_ids.shape, -1, dtype=np.int64)
        live = sets > 0
        if live.any():
            slot = _mix(line_ids[live]) % sets[live].astype(np.uint64)
            rows[live] = self._base[caches[live]] + slot.astype(np.int64)
        return rows

    def access_batch(
        self,
        line_ids: np.ndarray | Iterable[int],
        *,
        caches: np.ndarray | int = 0,
        writes: np.ndarray | bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Serve a stream of accesses in order; return per-access ``(hit, dirtied)``.

        ``caches`` picks the bank cache of each access and ``writes``
        marks the writes; both broadcast against ``line_ids``.
        ``dirtied`` flags the clean->dirty transitions.
        """
        lines = np.asarray(line_ids, dtype=np.int64).ravel()
        n = lines.size
        cache_ids = np.broadcast_to(np.asarray(caches, dtype=np.int64), (n,))
        wr = np.broadcast_to(np.asarray(writes, dtype=bool), (n,))
        hit = np.zeros(n, dtype=bool)
        dirtied = wr.copy()
        if n == 0:
            return hit, dirtied
        rows = self._rows(lines, cache_ids)
        live = np.flatnonzero(rows >= 0)
        # Bucket by row, rank within the bucket (stream order is kept by
        # the stable sort), then order by (rank, row): step k is the run
        # of accesses of rank k, at most one per row.
        by_row = live[np.argsort(rows[live], kind="stable")]
        sorted_rows = rows[by_row]
        pos = np.arange(by_row.size)
        first = np.ones(by_row.size, dtype=bool)
        first[1:] = sorted_rows[1:] != sorted_rows[:-1]
        rank = pos - np.maximum.accumulate(np.where(first, pos, 0))
        order = by_row[np.argsort(rank, kind="stable")]
        r_all, ln_all, w_all = rows[order], lines[order], wr[order]
        stamp_all = self._clock + order
        flat_all = r_all * self._tags.shape[1]
        h_all = np.zeros(order.size, dtype=bool)
        was_dirty_all = np.zeros(order.size, dtype=bool)
        tags, valid, age = self._tags, self._valid, self._age
        tags_f, valid_f, age_f = tags.ravel(), valid.ravel(), age.ravel()
        dirty_f = self._dirty.ravel()
        resident_before = int(np.count_nonzero(valid))
        lo = 0
        for hi in np.cumsum(np.bincount(rank)).tolist():
            r, ln = r_all[lo:hi], ln_all[lo:hi]
            match = tags[r] == ln[:, None]
            match &= valid[r]
            h = match.any(axis=1)
            # a hit keeps its way; a miss fills a free way, else the LRU one
            way = np.where(h, match.argmax(axis=1), age[r].argmin(axis=1))
            flat = flat_all[lo:hi] + way
            was_dirty = dirty_f[flat] & h
            h_all[lo:hi] = h
            was_dirty_all[lo:hi] = was_dirty
            tags_f[flat] = ln
            age_f[flat] = stamp_all[lo:hi]
            valid_f[flat] = True
            dirty_f[flat] = was_dirty | w_all[lo:hi]
            lo = hi
        hit[order] = h_all
        dirtied[order] = w_all & ~was_dirty_all
        # every live miss fills a way; the fills that found none free evicted
        fills = order.size - int(np.count_nonzero(h_all))
        evictions = fills - (int(np.count_nonzero(valid)) - resident_before)
        self._clock += n
        n_hits = int(np.count_nonzero(hit))
        self.hits += n_hits
        self.misses += n - n_hits
        self.evictions += evictions
        self.lines_dirtied += int(np.count_nonzero(dirtied))
        return hit, dirtied

    def access(self, line_id: int, *, write: bool = False) -> bool:
        """Touch one line; returns True on hit.

        ``write`` marks the line dirty; the ``lines_dirtied`` counter
        counts clean->dirty transitions, each of which corresponds to
        one eventual write-back to the next level.
        """
        hit, _ = self.access_batch([line_id], writes=write)
        return bool(hit[0])

    def access_many(
        self, line_ids: Iterable[int] | np.ndarray, *, write: bool = False
    ) -> int:
        """Touch a sequence of lines in order; returns the hit count."""
        if not isinstance(line_ids, np.ndarray):
            line_ids = list(line_ids)
        hit, _ = self.access_batch(line_ids, writes=write)
        return int(np.count_nonzero(hit))

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

    def contains(self, line_id: int, *, cache: int = 0) -> bool:
        """Non-mutating presence test (no LRU update, no counters)."""
        r = int(self._rows(np.array([line_id], dtype=np.int64), np.array([cache]))[0])
        if r < 0:
            return False
        return bool(((self._tags[r] == line_id) & self._valid[r]).any())

    def resident(self, cache: int = 0) -> set[int]:
        """The line ids ``cache`` holds now."""
        lo = int(self._base[cache])
        rows = slice(lo, lo + int(self._sets[cache]))
        return set(self._tags[rows][self._valid[rows]].tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._valid))


def simulate_stream(
    stream: np.ndarray | Iterable[int],
    capacity_lines: int,
    ways: int = 8,
) -> tuple[int, int]:
    """Run a line-id stream through a fresh cache; return (hits, misses)."""
    cache = LRUCache(capacity_lines, ways)
    cache.access_many(np.asarray(list(stream), dtype=np.int64))
    return cache.hits, cache.misses
