"""Property-based tests: LRU cache invariants."""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import LRUCache
from tests.mem.oracle import OracleLRU

streams = st.lists(st.integers(0, 64), min_size=1, max_size=300)


def oracle_fully_associative(stream, capacity):
    """Reference fully-associative LRU."""
    lru: OrderedDict[int, None] = OrderedDict()
    hits = 0
    for line in stream:
        if line in lru:
            hits += 1
            lru.move_to_end(line)
        else:
            if len(lru) >= capacity:
                lru.popitem(last=False)
            lru[line] = None
    return hits


class TestOracle:
    @given(stream=streams, capacity=st.integers(1, 32))
    @settings(max_examples=80, deadline=None)
    def test_fully_associative_matches(self, stream, capacity):
        c = LRUCache(capacity, ways=capacity)
        c.access_many(stream)
        assert c.hits == oracle_fully_associative(stream, capacity)


class TestInvariants:
    @given(stream=streams, capacity=st.integers(0, 64), ways=st.integers(1, 16))
    @settings(max_examples=80, deadline=None)
    def test_counts_consistent(self, stream, capacity, ways):
        c = LRUCache(capacity, ways=ways)
        c.access_many(stream)
        assert c.hits + c.misses == len(stream)
        assert len(c) <= capacity if capacity else len(c) == 0
        assert c.evictions <= c.misses

    @given(stream=streams, capacity=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_bigger_cache_never_worse(self, stream, capacity):
        """LRU inclusion property: more capacity, same ways ratio -> >= hits."""
        small = LRUCache(capacity, ways=capacity)
        big = LRUCache(capacity * 2, ways=capacity * 2)
        small.access_many(stream)
        big.access_many(stream)
        assert big.hits >= small.hits

    @given(stream=streams)
    @settings(max_examples=60, deadline=None)
    def test_dirtied_bounded_by_distinct_writes(self, stream):
        c = LRUCache(16)
        c.access_many(stream, write=True)
        assert c.lines_dirtied >= len(set(stream))
        assert c.lines_dirtied <= len(stream)

    @given(stream=streams)
    @settings(max_examples=40, deadline=None)
    def test_infinite_cache_misses_equal_distinct(self, stream):
        c = LRUCache(1 << 20, ways=16)
        c.access_many(stream)
        # with a huge hashed cache, conflict misses are absent
        assert c.misses == len(set(stream))


# Line ids that stress the set hash: 0, negatives (two's complement in
# the vectorised hash), the int64 extremes, plus a small range so that
# streams re-touch lines.
line_ids = st.one_of(
    st.integers(0, 40),
    st.sampled_from([0, -1, -7, 2**63 - 1, -(2**63), 1 << 40]),
    st.integers(-(2**63), 2**63 - 1),
)


@st.composite
def bank_batches(draw):
    """A bank of caches and a few batches of (cache, line, write) accesses."""
    caps = draw(st.lists(st.integers(0, 64), min_size=1, max_size=5))
    ways = draw(st.integers(1, 16))
    access = st.tuples(st.integers(0, len(caps) - 1), line_ids, st.booleans())
    batches = draw(st.lists(st.lists(access, max_size=120), min_size=1, max_size=3))
    return caps, ways, batches


class TestArrayLRUMatchesOracle:
    """The lock-step array LRU equals one ``OrderedDict`` LRU per cache."""

    @given(case=bank_batches())
    @settings(max_examples=150, deadline=None)
    def test_bank_matches_per_cache_oracles(self, case):
        caps, ways, batches = case
        bank = LRUCache(caps, ways=ways)
        oracles = [OracleLRU(c, ways=ways) for c in caps]
        for batch in batches:
            want_hit, want_dirtied = [], []
            for cache, line, write in batch:
                o = oracles[cache]
                before = o.lines_dirtied
                want_hit.append(o.access(line, write=write))
                want_dirtied.append(o.lines_dirtied > before)
            hit, dirtied = bank.access_batch(
                np.array([b[1] for b in batch], dtype=np.int64),
                caches=np.array([b[0] for b in batch], dtype=np.int64),
                writes=np.array([b[2] for b in batch], dtype=bool),
            )
            assert hit.tolist() == want_hit
            assert dirtied.tolist() == want_dirtied
        for name in ("hits", "misses", "evictions", "lines_dirtied"):
            assert getattr(bank, name) == sum(getattr(o, name) for o in oracles), name
        assert len(bank) == sum(len(o) for o in oracles)
        for i, o in enumerate(oracles):
            assert bank.resident(i) == {lid for s in o._sets for lid in s}

    @given(
        stream=st.lists(st.tuples(line_ids, st.booleans()), max_size=200),
        capacity=st.integers(0, 64),
        ways=st.integers(1, 16),
    )
    @settings(max_examples=100, deadline=None)
    def test_single_cache_api_matches_oracle(self, stream, capacity, ways):
        c = LRUCache(capacity, ways=ways)
        o = OracleLRU(capacity, ways=ways)
        for line, write in stream:
            assert c.access(line, write=write) == o.access(line, write=write)
        assert c.snapshot() == o.snapshot()
        assert (c.n_sets, c.ways) == (o.n_sets, o.ways)
        for line, _ in stream:
            assert c.contains(line) == o.contains(line)
