"""Property-based tests: the two-batch resolver equals the per-record oracle.

``resolve_traffic`` serves a whole trace as one on-SM batch and one L2
batch of the array LRU; ``oracle_resolve_traffic`` is the per-record,
per-warp ``OrderedDict`` resolver it replaced.  Every report field must
agree exactly, so the reports are compared by ``repr``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.presets import RTX_3080, TESLA_K80, TESLA_V100
from repro.mem.coalesce import analyze_access
from repro.mem.hierarchy import resolve_traffic
from repro.mem.trace import AccessTrace
from tests.mem.oracle import oracle_resolve_traffic

BASE = 0x100000


@st.composite
def record_specs(draw):
    return {
        "space": draw(st.sampled_from(["global", "global", "texture", "constant"])),
        "is_store": draw(st.booleans()),
        "itemsize": draw(st.integers(1, 16)),
        "offset": draw(st.integers(0, 127)),  # misaligned bases
        "pattern": draw(st.sampled_from(["unit", "stride", "random", "same"])),
        "span": draw(st.integers(1, 4096)),
        "mask": draw(st.sampled_from(["all", "partial", "none"])),
    }


@st.composite
def traces(draw):
    """Small launches: windows from 1 warp up to the full 64, ragged tails."""
    n_warps = draw(st.integers(1, 80))
    total_lanes = n_warps * 32 - draw(st.integers(0, 31))
    specs = draw(st.lists(record_specs(), min_size=1, max_size=8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    trace = AccessTrace.for_grid(total_lanes)
    lanes = np.arange(total_lanes, dtype=np.int64)
    for spec in specs:
        k = spec["itemsize"]
        if spec["pattern"] == "unit":
            idx = lanes
        elif spec["pattern"] == "stride":
            idx = lanes * int(rng.integers(2, 65))
        elif spec["pattern"] == "random":
            idx = rng.integers(0, spec["span"], total_lanes)
        else:
            idx = np.zeros(total_lanes, dtype=np.int64)
        addrs = BASE + spec["offset"] + idx * k
        if spec["mask"] == "all":
            mask = None
        elif spec["mask"] == "partial":
            mask = rng.random(total_lanes) < 0.5
        else:
            mask = np.zeros(total_lanes, dtype=bool)
        summary = analyze_access(addrs, mask, k)
        trace.record(
            space=spec["space"], is_store=spec["is_store"], itemsize=k,
            summary=summary, addrs=addrs, mask=mask,
        )
    return trace


class TestResolverMatchesOracle:
    @pytest.mark.parametrize(
        "gpu", [TESLA_V100, TESLA_K80, RTX_3080], ids=lambda g: g.name
    )
    @given(trace=traces(), resident=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_reports_identical(self, gpu, trace, resident):
        got = resolve_traffic(trace, gpu, resident_warps_per_sm=resident)
        want = oracle_resolve_traffic(trace, gpu, resident_warps_per_sm=resident)
        assert repr(got.as_dict()) == repr(want.as_dict())
