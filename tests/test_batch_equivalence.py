"""I/O-count-equivalence guard for the batched accounting fast path.

The simulator's only contract is block-I/O counts (docs/io_model.md), so
the vectorized batch entry points of :class:`BlockDevice` must charge
exactly what the scalar path charges — same ``IOStats``, same per-extent
breakdown, same buffer-pool end state — for *any* access sequence and
under every replacement policy. :class:`ReferenceBlockDevice` replays
batch calls as the literal per-access scalar loop; these tests drive
identical workloads through both and demand byte-for-byte agreement,
from random mixed device workloads up to full truss decompositions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, ExecutionContext, max_truss
from repro.graph.disk_graph import DiskGraph
from repro.graph.generators import barabasi_albert, gnm_random
from repro.semiexternal.support import compute_supports, compute_supports_reference
from repro.errors import DeviceError
from repro.storage import (
    BlockDevice,
    DiskArray,
    InMemoryBlockDevice,
    MemoryMeter,
    ReferenceBlockDevice,
)

POLICIES = ["lru", "fifo", "clock"]

EXTENT_BYTES = 1024  # 16 blocks of 64 bytes — small enough to churn the pool


def _devices(policy, cache_blocks=4):
    fast = BlockDevice(block_size=64, cache_blocks=cache_blocks, policy=policy)
    reference = ReferenceBlockDevice(
        block_size=64, cache_blocks=cache_blocks, policy=policy
    )
    return fast, reference


def _assert_equivalent(fast, reference):
    assert fast.stats.read_ios == reference.stats.read_ios
    assert fast.stats.write_ios == reference.stats.write_ios
    assert fast.io_by_extent() == reference.io_by_extent()


# --------------------------------------------------------------------- #
# random mixed workloads (the property test)
# --------------------------------------------------------------------- #

def _accesses(max_size):
    """A batch of (offset, length) pairs within a EXTENT_BYTES extent."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=EXTENT_BYTES - 1),
            st.integers(min_value=0, max_value=96),
        ),
        min_size=1,
        max_size=max_size,
    ).map(
        lambda pairs: [
            (offset, min(length, EXTENT_BYTES - offset))
            for offset, length in pairs
        ]
    )


workloads = st.lists(
    st.one_of(
        st.tuples(st.just("read_batch"), _accesses(24)),
        st.tuples(st.just("write_batch"), _accesses(24)),
        # uniform scalar length — the gather/scatter specialisation
        st.tuples(st.just("read_uniform"), _accesses(24)),
        st.tuples(st.just("write_uniform"), _accesses(24)),
        st.tuples(st.just("append"), _accesses(1)),
    ),
    min_size=1,
    max_size=12,
)


def _apply(device, extents, op, accesses):
    offsets = np.array([offset for offset, _ in accesses], dtype=np.int64)
    lengths = np.array([length for _, length in accesses], dtype=np.int64)
    extent = extents[int(offsets[0]) % len(extents)]
    if op == "read_batch":
        device.touch_read_batch(extent, offsets, lengths)
    elif op == "write_batch":
        device.touch_write_batch(extent, offsets, lengths)
    elif op == "read_uniform":
        device.touch_read_batch(extent, np.minimum(offsets, EXTENT_BYTES - 8), 8)
    elif op == "write_uniform":
        device.touch_write_batch(extent, np.minimum(offsets, EXTENT_BYTES - 8), 8)
    elif op == "append":
        device.append_write(extent, int(offsets[0]), int(lengths[0]))


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=40, deadline=None)
@given(ops=workloads)
def test_random_workload_counts_match(policy, ops):
    """Batched vs scalar charging agrees on arbitrary mixed workloads."""
    fast, reference = _devices(policy)
    fast_extents = [fast.allocate(name, EXTENT_BYTES) for name in ("a", "b")]
    ref_extents = [reference.allocate(name, EXTENT_BYTES) for name in ("a", "b")]
    for op, accesses in ops:
        _apply(fast, fast_extents, op, accesses)
        _apply(reference, ref_extents, op, accesses)
        # equivalence must hold at every step, not just at the end — a
        # transient cache divergence would surface later as a count drift
        _assert_equivalent(fast, reference)
    fast.flush()
    reference.flush()
    _assert_equivalent(fast, reference)
    assert dict(fast._cache.items()) == dict(reference._cache.items())


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=25, deadline=None)
@given(
    indices=st.lists(st.integers(min_value=0, max_value=127), min_size=1, max_size=40),
    data=st.data(),
)
def test_gather_scatter_match_elementwise(policy, indices, data):
    """DiskArray.gather/scatter charge exactly like get/set loops."""
    fast, reference = _devices(policy)
    batch_array = DiskArray(fast, 128, np.int64, name="x")
    scalar_array = DiskArray(reference, 128, np.int64, name="x")
    index_array = np.array(indices, dtype=np.int64)
    if data.draw(st.booleans(), label="scatter_first"):
        values = np.arange(len(index_array), dtype=np.int64)
        batch_array.scatter(index_array, values)
        for index, value in zip(indices, values.tolist()):
            scalar_array.set(index, value)
    batch_array.gather(index_array)
    for index in indices:
        scalar_array.get(index)
    _assert_equivalent(fast, reference)


@pytest.mark.parametrize("policy", POLICIES)
def test_read_slices_matches_slice_loop(policy):
    """Batched multi-range reads charge exactly like read_slice loops."""
    rng = np.random.default_rng(42)
    starts = rng.integers(0, 200, size=64)
    counts = rng.integers(0, 56, size=64)
    fast, reference = _devices(policy)
    batch_array = DiskArray(fast, 256, np.int64, name="x")
    scalar_array = DiskArray(reference, 256, np.int64, name="x")
    values, bounds = batch_array.read_slices(starts, counts)
    expected = []
    for start, count in zip(starts.tolist(), counts.tolist()):
        expected.append(scalar_array.read_slice(start, start + count))
    _assert_equivalent(fast, reference)
    np.testing.assert_array_equal(values, np.concatenate(expected))
    np.testing.assert_array_equal(np.diff(bounds), counts)


# --------------------------------------------------------------------- #
# support scan
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("policy", POLICIES)
def test_support_scan_equivalence(policy):
    """Batched and scalar support scans: identical answers *and* bills."""
    graph = gnm_random(60, 700, seed=5)
    fast = BlockDevice(block_size=64, cache_blocks=16, policy=policy)
    reference = ReferenceBlockDevice(block_size=64, cache_blocks=16, policy=policy)
    fast_scan = compute_supports(DiskGraph(graph, fast, MemoryMeter()))
    ref_scan = compute_supports_reference(DiskGraph(graph, reference, MemoryMeter()))
    _assert_equivalent(fast, reference)
    assert fast_scan.triangle_count == ref_scan.triangle_count
    assert fast_scan.zero_support_edges == ref_scan.zero_support_edges
    assert fast_scan.max_support == ref_scan.max_support
    np.testing.assert_array_equal(
        fast_scan.supports.peek(), ref_scan.supports.peek()
    )


# --------------------------------------------------------------------- #
# full algorithm runs (the end-to-end guard of ISSUE's acceptance)
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize(
    "method", ["semi-binary", "semi-greedy-core", "semi-lazy-update"]
)
def test_decomposition_equivalence(method, policy):
    """Fast vs reference device: identical I/O bill on full seeded runs."""
    graph = barabasi_albert(120, attach=5, seed=7)
    fast = ExecutionContext(EngineConfig(
        block_size=64, cache_blocks=32, cache_policy=policy,
    ))
    reference = ExecutionContext(EngineConfig(
        backend="reference", block_size=64, cache_blocks=32, cache_policy=policy,
    ))
    fast_result = max_truss(graph, method=method, context=fast)
    ref_result = max_truss(graph, method=method, context=reference)
    assert fast_result.k_max == ref_result.k_max
    assert fast_result.io.read_ios == ref_result.io.read_ios
    assert fast_result.io.write_ios == ref_result.io.write_ios
    assert isinstance(reference.device, ReferenceBlockDevice)
    _assert_equivalent(fast.device, reference.device)


# --------------------------------------------------------------------- #
# ordered mixed touch lists (the peel heap's charging path)
# --------------------------------------------------------------------- #

SEQUENCE_EXTENTS = ("keys", "prev", "next", "wide")


def _touch_script(seed, length=300, element=True):
    """A seeded interleaved touch list over four extents: reads, writes,
    and deliberate repeats of the previous touch (consecutive same
    block). With ``element=False`` lengths vary, so touches span several
    blocks, are empty, or cover whole blocks."""
    rng = np.random.default_rng(seed)
    script = []
    for _ in range(length):
        if script and rng.random() < 0.2:
            extent, offset, nbytes, _write = script[-1]
        else:
            extent = int(rng.integers(len(SEQUENCE_EXTENTS)))
            if element:
                offset, nbytes = 8 * int(rng.integers(EXTENT_BYTES // 8)), 8
            else:
                offset = int(rng.integers(EXTENT_BYTES))
                nbytes = min(int(rng.integers(0, 160)), EXTENT_BYTES - offset)
        script.append((extent, offset, nbytes, bool(rng.random() < 0.5)))
    return script


def _sequence_devices(policy):
    fast, reference = _devices(policy)
    for device in (fast, reference):
        for name in SEQUENCE_EXTENTS:
            device.allocate(name, EXTENT_BYTES)
        device.enable_touch_counting()
    return fast, reference


def _assert_same_state(fast, reference):
    _assert_equivalent(fast, reference)
    assert fast.stats.bytes_read == reference.stats.bytes_read
    assert fast.stats.bytes_written == reference.stats.bytes_written
    assert list(fast._cache.items()) == list(reference._cache.items())
    assert fast.touch_counts_by_extent() == reference.touch_counts_by_extent()


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("element", [True, False], ids=["element", "spans"])
@pytest.mark.parametrize("seed", range(4))
def test_touch_sequence_matches_scalar_loop(policy, element, seed):
    """touch_sequence charges and leaves the pool exactly as the scalar
    touch_read / touch_write loop does, chunk after chunk."""
    fast, reference = _sequence_devices(policy)
    script = _touch_script(seed, element=element)
    for start in range(0, len(script), 50):
        extents, offsets, lengths, writes = zip(*script[start:start + 50])
        nbytes = 8 if element else np.array(lengths)
        fast.touch_sequence(extents, offsets, nbytes, writes)
        reference.touch_sequence(list(extents), list(offsets), nbytes, list(writes))
        _assert_same_state(fast, reference)
    if policy == "clock":
        assert fast._cache._hand == reference._cache._hand
        assert fast._cache._referenced == reference._cache._referenced
    fast.flush()
    reference.flush()
    _assert_same_state(fast, reference)


@pytest.mark.parametrize("policy", POLICIES)
def test_touch_sequence_matches_per_touch_calls(policy):
    """The reference spec is the literal per-touch loop of the scalar API."""
    fast, _ = _sequence_devices(policy)
    _, scalar = _sequence_devices(policy)
    script = _touch_script(11, element=False)
    extents, offsets, lengths, writes = zip(*script)
    fast.touch_sequence(np.array(extents), np.array(offsets), np.array(lengths),
                        np.array(writes))
    for extent, offset, nbytes, write in script:
        touch = scalar.touch_write if write else scalar.touch_read
        touch(extent, offset, nbytes)
    _assert_same_state(fast, scalar)


def test_touch_sequence_readonly_raises_before_charging():
    fast, _ = _sequence_devices("lru")
    fast.readonly = True
    with pytest.raises(DeviceError):
        fast.touch_sequence([0, 1], [0, 8], 8, [False, True])
    assert fast.stats.total_ios == 0
    assert fast.cached_block_count == 0
    fast.touch_sequence([0, 1], [0, 8], 8, [False, False])  # reads still fine
    assert fast.stats.read_ios == 2


@pytest.mark.parametrize(
    "extents,offsets", [([0, 1], [0, EXTENT_BYTES]), ([0, 1], [-8, 0]), ([0, 9], [0, 0])],
    ids=["past-end", "negative", "unknown-extent"],
)
def test_touch_sequence_out_of_extent_raises(extents, offsets):
    fast, reference = _sequence_devices("lru")
    with pytest.raises(DeviceError):
        fast.touch_sequence(extents, offsets, 8, [False, True])
    assert fast.stats.total_ios == 0
    with pytest.raises(DeviceError):
        reference.touch_sequence(extents, offsets, 8, [False, True])


def test_touch_sequence_operand_mismatch_raises():
    fast, _ = _sequence_devices("lru")
    with pytest.raises(DeviceError):
        fast.touch_sequence([0, 1], [0], 8, [False, True])


def test_touch_sequence_inmemory_charges_nothing():
    device = InMemoryBlockDevice(block_size=64, cache_blocks=4)
    extent = device.allocate("keys", EXTENT_BYTES)
    device.touch_sequence([extent] * 3, [0, 64, 128], 8, [False, True, True])
    assert device.stats.total_ios == 0
    assert device.cached_block_count == 0
    with pytest.raises(DeviceError):
        device.touch_sequence([extent + 1], [0], 8, [False])
    device.readonly = True
    with pytest.raises(DeviceError):
        device.touch_sequence([extent], [0], 8, [True])
